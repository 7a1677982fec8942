#include "fleet/workload.hpp"

#include <string>

#include "common/contract.hpp"
#include "common/indexed_name.hpp"

namespace kertbn::fleet {

namespace {

/// splitmix64 finalizer — the fleet's decisions use the same keyed-hash
/// construction as the fault injector, for the same reason: every draw is
/// an independent pure function of its coordinates.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

TenantWorkload::TenantWorkload(Config config) : config_(config) {
  KERTBN_EXPECTS(config_.services >= 1);
  KERTBN_EXPECTS(config_.base_max >= config_.base_min);
  bases_.reserve(config_.services);
  for (std::size_t s = 0; s < config_.services; ++s) {
    const double u = u01(/*stream=*/0, s, 0);
    bases_.push_back(config_.base_min +
                     u * (config_.base_max - config_.base_min));
  }
}

double TenantWorkload::u01(std::uint64_t stream, std::uint64_t a,
                           std::uint64_t b) const {
  std::uint64_t h = mix(config_.seed ^ mix(stream));
  h = mix(h ^ a);
  return static_cast<double>(mix(h ^ b) >> 11) * 0x1.0p-53;
}

double TenantWorkload::service_mean(std::size_t service,
                                    std::uint64_t tick) const {
  const double wobble =
      config_.wobble * (2.0 * u01(/*stream=*/1, service, tick) - 1.0);
  return bases_[service] * (1.0 + wobble);
}

std::vector<sim::AgentReport> TenantWorkload::reports(
    std::uint64_t tick) const {
  sim::AgentReport report;
  report.agent = 0;
  report.service_means.reserve(config_.services);
  for (std::size_t s = 0; s < config_.services; ++s) {
    report.service_means.emplace_back(s, service_mean(s, tick));
  }
  return {std::move(report)};
}

double TenantWorkload::response_mean(std::uint64_t tick) const {
  double sum = 0.0;
  for (std::size_t s = 0; s < config_.services; ++s) {
    sum += service_mean(s, tick);
  }
  const double leak = config_.leak * true_response_mean() *
                      (2.0 * u01(/*stream=*/2, 0, tick) - 1.0);
  return sum + leak;
}

double TenantWorkload::true_response_mean() const {
  double sum = 0.0;
  for (const double b : bases_) sum += b;
  return sum;
}

wf::Workflow TenantWorkload::make_workflow() const {
  std::vector<std::string> names;
  std::vector<wf::Node::Ptr> steps;
  names.reserve(config_.services);
  steps.reserve(config_.services);
  for (std::size_t s = 0; s < config_.services; ++s) {
    names.push_back(indexed_name("s", s));
    steps.push_back(wf::Node::activity(s));
  }
  return wf::Workflow(std::move(names), wf::Node::sequence(std::move(steps)));
}

wf::ResourceSharing TenantWorkload::make_sharing() const {
  wf::ResourceGroup host;
  host.name = "tenant_host";
  for (std::size_t s = 0; s < config_.services; ++s) {
    host.services.push_back(s);
  }
  return wf::ResourceSharing{{std::move(host)}};
}

}  // namespace kertbn::fleet
