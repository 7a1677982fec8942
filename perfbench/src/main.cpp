/// \file main.cpp
/// kertbn_perfbench: runs one benchmark workload and prints its metrics.
///
///   kertbn_perfbench --workload <report_scenario|ediamond_serve|fleet_1k>
///                    --seed <n> --seconds <s> --trace <0|1>
///                    [--build-dir <dir>] [--commit <sha>]
///
/// --trace 0 prints the end-to-end metrics, measured with telemetry off;
/// --trace 1 prints the per-layer metrics from a separate traced pass. The
/// last stdout line is one JSON object: correct, attempted, failed,
/// metrics. Lines before it give the host fingerprint, each metric with
/// its unit and sample count, and the correctness verdict. Exits non-zero
/// when a correctness check fails or the build is not an optimized one.

#include <cmath>
#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/cpu_features.hpp"
#include "obs/metrics.hpp"

namespace kertbn::perfbench {
namespace {

/// A contract metric: name and unit, in the order BENCHMARK.json lists
/// them. Metrics a workload does not exercise print 0 in their unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_us_mean", "us"},
    {"latency_us_p90", "us"},
    {"freshness_ms_mean", "ms"},
    {"freshness_ms_p90", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"monitoring.offer_self_us_p50", "us"},
    {"monitoring.shed_intervals", "count"},
    {"durable.append_us_p50", "us"},
    {"durable.append_us_p99", "us"},
    {"durable.bytes_per_interval", "B"},
    {"durable.checkpoint_ms", "ms"},
    {"overload.update_us", "us"},
    {"overload.max_level", "level"},
    {"kert.observe_row_us_p50", "us"},
    {"kert.rebuild_ms_p50", "ms"},
    {"kert.rebuild_ms_p99", "ms"},
    {"kert.incremental_share", "share"},
    {"kert.rows_touched_per_rebuild", "rows"},
    {"kert.useful_row_share", "share"},
    {"kert.snapshot_build_ms", "ms"},
    {"quality.observe_row_us_p50", "us"},
    {"query.acquire_ns", "ns"},
    {"query.calibrations_per_query", "count"},
    {"query.dirty_cliques_per_calibration", "count"},
    {"query.pruned_route_share", "share"},
    {"query.plan_hit_ratio", "share"},
    {"query.snapshot_versions_served", "count"},
    {"bn.calibrate_us_p50", "us"},
    {"pool.task_wait_us_p50", "us"},
    {"pool.task_wait_us_p99", "us"},
    {"pool.busy_share", "share"},
    {"fleet.parallel_speedup", "x"},
    {"fleet.overhead_ratio", "x"},
    {"fleet.workload_gen_us", "us"},
    {"fleet.rebuilds_per_tick", "count"},
    {"fleet.deferred_rebuilds", "count"},
    {"fleet.staleness_p99_ticks", "ticks"},
    {"report.predicted_intervals_per_s", "1/s"},
    {"report.measured_intervals_per_s", "1/s"},
    {"fleet.predicted_tenant_ticks_per_s", "1/s"},
    {"fleet.measured_tenant_ticks_per_s", "1/s"},
    {"trace.overhead_share", "share"},
};

/// CPU brand string from CPUID leaves 0x80000002..4.
std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

/// CMAKE_BUILD_TYPE from \p build_dir's CMakeCache.txt ("" if absent).
std::string build_type(const std::string& build_dir) {
  std::ifstream in(build_dir + "/CMakeCache.txt");
  std::string line;
  const std::string key = "CMAKE_BUILD_TYPE:";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto eq = line.find('=');
      return eq == std::string::npos ? "" : line.substr(eq + 1);
    }
  }
  return "";
}

/// The bench/run_all.sh rule: optimized build types only, unless
/// KERTBN_BENCH_ALLOW_NONRELEASE=1.
bool optimized_build(const std::string& type) {
  if (type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel") {
    return true;
  }
  const char* allow = std::getenv("KERTBN_BENCH_ALLOW_NONRELEASE");
  return allow != nullptr && std::strcmp(allow, "1") == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: kertbn_perfbench --workload <report_scenario|"
               "ediamond_serve|fleet_1k> --seed <n> --seconds <s> "
               "--trace <0|1> [--build-dir <dir>] [--commit <sha>]\n");
  return 2;
}

}  // namespace
}  // namespace kertbn::perfbench

int main(int argc, char** argv) {
  using namespace kertbn::perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload")) return usage();

  RunOptions opt;
  try {
    opt.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    opt.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    opt.trace = (args.count("trace") ? args["trace"] : "0") == "1";
  } catch (const std::exception&) {
    return usage();
  }
  const std::string workload = args["workload"];
  const std::string build_dir =
      args.count("build-dir") ? args["build-dir"] : ".bench_build";
  const std::string commit = args.count("commit") ? args["commit"] : "unknown";
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  opt.work_dir = build_dir + "/work";

  RunResult (*run)(const RunOptions&) = nullptr;
  if (workload == "report_scenario") run = run_report_scenario;
  if (workload == "ediamond_serve") run = run_ediamond_serve;
  if (workload == "fleet_1k") run = run_fleet_1k;
  if (run == nullptr) return usage();

  const std::string type = build_type(build_dir);
  std::printf("# host cpu=\"%s\" nproc=%zu simd=%s build=%s commit=%s\n",
              cpu_model().c_str(), opt.threads,
              kertbn::simd::to_string(kertbn::simd::active_tier()),
              type.empty() ? "unknown" : type.c_str(), commit.c_str());
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  if (!optimized_build(type)) {
    std::fprintf(stderr,
                 "error: build type '%s' is not Release (set "
                 "KERTBN_BENCH_ALLOW_NONRELEASE=1 to run anyway)\n",
                 type.empty() ? "unknown" : type.c_str());
    return 1;
  }

  kertbn::obs::set_enabled(false);
  std::filesystem::create_directories(opt.work_dir);
  RunResult result = run(opt);
  std::filesystem::remove_all(opt.work_dir);

  // Exactly the contract's metric set, in its order.
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = &m;
  std::string json_metrics;
  const auto emit = [&](const MetricSpec& spec) {
    const char* name = spec.name;
    const std::string unit = spec.unit;
    const Metric* m = by_name[name];
    const double value = m != nullptr ? m->value : 0.0;
    if (!std::isfinite(value)) {
      result.check(false, std::string("non-finite metric ") + name);
    }
    if (m != nullptr && m->unit != unit) {
      result.check(false, std::string("unit mismatch for ") + name);
    }
    std::printf("metric %-36s %.6g %s (n=%zu)%s%s\n", name, value,
                unit.c_str(), m != nullptr ? m->samples : 0,
                m != nullptr && !m->label.empty() ? "  = " : "",
                m != nullptr ? m->label.c_str() : "");
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"",
                  json_metrics.empty() ? "" : ", ", name,
                  std::isfinite(value) ? value : 0.0);
    json_metrics += buf + unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      if (by_name.count(spec.name) == 0) {
        result.check(false, std::string("missing metric ") + spec.name);
      }
      emit(spec);
    }
  }
  for (const std::string& note : result.notes) {
    std::printf("note %s\n", note.c_str());
  }
  std::printf("failed_ops_share %.6g (failed %llu of %llu attempted)\n",
              ratio(double(result.failed), double(result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& f : result.failures) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  if (result.correct) std::printf("check ok: every correctness check passed\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(1, result.attempted)),
      static_cast<unsigned long long>(result.failed), json_metrics.c_str());
  return result.correct ? 0 : 1;
}
