#include "fleet/scheduler.hpp"

#include <algorithm>

namespace kertbn::fleet {

double ReconstructionScheduler::priority(
    const RebuildCandidate& candidate) const {
  double p = static_cast<double>(candidate.staleness_ticks);
  switch (candidate.health) {
    case core::ModelHealth::kNone:
    case core::ModelHealth::kFallback:
    case core::ModelHealth::kDegraded:
      p += config_.unhealthy_boost;
      break;
    case core::ModelHealth::kFresh:
    case core::ModelHealth::kStale:
      break;
  }
  if (candidate.probation) p += config_.probation_boost;
  return p;
}

std::vector<std::uint64_t> ReconstructionScheduler::select(
    const std::vector<RebuildCandidate>& candidates) {
  struct Ranked {
    double priority;
    std::uint64_t tenant;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(candidates.size());
  for (const RebuildCandidate& c : candidates) {
    ranked.push_back({priority(c), c.tenant});
  }

  // Only the winners' set matters (grants are returned in id order), so a
  // partition on (priority desc, id asc) replaces a full sort.
  const std::size_t slots =
      std::min(config_.max_rebuilds_per_tick, ranked.size());
  if (slots < ranked.size()) {
    std::nth_element(ranked.begin(), ranked.begin() + slots, ranked.end(),
                     [](const Ranked& a, const Ranked& b) {
                       if (a.priority != b.priority) {
                         return a.priority > b.priority;
                       }
                       return a.tenant < b.tenant;
                     });
  }
  std::vector<std::uint64_t> grants;
  grants.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) grants.push_back(ranked[i].tenant);
  granted_ += slots;
  deferred_ += ranked.size() - slots;
  std::sort(grants.begin(), grants.end());
  return grants;
}

}  // namespace kertbn::fleet
