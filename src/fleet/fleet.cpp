#include "fleet/fleet.hpp"

#include <algorithm>
#include <thread>

#include "durable/recovery.hpp"
#include "fault/file_damage.hpp"

namespace kertbn::fleet {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic CPU burn standing in for a shard stall: the work itself
/// is wasted cycles, but its *presence* is what the bulkhead test
/// observes — only the stalled shard's wall time grows.
void stall_spin(double severity) {
  const double s = std::clamp(severity, 0.0, 4.0);
  const std::uint64_t iters = static_cast<std::uint64_t>(s * 400000.0);
  volatile std::uint64_t sink = 0;
  std::uint64_t acc = 0x243f6a8885a308d3ULL;
  for (std::uint64_t i = 0; i < iters; ++i) acc = mix(acc ^ i);
  sink = acc;
  (void)sink;
}

}  // namespace

const char* to_string(TenantCondition condition) {
  switch (condition) {
    case TenantCondition::kHealthy: return "healthy";
    case TenantCondition::kProbation: return "probation";
    case TenantCondition::kQuarantined: return "quarantined";
  }
  return "unknown";
}

ov::PressureGovernor::Config Fleet::default_governor_config() {
  ov::PressureGovernor::Config cfg;
  cfg.reconstruction_rate = 16.0;
  cfg.reconstruction_burst = 16.0;
  return cfg;
}

Tenant::Config Fleet::make_tenant_config(const Config& config,
                                         std::uint64_t id, std::string dir) {
  Tenant::Config tcfg;
  tcfg.id = id;
  if (config.faults != nullptr) {
    tcfg.injection_key = config.faults->tenant_key(id);
  } else {
    fault::FleetFaultPlan keyspace;
    keyspace.seed = config.seed;
    tcfg.injection_key = keyspace.tenant_key(id);
  }
  tcfg.schedule = config.schedule;
  // Workload seed depends on (fleet seed, tenant id) only — never on the
  // fault plan — so a faulted run and its fault-free twin drive every
  // tenant with identical inputs (the isolation proof's precondition).
  tcfg.workload.seed = mix(config.seed ^ mix(id));
  tcfg.workload.services = config.services;
  tcfg.dir = std::move(dir);
  tcfg.checkpoint_every = config.checkpoint_every;
  tcfg.fsync = config.fsync;
  tcfg.max_pending = config.max_pending;
  tcfg.quality = config.quality;
  return tcfg;
}

Fleet::Fleet(Config config)
    : config_(std::move(config)), scheduler_(config_.scheduler) {
  if (config_.shards == 0) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    // Scale the reconstruction bucket to the shard's population: a
    // governor-deferred rebuild waits a full T_CON (the manager pushes
    // the deadline, LKG keeps serving), so a bucket smaller than a
    // whole-shard rebuild cohort would deterministically starve the
    // members past the token cut every cycle. At normal level the token
    // bucket must never ration; the bulkhead binds through the ladder
    // (reconstruction refused outright past throttled).
    const std::size_t members =
        config_.tenants / config_.shards +
        (s < config_.tenants % config_.shards ? 1 : 0);
    ov::PressureGovernor::Config gcfg = config_.governor;
    gcfg.reconstruction_rate =
        std::max(gcfg.reconstruction_rate, static_cast<double>(members));
    gcfg.reconstruction_burst =
        std::max(gcfg.reconstruction_burst, static_cast<double>(members));
    shards_.push_back(std::make_unique<Shard>(s, gcfg));
  }
  slots_.resize(config_.tenants);
  for (std::uint64_t id = 0; id < config_.tenants; ++id) {
    std::string dir;
    if (!config_.data_root.empty()) {
      dir = config_.data_root + "/tenant-" + std::to_string(id);
    }
    Tenant::Config tcfg = make_tenant_config(config_, id, std::move(dir));
    Shard& shard = *shards_[shard_of(id)];
    tcfg.governor = &shard.governor;
    tcfg.cancel = shard.cancel.token().flag();
    slots_[id].tenant = std::make_unique<Tenant>(std::move(tcfg));
    resync_strike_baselines(slots_[id]);
    shard.members.push_back(id);
  }
  for (const auto& shard : shards_) collect_candidates(*shard, 0);
  if (config_.parallel) {
    // The ticking thread runs a shard too, so the pool needs one worker
    // fewer than the tick's width.
    const std::size_t hw = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
    const std::size_t helpers = std::min(config_.shards, hw) - 1;
    if (helpers > 0) pool_ = std::make_unique<ThreadPool>(helpers);
  }
}

Fleet::~Fleet() {
  if (config_.faults != nullptr) {
    for (const std::uint64_t t : installed_keys_) {
      fault::uninstall_keyed(config_.faults->tenant_key(t));
    }
  }
}

void Fleet::sync_injection_contexts(std::uint64_t tick) {
  const fault::FleetFaultPlan* plan = config_.faults;
  if (plan == nullptr || plan->poisons.empty()) return;

  std::vector<std::uint64_t> want;
  for (const fault::TenantPoison& p : plan->poisons) {
    if (p.window.contains(tick)) want.push_back(p.tenant);
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());

  for (const std::uint64_t t : want) {
    if (!std::binary_search(installed_keys_.begin(), installed_keys_.end(),
                            t)) {
      fault::install_keyed(
          plan->tenant_key(t),
          std::make_shared<fault::FaultInjector>(plan->tenant_plan(t)));
    }
  }
  for (const std::uint64_t t : installed_keys_) {
    if (!std::binary_search(want.begin(), want.end(), t)) {
      fault::uninstall_keyed(plan->tenant_key(t));
    }
  }
  installed_keys_ = std::move(want);
}

void Fleet::run_tick() {
  const std::uint64_t tick = tick_;

  // Serial section: keyed-registry mutation and global scheduling both
  // happen before any shard work starts.
  sync_injection_contexts(tick);
  const std::vector<std::uint64_t> grants =
      scheduler_.select(rebuild_candidates());

  // Bulkhead section: shards share no mutable state, so running them
  // concurrently is bit-identical to the serial loop. parallel_for's join
  // is the inter-tick happens-before edge.
  if (pool_ != nullptr) {
    pool_->parallel_for(shards_.size(), [&](std::size_t s) {
      run_shard_tick(*shards_[s], tick, grants);
    });
  } else {
    for (const auto& shard : shards_) run_shard_tick(*shard, tick, grants);
  }
  ++tick_;
}

void Fleet::run_ticks(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_tick();
}

std::vector<RebuildCandidate> Fleet::rebuild_candidates() const {
  std::vector<RebuildCandidate> out;
  for (const auto& shard : shards_) {
    out.insert(out.end(), shard->candidates.begin(), shard->candidates.end());
  }
  return out;
}

void Fleet::collect_candidates(Shard& shard, std::uint64_t tick) {
  // Between a shard's tick and the next tick's selection nothing changes a
  // member (crash restarts happen inside process_tenant, and the injection
  // contexts do not touch tenants), so this read equals a scan at select.
  shard.candidates.clear();
  for (const std::uint64_t id : shard.members) {
    const Slot& slot = slots_[id];
    if (slot.ladder.condition == TenantCondition::kQuarantined) continue;
    const Tenant& t = *slot.tenant;
    if (!t.due(tick)) continue;
    shard.candidates.push_back(
        {id, t.staleness_ticks(tick), t.health(),
         slot.ladder.condition == TenantCondition::kProbation});
  }
}

void Fleet::run_shard_tick(Shard& shard, std::uint64_t tick,
                           const std::vector<std::uint64_t>& grants) {
  const double now =
      static_cast<double>(tick + 1) * config_.schedule.t_data;

  double severity = 0.0;
  if (config_.faults != nullptr) {
    severity = config_.faults->stall_severity(shard.id, tick);
  }
  if (severity > 0.0) stall_spin(severity);

  ov::LoadSignals signals;
  for (const std::uint64_t id : shard.members) {
    signals.ingest_backlog += static_cast<double>(
        slots_[id].tenant->server().pending_intervals());
  }
  signals.cpu_pressure = severity;
  const ov::PressureLevel level = shard.governor.update(now, signals);
  if (level == ov::PressureLevel::kEmergency) {
    shard.cancel.request_cancel();
  } else {
    shard.cancel.reset();
  }

  for (const std::uint64_t id : shard.members) {
    const bool granted =
        std::binary_search(grants.begin(), grants.end(), id);
    process_tenant(shard, slots_[id], tick, granted);
  }
  collect_candidates(shard, tick + 1);
}

void Fleet::process_tenant(Shard& shard, Slot& slot, std::uint64_t tick,
                           bool granted) {
  Tenant& t = *slot.tenant;
  const fault::FleetFaultPlan* plan = config_.faults;

  if (plan != nullptr) {
    const std::size_t cut = plan->journal_truncation_at(t.id(), tick);
    if (cut > 0 && t.durable()) {
      const auto segments = durable::journal_segments(t.config().dir);
      if (!segments.empty()) fault::truncate_tail(segments.back(), cut);
    }
    if (plan->crash_at(t.id(), tick)) {
      const durable::RecoveryReport report = t.restart(tick);
      ++shard.crash_recoveries;
      ++shard.restarts;
      resync_strike_baselines(slot);
      if (report.replay.skipped_crc > 0 || report.replay.torn_tails > 0 ||
          report.malformed_payloads > 0) {
        // Recovery found damaged journal records: the window may be
        // missing intervals, so the rebuilt model is suspect.
        quarantine(slot);
      }
    }
  }

  if (slot.ladder.condition == TenantCondition::kQuarantined) {
    // Fully isolated: no ingest, no rebuild slot. The manager's LKG
    // snapshot keeps serving queries.
    ++slot.ladder.ticks_in_state;
    if (slot.ladder.ticks_in_state >= config_.ladder.quarantine_ticks) {
      slot.ladder.condition = TenantCondition::kProbation;
      slot.ladder.ticks_in_state = 0;
      slot.ladder.strikes = 0;
      resync_strike_baselines(slot);
    }
    return;
  }

  {
    fault::InjectionKeyScope scope(t.injection_key());
    t.ingest_tick(tick);
    if (granted && t.try_rebuild(tick)) ++shard.rebuilds;
  }

  // Strike = this tick surfaced new quarantined measurement values or a
  // new failed (guarded) reconstruction.
  const std::size_t quarantined = t.server().quarantined_values();
  const std::size_t failed = t.manager().failed_reconstructions();
  const bool strike = quarantined > slot.ladder.base_quarantined ||
                      failed > slot.ladder.base_failed;
  slot.ladder.base_quarantined = quarantined;
  slot.ladder.base_failed = failed;
  if (strike) {
    ++slot.ladder.strikes;
  } else {
    slot.ladder.strikes = 0;
  }

  if (slot.ladder.condition == TenantCondition::kProbation) {
    if (strike) {
      quarantine(slot);
      return;
    }
    ++slot.ladder.ticks_in_state;
    if (slot.ladder.ticks_in_state >= config_.ladder.probation_ticks) {
      slot.ladder.condition = TenantCondition::kHealthy;
      slot.ladder.ticks_in_state = 0;
      ++slot.ladder.readmissions;
    }
  } else if (slot.ladder.strikes >= config_.ladder.strike_threshold) {
    quarantine(slot);
  }
}

void Fleet::quarantine(Slot& slot) {
  slot.ladder.condition = TenantCondition::kQuarantined;
  slot.ladder.ticks_in_state = 0;
  slot.ladder.strikes = 0;
  ++slot.ladder.quarantine_events;
}

void Fleet::resync_strike_baselines(Slot& slot) {
  slot.ladder.base_quarantined = slot.tenant->server().quarantined_values();
  slot.ladder.base_failed = slot.tenant->manager().failed_reconstructions();
}

FleetStatus Fleet::status() const {
  FleetStatus out;
  out.ticks = tick_;
  out.tenants = slots_.size();
  out.shards = shards_.size();
  out.scheduler_granted = scheduler_.granted();
  out.scheduler_deferred = scheduler_.deferred();

  const std::uint64_t last_tick = tick_ == 0 ? 0 : tick_ - 1;
  std::vector<double> staleness;
  staleness.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    switch (slot.ladder.condition) {
      case TenantCondition::kHealthy: ++out.healthy; break;
      case TenantCondition::kProbation: ++out.probation; break;
      case TenantCondition::kQuarantined: ++out.quarantined; break;
    }
    switch (slot.tenant->health()) {
      case core::ModelHealth::kNone: ++out.health_none; break;
      case core::ModelHealth::kFresh: ++out.health_fresh; break;
      case core::ModelHealth::kStale: ++out.health_stale; break;
      case core::ModelHealth::kFallback: ++out.health_fallback; break;
      case core::ModelHealth::kDegraded: ++out.health_degraded; break;
    }
    out.quarantine_events += slot.ladder.quarantine_events;
    out.readmissions += slot.ladder.readmissions;
    out.governor_deferred +=
        slot.tenant->manager().deferred_reconstructions();
    out.aborted_rebuilds += slot.tenant->manager().aborted_reconstructions();
    if (tick_ > 0) {
      staleness.push_back(
          static_cast<double>(slot.tenant->staleness_ticks(last_tick)));
    }
  }
  if (!staleness.empty()) {
    std::sort(staleness.begin(), staleness.end());
    const std::size_t n = staleness.size();
    out.staleness_p50_ticks = staleness[(n - 1) / 2];
    out.staleness_p99_ticks = staleness[std::min(n - 1, (n * 99) / 100)];
    out.staleness_max_ticks = staleness.back();
  }

  for (const auto& shard : shards_) {
    ShardStatus ss;
    ss.shard = shard->id;
    ss.tenants = shard->members.size();
    ss.governor_level = ov::to_string(shard->governor.level());
    ss.rebuilds = shard->rebuilds;
    ss.restarts = shard->restarts;
    for (const std::uint64_t id : shard->members) {
      const Tenant& t = *slots_[id].tenant;
      ss.governor_deferred += t.manager().deferred_reconstructions();
      ss.aborted_rebuilds += t.manager().aborted_reconstructions();
      ss.shed_intervals += t.server().shed_intervals();
    }
    out.crash_recoveries += shard->crash_recoveries;
    out.rebuilds += shard->rebuilds;
    out.shard_status.push_back(std::move(ss));
  }
  return out;
}

}  // namespace kertbn::fleet
