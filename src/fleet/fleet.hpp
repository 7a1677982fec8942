#pragma once
/// \file fleet.hpp
/// Multi-tenant fleet serving with fault isolation (DESIGN §13).
///
/// The fleet shards its tenants across a fixed set of worker shards
/// (tenant id mod shard count). Each shard is a bulkhead: it owns its
/// tenants exclusively, processes them sequentially in ascending-id order,
/// and carries its own PressureGovernor (rebuild admission / thread
/// budget), cancellation source (in-flight rebuild aborts at emergency
/// level), and stall accounting — so overload or faults inside one shard
/// cannot consume another shard's resources. Shards share no mutable
/// state; with `parallel` each tick is one ThreadPool::parallel_for over
/// the shards (the ticking thread runs a shard itself), and the result is
/// bit-identical to the serial order because every tenant's evolution is
/// a pure function of (fleet seed, tenant id, tick, fault plan).
///
/// Per tick the fleet (serially) realizes the fault plan's keyed
/// injection contexts and asks the ReconstructionScheduler which due
/// tenants win a rebuild slot under the global budget, then (in parallel)
/// each shard ingests its tenants' workload intervals, runs granted
/// rebuilds, advances each tenant's health ladder, and collects its
/// members' rebuild candidates for the next tick:
///
///   healthy ──strikes──▶ quarantined ──cooldown──▶ probation ──clean──▶
///   healthy (a strike during probation re-quarantines)
///
/// A quarantined tenant is isolated — no ingest, no rebuild slots — but
/// its last-known-good model snapshot keeps serving (ModelManager's LKG
/// semantics). Strikes come from the counters the pipeline already keeps:
/// quarantined measurement values (poison streams), failed guarded
/// rebuilds, and corruption evidence in a crash recovery's replay.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "durable/journal.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fleet_plan.hpp"
#include "fleet/scheduler.hpp"
#include "fleet/status.hpp"
#include "fleet/tenant.hpp"
#include "overload/cancellation.hpp"
#include "overload/governor.hpp"

namespace kertbn::fleet {

/// Tenant ladder condition (the fleet-level state around ModelHealth).
enum class TenantCondition : std::uint8_t {
  kHealthy = 0,
  kProbation = 1,
  kQuarantined = 2,
};

const char* to_string(TenantCondition condition);

/// See file comment.
class Fleet {
 public:
  struct LadderConfig {
    /// Consecutive strike ticks that trigger quarantine.
    std::size_t strike_threshold = 3;
    /// Ticks a quarantined tenant sits out before probation.
    std::size_t quarantine_ticks = 24;
    /// Clean probation ticks before re-admission to healthy.
    std::size_t probation_ticks = 12;
  };

  struct Config {
    std::size_t tenants = 16;
    std::size_t shards = 4;
    std::uint64_t seed = 1;
    sim::ModelSchedule schedule{};
    std::size_t services = 4;
    /// Root of the per-tenant durable directories (data_root/tenant-<id>);
    /// empty = every tenant is ephemeral.
    std::string data_root;
    std::size_t checkpoint_every = 0;
    durable::FsyncPolicy fsync = durable::FsyncPolicy::kNone;
    std::size_t max_pending = 4;
    /// Attach a per-tenant ModelQualityMonitor.
    bool quality = false;
    /// Run the shards of a tick concurrently, on the ticking thread plus
    /// min(shards, hardware threads) - 1 pool workers (false = serial,
    /// same result).
    bool parallel = true;
    ReconstructionScheduler::Config scheduler{};
    LadderConfig ladder{};
    /// Per-shard governor template. The fleet raises the reconstruction
    /// bucket to at least the shard's tenant count (a deferred rebuild
    /// waits a full T_CON, so a smaller bucket would starve the members
    /// past the token cut every cycle); under pressure the bulkhead binds
    /// through the ladder, which refuses reconstruction past throttled.
    ov::PressureGovernor::Config governor = default_governor_config();
    /// Fault schedule (non-owning; nullptr = clean run). Keyed injection
    /// contexts for poisoned tenants are installed/uninstalled as their
    /// windows open and close.
    const fault::FleetFaultPlan* faults = nullptr;
  };

  static ov::PressureGovernor::Config default_governor_config();

  explicit Fleet(Config config);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const Config& config() const { return config_; }

  /// Runs one fleet tick (every tenant's next T_DATA interval).
  void run_tick();
  void run_ticks(std::size_t n);

  /// Fleet ticks completed so far.
  std::uint64_t ticks() const { return tick_; }

  const Tenant& tenant(std::uint64_t id) const { return *slots_[id].tenant; }
  TenantCondition condition(std::uint64_t id) const {
    return slots_[id].ladder.condition;
  }
  std::uint64_t quarantine_events(std::uint64_t id) const {
    return slots_[id].ladder.quarantine_events;
  }
  std::uint64_t readmissions(std::uint64_t id) const {
    return slots_[id].ladder.readmissions;
  }
  std::size_t shard_of(std::uint64_t id) const {
    return static_cast<std::size_t>(id) % config_.shards;
  }
  const ov::PressureGovernor& shard_governor(std::size_t shard) const {
    return shards_[shard]->governor;
  }
  const ReconstructionScheduler& scheduler() const { return scheduler_; }

  /// The candidates the next run_tick hands the scheduler: every
  /// non-quarantined tenant due at ticks(), shard by shard, each shard's
  /// in ascending id order. The shards collect them at the end of their
  /// tick's work (the constructor for tick 0).
  std::vector<RebuildCandidate> rebuild_candidates() const;

  /// Rollup snapshot (see status.hpp).
  FleetStatus status() const;
  /// status() mirrored into the kert.fleet.* gauges.
  void publish_metrics() const { publish_fleet_metrics(status()); }

  /// The Tenant::Config the fleet would build tenant \p id with —
  /// exposed so tests can drive the identical tenant solo (the recovery
  /// bit-identity proof). Shard hooks (governor/cancel) are left null;
  /// \p dir overrides the derived durable directory.
  static Tenant::Config make_tenant_config(const Config& config,
                                           std::uint64_t id,
                                           std::string dir);

 private:
  struct Ladder {
    TenantCondition condition = TenantCondition::kHealthy;
    std::size_t strikes = 0;  ///< Consecutive strike ticks.
    std::size_t ticks_in_state = 0;
    /// Counter baselines for per-tick strike deltas (re-synced after a
    /// restart replaces the underlying objects).
    std::size_t base_quarantined = 0;
    std::size_t base_failed = 0;
    std::uint64_t quarantine_events = 0;
    std::uint64_t readmissions = 0;
  };

  struct Slot {
    std::unique_ptr<Tenant> tenant;
    Ladder ladder;
  };

  /// Heap-held: the governor's atomics pin its address while the fleet's
  /// shard list stays a plain vector.
  struct Shard {
    Shard(std::size_t shard_id, const ov::PressureGovernor::Config& cfg)
        : id(shard_id), governor(cfg) {}

    std::size_t id = 0;
    ov::PressureGovernor governor;
    ov::CancellationSource cancel;
    std::vector<std::uint64_t> members;  ///< Tenant ids, ascending.
    /// Members' rebuild candidates for the next tick.
    std::vector<RebuildCandidate> candidates;
    std::uint64_t rebuilds = 0;
    std::uint64_t crash_recoveries = 0;
    std::uint64_t restarts = 0;
  };

  void run_shard_tick(Shard& shard, std::uint64_t tick,
                      const std::vector<std::uint64_t>& grants);
  void process_tenant(Shard& shard, Slot& slot, std::uint64_t tick,
                      bool granted);
  void collect_candidates(Shard& shard, std::uint64_t tick);
  void sync_injection_contexts(std::uint64_t tick);
  void quarantine(Slot& slot);
  void resync_strike_baselines(Slot& slot);

  Config config_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ReconstructionScheduler scheduler_;
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t tick_ = 0;
  /// Tenants whose keyed injection context is currently installed.
  std::vector<std::uint64_t> installed_keys_;
};

}  // namespace kertbn::fleet
