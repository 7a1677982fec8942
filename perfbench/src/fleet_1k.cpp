/// \file fleet_1k.cpp
/// Workload `fleet_1k`: a Fleet of 1024 ephemeral tenants on 4 shards,
/// shard-parallel, with a rebuild budget of tenants / 4 per tick and no
/// faults. Each episode runs a freshly built fleet for a fixed number of
/// ticks; only Fleet::run_tick is timed.

#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "fleet/fleet.hpp"
#include "fleet/workload.hpp"
#include "obs/metrics.hpp"

namespace kertbn::perfbench {
namespace {

using fleet::Fleet;

constexpr std::size_t kTenants = 1024;
constexpr std::size_t kShards = 4;
constexpr std::size_t kEpisodeTicks = 192;  // 32 T_CON at alpha = 6
constexpr std::size_t kSoloTenants = 8;

Fleet::Config make_config(std::uint64_t seed, bool parallel) {
  Fleet::Config cfg;
  cfg.tenants = kTenants;
  cfg.shards = kShards;
  cfg.seed = seed;
  cfg.schedule.alpha_model = 6;
  cfg.scheduler.max_rebuilds_per_tick = kTenants / 4;
  cfg.parallel = parallel;
  return cfg;
}

struct Episode {
  Samples tick_us;
  Samples fresh_ms;  ///< Due until the tenant's new snapshot is published.
  double ticks_s = 0.0;
  std::uint64_t failed_rebuilds = 0;
  fleet::FleetStatus status;
  int max_level = 0;
};

/// Runs \p fleet for kEpisodeTicks ticks. Between ticks (outside the timed
/// region) it notes which tenants became due and which published a new
/// model version, so freshness is measured from the tick a tenant became
/// due to the end of the tick that published its rebuild.
Episode run_episode(Fleet& fleet, Tracer& tracer) {
  Episode e;
  std::vector<std::int64_t> due_since(kTenants, -1);
  std::vector<std::size_t> version(kTenants, 0);
  std::vector<std::uint64_t> newly_due;
  for (std::size_t t = 0; t < kEpisodeTicks; ++t) {
    const std::uint64_t tick = fleet.ticks();
    newly_due.clear();
    for (std::uint64_t id = 0; id < kTenants; ++id) {
      if (due_since[id] < 0 && fleet.tenant(id).due(tick)) {
        newly_due.push_back(id);
      }
    }
    const std::uint64_t start = now_ns();
    for (std::uint64_t id : newly_due) due_since[id] = std::int64_t(start);
    {
      Tracer::Scope span(tracer, Layer::kTick);
      fleet.run_tick();
    }
    const std::uint64_t end = now_ns();
    e.tick_us.add(double(end - start) * 1e-3);
    e.ticks_s += double(end - start) * 1e-9;
    for (std::uint64_t id = 0; id < kTenants; ++id) {
      const std::size_t v = fleet.tenant(id).manager().version();
      if (v != version[id]) {
        version[id] = v;
        if (due_since[id] >= 0) {
          e.fresh_ms.add(double(end - std::uint64_t(due_since[id])) * 1e-6);
          due_since[id] = -1;
        }
      }
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      e.max_level =
          std::max(e.max_level, int(fleet.shard_governor(s).level()));
    }
  }
  e.status = fleet.status();
  for (std::uint64_t id = 0; id < kTenants; ++id) {
    const auto& m = fleet.tenant(id).manager();
    e.failed_rebuilds += m.failed_reconstructions();
  }
  return e;
}

std::uint64_t shed_intervals(const fleet::FleetStatus& s) {
  std::uint64_t n = 0;
  for (const auto& shard : s.shard_status) n += shard.shed_intervals;
  return n;
}

/// Per-tenant-tick cost of kSoloTenants tenants driven outside any fleet
/// through ingest_tick / due / try_rebuild, in seconds.
double solo_tenant_tick_s(const Fleet::Config& cfg) {
  std::vector<std::unique_ptr<fleet::Tenant>> solo;
  for (std::uint64_t id = 0; id < kSoloTenants; ++id) {
    solo.push_back(
        std::make_unique<fleet::Tenant>(Fleet::make_tenant_config(cfg, id, "")));
  }
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t tick = 0; tick < kEpisodeTicks; ++tick) {
    for (auto& t : solo) {
      t->ingest_tick(tick);
      if (t->due(tick)) t->try_rebuild(tick);
    }
  }
  return seconds_since(t0) / double(kEpisodeTicks * kSoloTenants);
}

}  // namespace

RunResult run_fleet_1k(const RunOptions& opt) {
  RunResult r;
  const Fleet::Config cfg = make_config(opt.seed, /*parallel=*/true);
  // Fleet sizes its pool as min(shards, hardware threads).
  const std::size_t pool_threads = std::min(kShards, opt.threads);
  // A tick keeps every pool thread busy: the probe is as wide. Stretches
  // as measured (see HostScaling).
  const HostScaling scaling{pool_threads, 3.0, 3.0, 3.0};
  Tracer off(false);

  // Set-up: build the fleet (1024 tenant pipelines, shards, pool) and run
  // one warm-up episode on it.
  const double setup_s = median_setup_seconds(scaling, [&] {
    Fleet warm(cfg);
    run_episode(warm, off);
  });

  // Correctness, untimed: without faults nobody is quarantined, and the
  // shard-parallel fleet matches a serial run of the same config. One
  // fleet is alive at a time, so the peak resident set read below is that
  // of the workload's single fleet.
  {
    Episode a;
    {
      Fleet par(cfg);
      a = run_episode(par, off);
    }
    Fleet serial(make_config(opt.seed, /*parallel=*/false));
    const Episode b = run_episode(serial, off);
    r.check(a.status.quarantined == 0 && a.status.quarantine_events == 0 &&
                b.status.quarantine_events == 0,
            "fleet_1k: a tenant was quarantined without faults");
    r.check(a.status.rebuilds == b.status.rebuilds,
            "fleet_1k: rebuild count differs from the serial run");
    r.check(a.status.staleness_p50_ticks == b.status.staleness_p50_ticks &&
                a.status.staleness_p99_ticks == b.status.staleness_p99_ticks &&
                a.status.staleness_max_ticks == b.status.staleness_max_ticks,
            "fleet_1k: staleness differs from the serial run");
  }
  const double setup_rss_mb = peak_rss_mb();  // before the timed loop

  // Episodes until the budget is spent, each on a freshly built fleet
  // (construction is outside the timing). A traced run interleaves each
  // untraced episode with a traced one and a serial one.
  Tracer tracer(true);
  obs::MetricsRegistry::instance().reset();
  std::vector<Episode> untraced, traced, serial;
  std::vector<HostSample> untraced_host;
  HostProbe probe(scaling.probe_width);
  const double budget_s = opt.trace ? opt.seconds / 3 : opt.seconds;
  const std::uint64_t start = now_ns();
  while (untraced.size() < 2 || seconds_since(start) < budget_s) {
    {
      Fleet f(cfg);
      probe.before();
      untraced.push_back(run_episode(f, off));
      untraced_host.push_back(probe.after());
    }
    if (!opt.trace) continue;
    {
      Fleet f(cfg);
      obs::set_enabled(true);
      traced.push_back(run_episode(f, tracer));
      obs::set_enabled(false);
    }
    Fleet f(make_config(opt.seed, /*parallel=*/false));
    serial.push_back(run_episode(f, off));
  }

  auto ticks_s = [](const std::vector<Episode>& eps) {
    double s = 0.0;
    for (const Episode& e : eps) s += e.ticks_s;
    return s;
  };
  const double par_s = ticks_s(untraced);
  const double tenant_ticks = double(untraced.size() * kEpisodeTicks * kTenants);
  std::uint64_t shed = 0, failed_rebuilds = 0, aborted = 0, rebuilds = 0;
  for (const Episode& e : untraced) {
    shed += shed_intervals(e.status);
    failed_rebuilds += e.failed_rebuilds;
    aborted += e.status.aborted_rebuilds;
    rebuilds += e.status.rebuilds;
  }
  r.attempted = std::uint64_t(tenant_ticks) + rebuilds + failed_rebuilds + aborted;
  r.failed = shed + failed_rebuilds + aborted;

  if (!opt.trace) {
    ScaledPasses scaled(scaling);
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      const Episode& e = untraced[i];
      scaled.add({e.ticks_s, double(e.tick_us.count() * kTenants), e.tick_us,
                  e.fresh_ms, untraced_host[i]});
    }
    r.add("setup_s", setup_s, "s", kSetupRuns,
          "setup_s, median of " + std::to_string(kSetupRuns) +
              " set-ups scaled to the reference host");
    r.add("peak_rss_mb", setup_rss_mb, "MB", 1, "peak_rss_mb, through set-up");
    scaled.report(r, "fleet.tenant_ticks_per_s", "fleet.tick_us", 1.0,
                  "fleet.due_to_published_ms", 1.0);
    r.notes.push_back("fleet.staleness_p99_ticks = " +
                      std::to_string(untraced.front().status.staleness_p99_ticks) +
                      " ticks (n=" + std::to_string(kTenants) +
                      " tenants, end of a " + std::to_string(kEpisodeTicks) +
                      "-tick episode)");
    return r;
  }

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  const double traced_s = ticks_s(traced);
  const double serial_s = ticks_s(serial);
  const double solo_s = solo_tenant_tick_s(cfg);
  const double in_fleet_serial_s = serial_s / tenant_ticks;

  Tracer gen_tracer(true);
  for (std::uint64_t id = 0; id < kSoloTenants; ++id) {
    const fleet::TenantWorkload workload(
        Fleet::make_tenant_config(cfg, id, "").workload);
    for (std::uint64_t tick = 0; tick < kEpisodeTicks; ++tick) {
      Tracer::Scope span(gen_tracer, Layer::kWorkloadGen);
      r.check(!workload.reports(tick).empty(),
              "fleet_1k: a tenant workload produced no reports");
    }
  }

  add_layer_metrics(tracer, snap, r);
  const obs::HistogramStats& run = histogram(snap, "pool.task_run_ns");
  r.add("pool.busy_share",
        ratio(double(run.sum) * 1e-9, traced_s * double(pool_threads)),
        "share", run.count);
  r.add("fleet.parallel_speedup", ratio(serial_s, par_s), "x",
        untraced.size() * kEpisodeTicks);
  r.add("fleet.overhead_ratio", ratio(in_fleet_serial_s, solo_s), "x",
        kSoloTenants * kEpisodeTicks);
  const Samples& gen = gen_tracer.total_ns(Layer::kWorkloadGen);
  r.add("fleet.workload_gen_us", gen.mean() * 1e-3, "us", gen.count());

  Samples rebuilds_per_tick, deferred, staleness;
  int max_level = 0;
  for (const Episode& e : untraced) {
    rebuilds_per_tick.add(double(e.status.rebuilds) / double(kEpisodeTicks));
    deferred.add(
        double(e.status.scheduler_deferred + e.status.governor_deferred));
    staleness.add(e.status.staleness_p99_ticks);
    max_level = std::max(max_level, e.max_level);
  }
  r.add("fleet.rebuilds_per_tick", rebuilds_per_tick.median(), "count",
        untraced.size());
  r.add("fleet.deferred_rebuilds", deferred.median(), "count",
        untraced.size());
  r.add("fleet.staleness_p99_ticks", staleness.median(), "ticks",
        untraced.size());
  r.add("overload.max_level", double(max_level), "level", untraced.size());
  r.add("trace.overhead_share", (traced_s - par_s) / par_s, "share",
        traced.size());

  // Predict, then measure. Two resources serve a tick: the pool's
  // pool_threads servers, whose demand per tenant-tick is the solo
  // tenant's cost, and the driver thread, which carries everything a
  // serial fleet tick spends beyond the solo work (prelude, scheduling,
  // ladder bookkeeping). The utilization law bounds tenant-ticks/s at
  // 1 / (the larger per-server demand).
  const double pool_demand = solo_s / double(pool_threads);
  const double driver_demand = std::max(0.0, in_fleet_serial_s - solo_s);
  const double bottleneck = std::max(pool_demand, driver_demand);
  r.add("fleet.predicted_tenant_ticks_per_s",
        bottleneck > 0.0 ? 1.0 / bottleneck : 0.0, "1/s",
        kSoloTenants * kEpisodeTicks);
  r.add("fleet.measured_tenant_ticks_per_s", tenant_ticks / par_s, "1/s",
        untraced.size() * kEpisodeTicks);
  return r;
}

}  // namespace kertbn::perfbench
