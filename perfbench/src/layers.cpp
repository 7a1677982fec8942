#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace kertbn::perfbench {

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

/// One run of the probe kernel: fill and sort \p buffer.
void probe_kernel(std::vector<double>& buffer) {
  std::uint64_t y = 0x9E3779B97F4A7C15ull;
  for (double& e : buffer) {
    y = y * 6364136223846793005ull + 1442695040888963407ull;
    e = double(y >> 11);
  }
  std::sort(buffer.begin(), buffer.end());
  // Publish the result so the work cannot be optimized away.
  volatile double sink = buffer[buffer.size() / 2];
  (void)sink;
}

}  // namespace

double HostProbe::probe_ns() {
  double best = 0.0;
  for (int k = 0; k < 5; ++k) {
    // Helpers start, spin until the go signal, and each note when they
    // end; a round lasts from the signal until the last thread is done.
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> last_end{0};
    const auto run = [&](std::vector<double>& buffer) {
      probe_kernel(buffer);
      const std::uint64_t end = now_ns();
      std::uint64_t seen = last_end.load();
      while (seen < end && !last_end.compare_exchange_weak(seen, end)) {
      }
    };
    std::vector<std::thread> helpers;
    for (std::size_t i = 1; i < buffers_.size(); ++i) {
      helpers.emplace_back([&, i] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        run(buffers_[i]);
      });
    }
    while (ready.load() + 1 < buffers_.size()) std::this_thread::yield();
    const std::uint64_t start = now_ns();
    go.store(true, std::memory_order_release);
    run(buffers_[0]);
    for (std::thread& t : helpers) t.join();
    const double round = double(last_end.load() - start);
    best = k == 0 ? round : std::min(best, round);
  }
  return best;
}

CpuTicks cpu_ticks() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string label;
  double f[8] = {};
  in >> label;
  for (double& v : f) in >> v;
  if (!in || label != "cpu") return {};
  return {f[0] + f[1] + f[2] + f[5] + f[6], f[7]};
}

void add_layer_metrics(const Tracer& t, const obs::MetricsSnapshot& s,
                       RunResult& r) {
  const auto pct = [](const Samples& x, double q, double scale) {
    return x.percentile(q) * scale;
  };
  const Samples& offer_self = t.self_ns(Layer::kOffer);
  const Samples& append = t.total_ns(Layer::kAppend);
  const Samples& ckpt = t.total_ns(Layer::kCheckpoint);
  const Samples& governor = t.total_ns(Layer::kGovernor);
  const Samples& observe = t.total_ns(Layer::kObserveRow);
  const Samples& rebuild = t.total_ns(Layer::kRebuild);
  const Samples& quality = t.total_ns(Layer::kQualityRow);
  const Samples& acquire = t.total_ns(Layer::kAcquire);

  r.add("monitoring.offer_self_us_p50", pct(offer_self, 0.5, 1e-3), "us",
        offer_self.count());
  r.add("durable.append_us_p50", pct(append, 0.5, 1e-3), "us", append.count());
  r.add("durable.append_us_p99", pct(append, 0.99, 1e-3), "us",
        append.count());
  r.add("durable.checkpoint_ms", pct(ckpt, 0.5, 1e-6), "ms", ckpt.count());
  r.add("overload.update_us", pct(governor, 0.5, 1e-3), "us",
        governor.count());
  r.add("kert.observe_row_us_p50", pct(observe, 0.5, 1e-3), "us",
        observe.count());
  r.add("kert.rebuild_ms_p50", pct(rebuild, 0.5, 1e-6), "ms", rebuild.count());
  r.add("kert.rebuild_ms_p99", pct(rebuild, 0.99, 1e-6), "ms",
        rebuild.count());

  const double rebuilds = double(s.counter("kert.reconstruct.count"));
  const double touched = double(s.counter("kert.rows_touched"));
  r.add("kert.incremental_share",
        ratio(double(s.counter("kert.reconstruct.incremental_hits")),
              rebuilds),
        "share", std::size_t(rebuilds));
  r.add("kert.rows_touched_per_rebuild", ratio(touched, rebuilds), "rows",
        std::size_t(rebuilds));
  r.add("kert.useful_row_share",
        ratio(double(s.counter("kert.rows_observed")), touched), "share",
        std::size_t(rebuilds));
  const obs::HistogramStats& snap_build =
      histogram(s, "span.kert.snapshot.build");
  r.add("kert.snapshot_build_ms", snap_build.mean() * 1e-6, "ms",
        snap_build.count);
  r.add("quality.observe_row_us_p50", pct(quality, 0.5, 1e-3), "us",
        quality.count());

  const double queries = double(s.counter("kert.query.count"));
  const double calibrations = double(s.counter("kert.query.calibrations"));
  const double pruned = double(s.counter("kert.query.pruned_routes"));
  const double tree = double(s.counter("kert.query.tree_routes"));
  const double hits = double(s.counter("kert.query.plan_hits"));
  const double misses = double(s.counter("kert.query.plan_misses"));
  r.add("query.acquire_ns", pct(acquire, 0.5, 1.0), "ns", acquire.count());
  r.add("query.calibrations_per_query", ratio(calibrations, queries), "count",
        std::size_t(queries));
  r.add("query.dirty_cliques_per_calibration",
        ratio(double(s.counter("kert.query.dirty_cliques")), calibrations),
        "count", std::size_t(calibrations));
  r.add("query.pruned_route_share", ratio(pruned, pruned + tree), "share",
        std::size_t(pruned + tree));
  r.add("query.plan_hit_ratio", ratio(hits, hits + misses), "share",
        std::size_t(hits + misses));
  const obs::HistogramStats& calibrate = histogram(s, "span.jt.calibrate");
  r.add("bn.calibrate_us_p50", double(calibrate.quantile(0.5)) * 1e-3, "us",
        calibrate.count);

  const obs::HistogramStats& wait = histogram(s, "pool.task_wait_ns");
  r.add("pool.task_wait_us_p50", double(wait.quantile(0.5)) * 1e-3, "us",
        wait.count);
  r.add("pool.task_wait_us_p99", double(wait.quantile(0.99)) * 1e-3, "us",
        wait.count);
}

}  // namespace kertbn::perfbench
