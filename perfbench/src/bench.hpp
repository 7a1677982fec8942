#pragma once
/// \file bench.hpp
/// Shared vocabulary of the kertbn benchmark driver: sample sets, the
/// benchmark's own span tracer, metric records, and the per-workload run
/// interface. Workloads feed generated inputs only through the library's
/// public entry points; everything here lives on the benchmark side.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace kertbn::perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// A set of timings (or other values) with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
  }
  double mean() const { return empty() ? 0.0 : sum() / double(count()); }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double percentile(double q) const {
    if (empty()) return 0.0;
    std::vector<double> sorted = values_;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::size_t idx = std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
    std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
    return sorted[idx];
  }
  double median() const { return percentile(0.5); }
  const std::vector<double>& values() const { return values_; }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

 private:
  std::vector<double> values_;
};

/// Layers the benchmark wraps with its own spans. Each span sits around one
/// public call (or one hook the benchmark installs); nesting follows the
/// call tree, so a layer's self time is its span minus its child spans.
enum class Layer : std::size_t {
  kOffer,         ///< ManagementServer::offer_interval (monitoring)
  kAppend,        ///< encode_ingest_into + JournalWriter::append (durable)
  kObserveRow,    ///< ModelManager::observe_row (kert / WindowStats)
  kQualityRow,    ///< ModelQualityMonitor::observe_row (obs.quality)
  kGovernor,      ///< PressureGovernor::update (overload)
  kRebuild,       ///< ModelManager::maybe_reconstruct (kert)
  kCheckpoint,    ///< capture + CheckpointStore::write + prune (durable)
  kAcquire,       ///< SnapshotSlot::acquire (query engine)
  kPost,          ///< QueryEngine::post (query engine)
  kTick,          ///< Fleet::run_tick (fleet)
  kWorkloadGen,   ///< TenantWorkload::reports (fleet load generation)
  kCount,
};

/// In-memory span recorder for the driver thread. Off, a scope is one
/// branch; on, it is two clock reads. Spans are kept as per-layer total and
/// self durations (nanoseconds) and summarized when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer)
        : tracer_(tracer.on_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) tracer_->open(layer);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  const Samples& total_ns(Layer layer) const {
    return total_[std::size_t(layer)];
  }
  const Samples& self_ns(Layer layer) const {
    return self_[std::size_t(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  void open(Layer layer) { stack_.push_back({layer, now_ns(), 0}); }
  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = now_ns() - f.start_ns;
    total_[std::size_t(f.layer)].add(double(dur));
    self_[std::size_t(f.layer)].add(double(dur - std::min(dur, f.child_ns)));
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  bool on_;
  std::vector<Frame> stack_;
  std::array<Samples, std::size_t(Layer::kCount)> total_;
  std::array<Samples, std::size_t(Layer::kCount)> self_;
};

/// One reported number: contract name, value, unit, and the sample count it
/// summarizes. `label` is the path-level name printed beside it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string label;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< Worker threads the workload may start.
  std::string work_dir;     ///< Scratch directory inside the checkout.
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  ///< Correctness-check messages.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Extra human-readable lines.

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (std::find(failures.begin(), failures.end(), what) == failures.end()) {
      failures.push_back(what);
    }
  }
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string label = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(label)});
  }
};

/// The kernel's CPU accounting since boot, summed over all CPUs, in clock
/// ticks: time spent running (user, nice, system, irq, softirq) and time
/// stolen — a vCPU wanted to run but the hypervisor ran something else.
/// Zeros where /proc/stat cannot be read.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};
CpuTicks cpu_ticks();

/// The probe time the reported figures are scaled to: 1 ms (the probe
/// takes 1.1-1.5 ms on the development host). See ScaledPasses.
inline constexpr double kProbeReferenceNs = 1e6;

/// How the host ran during one pass: the probe timed on either side
/// (geometric mean), and the share of the time this VM's vCPUs wanted to
/// run that the hypervisor took.
struct HostSample {
  double probe_ns = kProbeReferenceNs;
  double steal_share = 0.0;
};

/// How a workload's times are scaled to the reference host (see
/// ScaledPasses): the width of its probe, and how much steal stretches
/// each of its figures.
///
/// The hypervisor takes a vCPU away for milliseconds at a time. A time
/// measured while it took a share s of the time the vCPUs wanted to run
/// is divided by 1 + stretch * s. A single-threaded operation loses the
/// stolen time itself: stretch 1. An operation spread over a pool waits
/// for whichever of its vCPUs is gone, so it stretches more; its stretch
/// is measured. On the development host, regressing pass figures on the
/// pass's steal share (0 to 0.5 in its busy windows) gave the same
/// stretch run after run: eDiaMoND qps 2.2-2.5, query batch latency
/// 4.0-5.0, publish freshness 0.6-1.0 (that thread runs while the pool's
/// vCPUs are the ones woken and stolen); a 4-shard fleet tick 2.1-4.0.
struct HostScaling {
  std::size_t probe_width = 1;  ///< Threads the workload keeps busy.
  double throughput_stretch = 1.0;
  double latency_stretch = 1.0;
  double freshness_stretch = 1.0;
};

/// Multiplier taking a time measured on a host whose probe took
/// \p probe_ns and whose vCPUs lost \p steal_share of their time to the
/// reference host: no steal and a probe of kProbeReferenceNs.
inline double host_speed(double probe_ns, double steal_share,
                         double stretch) {
  return kProbeReferenceNs / probe_ns / (1.0 + stretch * steal_share);
}

/// Measures the HostSample of a pass: call before() right before the pass
/// and after() right after it.
///
/// The probe is a fixed CPU kernel owned by the benchmark and built with
/// its flags, so no change to the library moves it: \p width threads at
/// once each fill and sort 16k doubles in a buffer of their own, allocated
/// once here, so neither the allocator nor the workload's heap moves it
/// either. \p width is as many threads as the workload keeps busy: cores
/// slow each other down (shared caches and memory, hyperthread siblings
/// on the host). A probe is the fastest of five rounds, each timed until
/// its last thread is done, in nanoseconds: how fast the cores execute
/// when nothing takes them away (steal is measured on its own).
class HostProbe {
 public:
  explicit HostProbe(std::size_t width)
      : buffers_(std::max<std::size_t>(1, width),
                 std::vector<double>(16384)) {}
  void before() {
    before_ns_ = probe_ns();
    before_ticks_ = cpu_ticks();
  }
  HostSample after() {
    const CpuTicks t = cpu_ticks();
    const double busy = t.busy - before_ticks_.busy;
    const double steal = t.steal - before_ticks_.steal;
    HostSample h;
    h.probe_ns = std::sqrt(before_ns_ * probe_ns());
    h.steal_share = std::clamp(ratio(steal, busy + steal), 0.0, 0.9);
    return h;
  }

 private:
  double probe_ns();

  std::vector<std::vector<double>> buffers_;
  double before_ns_ = kProbeReferenceNs;
  CpuTicks before_ticks_;
};

/// One pass (or fleet episode) as the end-to-end metrics see it.
struct PassRecord {
  double wall_s = 0.0;  ///< Timed wall time of the pass.
  double work = 0.0;    ///< Operations completed (throughput numerator).
  Samples latency;      ///< Per-operation latencies.
  Samples freshness;    ///< Per-publish model-freshness latencies.
  HostSample host;      ///< How fast the host ran during the pass.
};

/// The end-to-end figures of a run: every pass scaled to a reference host
/// by host_speed(), then pooled.
///
/// The development host is a shared 4-vCPU VM whose speed drifts with its
/// neighbours' load in two ways.
///   - Its cores execute slower at times: a fixed probe ran up to 1.8x
///     slower in some 15-second windows than in others, and every timing
///     moved with it by ~20% between consecutive 30-second runs. Each
///     pass is scaled by the median probe over all the passes of the run
///     (one probe is noisier than the workload itself on a calm host).
///   - The hypervisor takes vCPUs away: in busy windows up to half of the
///     time they wanted to run, and a pool-based workload, which waits for
///     its slowest thread, ran up to 2.8x slower. The probe, the fastest of
///     five short rounds, does not see that; each pass is scaled by its
///     own steal share (it changes from one second to the next) with the
///     workload's stretches.
/// Throughput is all the work over all the scaled time; the latency mean
/// and percentiles come from all the scaled samples. No pass is dropped,
/// so a change that slows some passes shows in full. The printed labels
/// carry the unscaled figure, the probe and the mean steal share.
class ScaledPasses {
 public:
  explicit ScaledPasses(HostScaling scaling) : scaling_(scaling) {}
  void add(PassRecord pass) { passes_.push_back(std::move(pass)); }

  /// The five shared end-to-end metrics, plus notes (printed, not gated).
  /// Latency and freshness are gated on their mean and p90; their p50 and
  /// p99 are printed. The p50 of a bimodal distribution sits on the cliff
  /// between its modes: the report path's ingest latencies (a light mode
  /// near 25 us and a heavy one near 60-120 us, about half the intervals
  /// each) and eDiaMoND's publish times both moved their p50 by 0.2-0.3
  /// between runs of one seed while the mean moved by a few percent.
  /// \p latency_scale / \p freshness_scale convert the samples to us / ms.
  void report(RunResult& r, const std::string& throughput_label,
              const std::string& latency_label, double latency_scale,
              const std::string& freshness_label,
              double freshness_scale) const {
    Samples probes;
    double work = 0.0, wall_s = 0.0, steal_s = 0.0;
    for (const PassRecord& p : passes_) {
      probes.add(p.host.probe_ns);
      work += p.work;
      wall_s += p.wall_s;
      steal_s += p.wall_s * p.host.steal_share;
    }
    const double probe = probes.median();
    double scaled_s = 0.0;
    Samples latency, raw_latency, freshness, raw_freshness;
    for (const PassRecord& p : passes_) {
      const auto speed = [&](double stretch) {
        return host_speed(probe, p.host.steal_share, stretch);
      };
      scaled_s += p.wall_s * speed(scaling_.throughput_stretch);
      for (double v : p.latency.values()) {
        latency.add(v * speed(scaling_.latency_stretch));
      }
      for (double v : p.freshness.values()) {
        freshness.add(v * speed(scaling_.freshness_stretch));
      }
      raw_latency.append(p.latency);
      raw_freshness.append(p.freshness);
    }
    const std::string of =
        " over " + std::to_string(passes_.size()) + " passes, " +
        "probe " + std::to_string(probe * 1e-6) + " ms" +
        ", steal " + std::to_string(steal_s / wall_s);
    const auto raw = [](double v) { return ", unscaled " + std::to_string(v); };
    r.add("throughput_per_s", work / scaled_s, "1/s", std::size_t(work),
          throughput_label + of + raw(work / wall_s));
    struct Figure {
      const char* suffix;
      double q;  ///< Percentile, or 0 for the mean.
      bool gated;
    };
    constexpr Figure kFigures[] = {{"_mean", 0.0, true},
                                   {"_p90", 0.90, true},
                                   {"_p50", 0.50, false},
                                   {"_p99", 0.99, false}};
    const auto figures = [&](const std::string& name, const Samples& x,
                             const Samples& unscaled, double scale,
                             const char* unit, const std::string& label) {
      const auto value = [&](const Samples& s, double q) {
        return (q == 0.0 ? s.mean() : s.percentile(q)) * scale;
      };
      for (const Figure& f : kFigures) {
        const double v = value(x, f.q);
        const std::string how = of + raw(value(unscaled, f.q));
        if (f.gated) {
          r.add(name + f.suffix, v, unit, x.count(), label + f.suffix + how);
        } else {
          r.notes.push_back(label + f.suffix + " = " + std::to_string(v) +
                            " " + unit + " (n=" + std::to_string(x.count()) +
                            how + "; not gated)");
        }
      }
    };
    figures("latency_us", latency, raw_latency, latency_scale, "us",
            latency_label);
    figures("freshness_ms", freshness, raw_freshness, freshness_scale, "ms",
            freshness_label);
  }

 private:
  HostScaling scaling_;
  std::vector<PassRecord> passes_;
};

RunResult run_report_scenario(const RunOptions& options);
RunResult run_ediamond_serve(const RunOptions& options);
RunResult run_fleet_1k(const RunOptions& options);

/// Set-ups timed per run; setup_s is their median.
inline constexpr std::size_t kSetupRuns = 5;

/// The setup_s protocol: kSetupRuns timings of \p fn, their median in
/// seconds scaled like ScaledPasses' throughput, by the median probe and
/// the steal share around them.
template <typename Fn>
double median_setup_seconds(const HostScaling& scaling, Fn&& fn) {
  HostProbe probe(scaling.probe_width);
  Samples took, probes;
  double wall_s = 0.0, steal_s = 0.0;
  for (std::size_t i = 0; i < kSetupRuns; ++i) {
    probe.before();
    const std::uint64_t t0 = now_ns();
    fn();
    const double s = seconds_since(t0);
    const HostSample h = probe.after();
    took.add(s);
    probes.add(h.probe_ns);
    wall_s += s;
    steal_s += s * h.steal_share;
  }
  return took.median() * host_speed(probes.median(), steal_s / wall_s,
                                    scaling.throughput_stretch);
}

/// Per-layer metrics every traced run derives the same way: span
/// percentiles from \p tracer and ratios of the registry counters and
/// histograms the library already keeps.
void add_layer_metrics(const Tracer& tracer, const obs::MetricsSnapshot& snap,
                       RunResult& result);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

inline const obs::HistogramStats& histogram(const obs::MetricsSnapshot& s,
                                            std::string_view name) {
  static const obs::HistogramStats kEmpty{};
  const obs::HistogramStats* h = s.histogram(name);
  return h != nullptr ? *h : kEmpty;
}

}  // namespace kertbn::perfbench
