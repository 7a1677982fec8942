/// \file ediamond_serve.cpp
/// Workload `ediamond_serve`: the paper's eDiaMoND test-bed stream,
/// pre-recorded, driving a discrete (3-bin) incremental manager while one
/// driver thread serves mixed query batches through QueryEngine on a pool
/// of nproc - 1 threads. Every publish swaps the snapshot under the
/// workers, so each one re-adopts its tree at the next batch.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "bench.hpp"
#include "bn/junction_tree.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "kert/query_engine.hpp"
#include "obs/metrics.hpp"
#include "report_path.hpp"
#include "sosim/synthetic.hpp"
#include "sosim/testbed.hpp"

namespace kertbn::perfbench {
namespace {

constexpr std::size_t kIntervals = 400;
constexpr std::size_t kBatchesPerInterval = 8;
constexpr std::size_t kBatchSize = 32;
constexpr std::size_t kDistinctBatches = 64;
constexpr std::size_t kBins = 3;
constexpr double kArrivalRate = 2.0;
/// One answer in this many is re-derived on a fresh JunctionTree.
constexpr std::uint64_t kSampleEvery = 256;
// T_DATA = 5 s, alpha = 4, K = 3: a publish every fourth interval, 100 per
// pass, between 8 query batches per interval.
const sim::ModelSchedule kSchedule{5.0, 4, 3};

/// One recorded DES run and the query batches served beside it.
struct Served {
  RecordedStream stream;
  std::vector<core::QueryBatch> batches;
};

struct Setup {
  std::unique_ptr<sim::SyntheticEnvironment> env;  ///< Workflow + sharing.
  std::vector<Served> streams;                     ///< kStreams DES runs.
};

/// A random evidence set over up to \p max_vars nodes, none equal to
/// \p exclude, sorted by node.
bn::SortedEvidence random_evidence(std::size_t nodes, std::size_t exclude,
                                   std::size_t max_vars, Rng& rng) {
  bn::SortedEvidence ev;
  for (std::size_t v : rng.permutation(nodes)) {
    if (ev.size() >= max_vars) break;
    if (v == exclude) continue;
    ev.emplace_back(v, rng.uniform_index(kBins));
  }
  std::sort(ev.begin(), ev.end());
  return ev;
}

/// Records the DES run of \p seed and builds its query batches.
Served make_served(std::uint64_t seed) {
  Served s;
  sim::MonitoredTestbed testbed =
      sim::make_monitored_ediamond(kArrivalRate, seed, kSchedule);
  s.stream = record_stream(testbed, kIntervals, nullptr);

  // Exceedance thresholds h around the stream's median response time.
  std::vector<double> responses;
  for (const auto& iv : s.stream.intervals) {
    if (!iv.missed) responses.push_back(iv.response);
  }
  std::nth_element(responses.begin(),
                   responses.begin() + responses.size() / 2, responses.end());
  const double h = responses[responses.size() / 2];

  const std::size_t nodes = s.stream.services.size() + 1;
  const std::size_t d = nodes - 1;
  Rng rng(seed * 104729 + 3);
  for (std::size_t b = 0; b < kDistinctBatches; ++b) {
    core::QueryBatch batch;
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      core::Query q;
      switch (i % 4) {
        case 0:  // dComp: a service's posterior given the response.
          q.kind = core::QueryKind::kPosterior;
          q.target = rng.uniform_index(d);
          q.evidence = random_evidence(nodes, q.target, 2, rng);
          break;
        case 1:  // P(D > h | evidence)
          q.kind = core::QueryKind::kExceedance;
          q.target = d;
          q.evidence = random_evidence(d, d, 1 + rng.uniform_index(2), rng);
          q.threshold = h * (0.75 + 0.25 * double(rng.uniform_index(3)));
          break;
        case 2:  // P(e)
          q.kind = core::QueryKind::kEvidenceProbability;
          q.evidence = random_evidence(nodes, nodes, 1 + rng.uniform_index(3),
                                       rng);
          break;
        default:  // pAccel what-if: one service held at its fastest bin.
          q.kind = core::QueryKind::kWhatIf;
          q.target = d;
          q.evidence = {{rng.uniform_index(d), 0}};
          break;
      }
      batch.push_back(std::move(q));
    }
    s.batches.push_back(std::move(batch));
  }
  return s;
}

Setup make_setup(std::uint64_t seed) {
  Setup s;
  s.env = std::make_unique<sim::SyntheticEnvironment>(
      sim::make_ediamond_environment());
  for (std::size_t k = 0; k < kStreams; ++k) {
    s.streams.push_back(make_served(seed * kStreams + k));
  }
  return s;
}

struct Pass {
  PathStats stats;
  Samples batch_us;
  double wall_s = 0.0;   ///< Loop wall time minus answer-checking time.
  std::uint64_t queries = 0;
  std::uint64_t not_ok = 0;
  std::set<std::size_t> versions;
};

bool near(double a, double b) { return std::abs(a - b) <= 1e-9; }

/// Checks every answer of one batch; re-derives a seeded sample on a
/// fresh JunctionTree over the same snapshot.
void check_batch(const core::QueryBatch& batch,
                 const std::vector<core::QueryAnswer>& answers,
                 const core::ModelSnapshot& snap, Rng& rng, RunResult& r) {
  r.check(answers.size() == batch.size(), "ediamond_serve: answer count");
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const core::Query& q = batch[i];
    const core::QueryAnswer& a = answers[i];
    if (a.status != core::QueryStatus::kOk) continue;  // counted as failed
    double total = 0.0;
    bool finite = true;
    for (double p : a.posterior) {
      finite = finite && std::isfinite(p) && p >= 0.0;
      total += p;
    }
    if (q.kind != core::QueryKind::kEvidenceProbability) {
      r.check(finite && near(total, 1.0),
              "ediamond_serve: a posterior does not sum to 1 within 1e-9");
    }
    if (q.kind == core::QueryKind::kExceedance) {
      // An exceedance is a partial sum of bin masses, so it carries the
      // same rounding as the posterior sum: [0, 1] within 1e-9. (A full
      // tail sums to 1 + 2^-52 on this stream.)
      r.check(a.exceedance >= -1e-9 && a.exceedance <= 1.0 + 1e-9,
              "ediamond_serve: an exceedance lies outside [0, 1]");
    }
    if (rng.uniform_index(kSampleEvery) != 0) continue;
    bn::JunctionTree fresh(snap.net);
    fresh.calibrate_sorted(q.evidence);
    if (q.kind == core::QueryKind::kEvidenceProbability) {
      r.check(near(a.evidence_probability, fresh.evidence_probability()),
              "ediamond_serve: P(e) differs from a fresh JunctionTree");
      continue;
    }
    const std::vector<double> expect = fresh.posterior(q.target);
    bool same = expect.size() == a.posterior.size();
    for (std::size_t k = 0; same && k < expect.size(); ++k) {
      same = near(expect[k], a.posterior[k]);
    }
    r.check(same, "ediamond_serve: a posterior differs from a fresh "
                  "JunctionTree by more than 1e-9");
  }
}

/// One replay of recorded stream \p k with its query batches.
Pass run_pass(const Setup& s, std::size_t k, ThreadPool& pool,
              Tracer& tracer, std::uint64_t check_seed, RunResult& r) {
  const Served& served = s.streams[k];
  PipelineOptions options;
  options.bins = kBins;
  ReportPipeline pipeline(s.env->workflow(), s.env->sharing(), served.stream,
                          options, tracer);
  core::QueryEngine::Config qconfig;
  qconfig.slot = &pipeline.manager().snapshot_slot();
  qconfig.pool = &pool;
  core::QueryEngine engine(qconfig);
  Rng check_rng(check_seed);

  Pass pass;
  double check_s = 0.0;
  std::size_t next_batch = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < served.stream.intervals.size(); ++i) {
    pipeline.step(i, pass.stats);
    if (!pipeline.manager().snapshot_slot().has_snapshot()) continue;
    for (std::size_t b = 0; b < kBatchesPerInterval; ++b) {
      const core::QueryBatch& batch =
          served.batches[next_batch++ % served.batches.size()];
      std::shared_ptr<const core::ModelSnapshot> snap;
      {
        Tracer::Scope span(tracer, Layer::kAcquire);
        snap = pipeline.manager().snapshot_slot().acquire();
      }
      const std::uint64_t b0 = now_ns();
      std::vector<core::QueryAnswer> answers;
      {
        Tracer::Scope span(tracer, Layer::kPost);
        answers = engine.post(batch);
      }
      const std::uint64_t b1 = now_ns();
      pass.batch_us.add(double(b1 - b0) * 1e-3);
      pass.queries += answers.size();
      for (const auto& a : answers) {
        if (a.status != core::QueryStatus::kOk) ++pass.not_ok;
        pass.versions.insert(a.snapshot_version);
      }
      check_batch(batch, answers, *snap, check_rng, r);
      check_s += seconds_since(b1);
    }
  }
  pass.wall_s = seconds_since(t0) - check_s;
  return pass;
}

}  // namespace

RunResult run_ediamond_serve(const RunOptions& opt) {
  RunResult r;
  const std::size_t pool_threads = std::max<std::size_t>(1, opt.threads - 1);
  // Stretches as measured (see HostScaling); the report path's figures,
  // printed as notes, are taken as those of one thread. The driver thread
  // does the serial work and the pool's batches are short fork-joins, so
  // the probe is one thread wide.
  const HostScaling scaling{1, 2.5, 4.5, 0.75};
  const HostScaling serial{1, 1.0, 1.0, 0.75};
  Tracer off(false);
  std::uint64_t check_seed = opt.seed;

  // Set-up: record the stream, build the query batches, start the pool
  // and run one warm-up pass — everything before timing starts.
  Setup s;
  std::unique_ptr<ThreadPool> pool;
  const double setup_s = median_setup_seconds(scaling, [&] {
    pool.reset();
    s = make_setup(opt.seed);
    pool = std::make_unique<ThreadPool>(pool_threads);
    run_pass(s, 0, *pool, off, ++check_seed, r);
  });
  const double setup_rss_mb = peak_rss_mb();  // before the timed loop

  // Untraced passes until the budget is spent; a traced run interleaves
  // each with a traced pass.
  Tracer tracer(true);
  obs::MetricsRegistry::instance().reset();
  Pass untraced, traced;
  ScaledPasses scaled(scaling), report_scaled(serial);
  HostProbe probe(scaling.probe_width);
  std::size_t passes = 0;
  const double budget_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::uint64_t start = now_ns();
  while (more_passes(passes, seconds_since(start), budget_s)) {
    const std::size_t k = passes % kStreams;
    probe.before();
    const Pass p = run_pass(s, k, *pool, off, ++check_seed, r);
    const HostSample sample = probe.after();
    scaled.add({p.wall_s, double(p.queries), p.batch_us, p.stats.publish_us,
                sample});
    report_scaled.add({p.wall_s, double(p.stats.offered), p.stats.ingest_us,
                       p.stats.publish_us, sample});
    untraced.stats.offered += p.stats.offered;
    untraced.stats.rebuild_attempts += p.stats.rebuild_attempts;
    untraced.stats.rebuild_failures += p.stats.rebuild_failures;
    untraced.queries += p.queries;
    untraced.not_ok += p.not_ok;
    untraced.wall_s += p.wall_s;
    ++passes;
    if (!opt.trace) continue;
    obs::set_enabled(true);
    const Pass t = run_pass(s, k, *pool, tracer, ++check_seed, r);
    obs::set_enabled(false);
    traced.wall_s += t.wall_s;
    traced.queries += t.queries;
    traced.versions.insert(t.versions.begin(), t.versions.end());
  }
  const PathStats& st = untraced.stats;
  r.attempted = st.offered + st.rebuild_attempts + untraced.queries;
  r.failed = st.rebuild_failures + untraced.not_ok;

  if (!opt.trace) {
    r.add("setup_s", setup_s, "s", kSetupRuns,
          "setup_s, median of " + std::to_string(kSetupRuns) +
              " set-ups scaled to the reference host");
    r.add("peak_rss_mb", setup_rss_mb, "MB", 1, "peak_rss_mb, through set-up");
    scaled.report(r, "query.qps", "query.batch_us", 1.0, "report.publish_ms",
                  1e-3);
    // The report path shares the driver loop with the queries here; its
    // figures are printed for reference and gated on report_scenario.
    RunResult extra;
    report_scaled.report(extra, "report.intervals_per_s", "report.ingest_us",
                         1.0, "report.publish_ms", 1e-3);
    for (const Metric& m : extra.metrics) {
      if (m.name.rfind("freshness", 0) == 0) continue;
      const std::size_t space = m.label.find(' ');
      r.notes.push_back(m.label.substr(0, space) + " = " +
                        std::to_string(m.value) + " " + m.unit + " (n=" +
                        std::to_string(m.samples) + m.label.substr(space) +
                        ")");
    }
    for (const std::string& note : extra.notes) {
      if (note.rfind("report.ingest", 0) == 0) r.notes.push_back(note);
    }
    return r;
  }

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  add_layer_metrics(tracer, snap, r);
  r.add("query.snapshot_versions_served", double(traced.versions.size()),
        "count", traced.queries);
  const obs::HistogramStats& run = histogram(snap, "pool.task_run_ns");
  r.add("pool.busy_share",
        ratio(double(run.sum) * 1e-9, traced.wall_s * double(pool_threads)),
        "share", run.count);
  r.add("trace.overhead_share",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s, "share", passes);
  return r;
}

}  // namespace kertbn::perfbench
