#pragma once
/// \file report_path.hpp
/// The monitoring-report path as a deployment wires it, built from public
/// entry points only: governed bounded admission, a write-ahead journal,
/// the incremental model manager publishing snapshots, and the quality
/// tap. The hooks are the benchmark's own
/// lambdas (not ServerJournal::attach) so each layer gets its own span.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "durable/checkpoint.hpp"
#include "durable/journal.hpp"
#include "kert/model_manager.hpp"
#include "obs/quality/monitor.hpp"
#include "overload/governor.hpp"
#include "sosim/monitoring.hpp"
#include "sosim/testbed.hpp"

namespace kertbn::perfbench {

/// One T_DATA interval as the management server received it.
struct RecordedInterval {
  bool missed = false;  ///< note_missed_interval instead of an ingest.
  double response = 0.0;
  std::vector<sim::AgentReport> reports;
  double completions = 0.0;  ///< Requests completed (governor load signal).
  double end_s = 0.0;        ///< Simulated end of the interval.
};

struct RecordedStream {
  std::vector<std::string> services;
  sim::ModelSchedule schedule;
  std::vector<RecordedInterval> intervals;
};

/// Streams a report-path workload records from one --seed, each from its
/// own DES seed. Passes replay them in turn and a run ends on a whole
/// round, so every stream weighs the same: one DES run's rebuild mix
/// (how many rebuilds are incremental) varies from seed to seed, and
/// averaging four keeps that variation out of run-to-run comparisons.
inline constexpr std::size_t kStreams = 4;

/// True while a run must replay more passes: until the budget is spent,
/// at least one round, and always a whole round of the kStreams streams.
inline bool more_passes(std::size_t passes, double elapsed_s,
                        double budget_s) {
  return passes < kStreams || passes % kStreams != 0 || elapsed_s < budget_s;
}

/// Runs \p intervals DES intervals of \p testbed and records what reaches
/// its server through a recording set_ingest_log / set_missed_log.
/// \p before_interval adjusts the environment (load curve) per interval.
RecordedStream record_stream(
    sim::MonitoredTestbed& testbed, std::size_t intervals,
    const std::function<void(sim::MonitoredTestbed&)>& before_interval);

/// T_CON boundaries between checkpoints when a journal is attached.
inline constexpr std::size_t kCheckpointEveryTcon = 16;

struct PipelineOptions {
  /// Set: the full report path — bounded admission under a
  /// PressureGovernor, a journal in this directory with a checkpoint every
  /// kCheckpointEveryTcon boundaries, and the quality tap. Empty: offer,
  /// observe_row and rebuild only.
  std::string journal_dir;
  std::size_t bins = 0;  ///< 0: continuous KERT-BN; >0: discrete.
};

/// Per-pass counts the workloads turn into metrics.
struct PathStats {
  Samples ingest_us;   ///< One offer_interval including its hooks.
  Samples publish_us;  ///< Boundary offer until the snapshot is acquirable.
  std::uint64_t offered = 0;
  std::uint64_t rebuild_attempts = 0;  ///< Boundaries that were not stale.
  std::uint64_t rebuild_failures = 0;
  int max_level = 0;  ///< Highest governor level seen.
};

class ReportPipeline {
 public:
  ReportPipeline(wf::Workflow workflow, wf::ResourceSharing sharing,
                 const RecordedStream& stream, PipelineOptions options,
                 Tracer& tracer);
  ~ReportPipeline();
  ReportPipeline(const ReportPipeline&) = delete;
  ReportPipeline& operator=(const ReportPipeline&) = delete;

  /// Replays interval \p i: governor sample, offer, and at a T_CON
  /// boundary rebuild, snapshot acquire and (every few T_CON) checkpoint.
  void step(std::size_t i, PathStats& stats);

  const sim::ManagementServer& server() const { return *server_; }
  const core::ModelManager& manager() const { return *manager_; }
  std::uint64_t journal_bytes() const {
    return writer_ ? writer_->bytes_appended() : 0;
  }
  /// Closes the journal (fsyncs the open segment) so it can be replayed.
  void close_journal() { writer_.reset(); }

 private:
  void checkpoint(double now);

  const RecordedStream& stream_;
  PipelineOptions options_;
  Tracer& tracer_;
  std::unique_ptr<ov::PressureGovernor> governor_;
  std::unique_ptr<core::ModelManager> manager_;
  std::unique_ptr<quality::ModelQualityMonitor> monitor_;
  std::unique_ptr<durable::JournalWriter> writer_;
  std::unique_ptr<durable::CheckpointStore> store_;
  std::unique_ptr<sim::ManagementServer> server_;
  std::string scratch_;
  std::size_t boundaries_ = 0;  ///< T_CON boundaries reached so far.
  double load_ewma_ = 0.0;
  bool load_primed_ = false;
  double sim_now_ = 0.0;
};

/// True when two server states are bit-for-bit identical.
bool same_state(const sim::ServerState& a, const sim::ServerState& b);

}  // namespace kertbn::perfbench
