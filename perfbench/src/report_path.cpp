#include "report_path.hpp"

#include <cstring>
#include <utility>

namespace kertbn::perfbench {

RecordedStream record_stream(
    sim::MonitoredTestbed& testbed, std::size_t intervals,
    const std::function<void(sim::MonitoredTestbed&)>& before_interval) {
  RecordedStream out;
  out.services = testbed.server().window().column_names();
  out.services.pop_back();  // the trailing "D" column
  out.schedule = testbed.schedule();
  out.intervals.reserve(intervals);

  sim::ManagementServer& server = testbed.server_mutable();
  RecordedInterval current;
  bool logged = false;
  server.set_ingest_log([&](const std::vector<sim::AgentReport>& reports,
                            double response) {
    current.reports = reports;
    current.response = response;
    logged = true;
  });
  server.set_missed_log([&] {
    current.missed = true;
    logged = true;
  });

  for (std::size_t i = 0; i < intervals; ++i) {
    if (before_interval) before_interval(testbed);
    const std::size_t before = testbed.environment().traces().size();
    current = RecordedInterval{};
    logged = false;
    testbed.advance_interval();
    if (!logged) current.missed = true;  // nothing reached the server
    current.completions = double(testbed.environment().traces().size() - before);
    current.end_s = testbed.now();
    out.intervals.push_back(std::move(current));
  }
  server.set_ingest_log(nullptr);
  server.set_missed_log(nullptr);
  return out;
}

ReportPipeline::ReportPipeline(wf::Workflow workflow,
                               wf::ResourceSharing sharing,
                               const RecordedStream& stream,
                               PipelineOptions options, Tracer& tracer)
    : stream_(stream), options_(std::move(options)), tracer_(tracer) {
  server_ =
      std::make_unique<sim::ManagementServer>(stream.services, stream.schedule);

  core::ModelManager::Config mconfig;
  mconfig.schedule = stream.schedule;
  mconfig.bins = options_.bins;
  mconfig.incremental = true;
  mconfig.guard = true;
  mconfig.publish_snapshots = true;
  manager_ = std::make_unique<core::ModelManager>(
      std::move(workflow), std::move(sharing), mconfig);
  server_->set_row_observer([this](std::span<const double> row) {
    Tracer::Scope span(tracer_, Layer::kObserveRow);
    manager_->observe_row(row);
  });

  if (!options_.journal_dir.empty()) {
    quality::ModelQualityMonitor::Config qconfig;
    qconfig.clock = [this] { return sim_now_; };
    monitor_ =
        std::make_unique<quality::ModelQualityMonitor>(*manager_, qconfig);
    server_->add_row_observer([this](std::span<const double> row) {
      Tracer::Scope span(tracer_, Layer::kQualityRow);
      monitor_->observe_row(row);
    });

    ov::PressureGovernor::Config gconfig;
    // The offered-load signal is an interval's completions over their
    // slow moving average. With 3 as its design limit the flash crowd (up
    // to 3x) climbs the ladder past throttled (levels 1 to 3 were seen).
    // No level refuses ingest tokens at one interval per T_DATA, so
    // nothing is shed: the ladder's cost is measured, not its effect.
    gconfig.offered_load_limit = 3.0;
    governor_ = std::make_unique<ov::PressureGovernor>(gconfig);
    server_->configure_admission(sim::IngestAdmission{
        governor_.get(), 8, sim::IngestOverflowPolicy::kShedOldest});

    durable::JournalConfig jconfig;
    jconfig.dir = options_.journal_dir;
    jconfig.fsync = durable::FsyncPolicy::kPerSegment;
    writer_ = std::make_unique<durable::JournalWriter>(std::move(jconfig));
    store_ = std::make_unique<durable::CheckpointStore>(
        durable::CheckpointStore::Config{options_.journal_dir});
    server_->set_ingest_log([this](const std::vector<sim::AgentReport>& r,
                                   double response) {
      Tracer::Scope span(tracer_, Layer::kAppend);
      durable::encode_ingest_into(scratch_, r, response);
      writer_->append(scratch_);
    });
    server_->set_missed_log([this] {
      Tracer::Scope span(tracer_, Layer::kAppend);
      writer_->append(durable::encode_missed());
    });
  }
}

ReportPipeline::~ReportPipeline() {
  if (server_ != nullptr) {
    server_->set_ingest_log(nullptr);
    server_->set_missed_log(nullptr);
  }
}

void ReportPipeline::checkpoint(double now) {
  Tracer::Scope span(tracer_, Layer::kCheckpoint);
  const durable::Checkpoint ckpt = durable::capture_checkpoint(
      *server_, *manager_, now, writer_->last_seq());
  store_->write(ckpt);
  durable::prune_journal(options_.journal_dir, ckpt.journal_seq);
}

void ReportPipeline::step(std::size_t i, PathStats& stats) {
  const RecordedInterval& iv = stream_.intervals[i];
  sim_now_ = iv.end_s;

  // One deterministic governor sample per interval, before ingest — the
  // same signal recipe the monitored testbed uses.
  if (governor_ != nullptr) {
    ov::LoadSignals signals;
    signals.ingest_backlog = double(server_->pending_intervals());
    if (!load_primed_) {
      load_primed_ = true;
      load_ewma_ = iv.completions;
      signals.offered_load = iv.completions > 0.0 ? 1.0 : 0.0;
    } else {
      signals.offered_load =
          load_ewma_ > 0.0 ? iv.completions / load_ewma_ : 0.0;
      load_ewma_ = 0.05 * iv.completions + 0.95 * load_ewma_;
    }
    Tracer::Scope span(tracer_, Layer::kGovernor);
    const auto level = governor_->update(iv.end_s, signals);
    stats.max_level = std::max(stats.max_level, int(level));
  }

  const std::uint64_t t0 = now_ns();
  if (iv.missed) {
    server_->note_missed_interval();
  } else {
    Tracer::Scope span(tracer_, Layer::kOffer);
    server_->offer_interval(iv.reports, iv.response, iv.end_s);
  }
  const std::uint64_t t1 = now_ns();
  ++stats.offered;
  if (!iv.missed) stats.ingest_us.add(double(t1 - t0) * 1e-3);

  // A T_CON boundary is where the manager's own schedule says a rebuild is
  // due (the simulated clock accumulates T_DATA steps, so the grid is not
  // an exact multiple of the interval index).
  const core::ModelManager& m = *manager_;
  if (m.next_due() > iv.end_s) return;
  if (server_->window_rows() < stream_.schedule.k) return;  // warming up
  ++boundaries_;

  // A boundary whose whole T_CON brought no new row is a stale skip: the
  // last model keeps serving and nothing was attempted. Guard failures,
  // cancellations and governor deferrals count as failed rebuilds.
  const std::size_t stale_before = m.stale_skips();
  const std::size_t failed_before = m.failed_reconstructions() +
                                    m.aborted_reconstructions() +
                                    m.deferred_reconstructions();
  bool published = false;
  {
    Tracer::Scope span(tracer_, Layer::kRebuild);
    published =
        manager_->maybe_reconstruct(iv.end_s, server_->window()).has_value();
  }
  const auto snap = m.snapshot_slot().acquire();
  published = published && snap != nullptr && snap->version == m.version();
  const std::size_t failed_after = m.failed_reconstructions() +
                                   m.aborted_reconstructions() +
                                   m.deferred_reconstructions();
  if (published) {
    ++stats.rebuild_attempts;
    stats.publish_us.add(double(now_ns() - t0) * 1e-3);
  } else if (failed_after > failed_before || m.stale_skips() == stale_before) {
    ++stats.rebuild_attempts;
    ++stats.rebuild_failures;
  }

  // Checkpoint after the publish, so it captures the model just built.
  if (writer_ != nullptr && boundaries_ % kCheckpointEveryTcon == 0) {
    checkpoint(iv.end_s);
  }
}

bool same_state(const sim::ServerState& a, const sim::ServerState& b) {
  if (a.rows != b.rows || a.cols != b.cols ||
      a.window.size() != b.window.size() ||
      a.last_seen.size() != b.last_seen.size() ||
      a.total_points != b.total_points ||
      a.dropped_intervals != b.dropped_intervals ||
      a.quarantined_values != b.quarantined_values ||
      a.duplicate_values != b.duplicate_values ||
      a.consecutive_missed_intervals != b.consecutive_missed_intervals) {
    return false;
  }
  if (!a.window.empty() &&
      std::memcmp(a.window.data(), b.window.data(),
                  a.window.size() * sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t c = 0; c < a.last_seen.size(); ++c) {
    if (a.last_seen[c].has_value() != b.last_seen[c].has_value()) return false;
    if (a.last_seen[c].has_value() &&
        std::memcmp(&*a.last_seen[c], &*b.last_seen[c], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace kertbn::perfbench
