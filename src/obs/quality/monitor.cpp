#include "obs/quality/monitor.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "common/cpu_features.hpp"
#include "common/indexed_name.hpp"
#include "obs/sink.hpp"
#include "overload/governor.hpp"

namespace kertbn::quality {

namespace {

struct DriftMetrics {
  obs::Gauge& overall;
  obs::Counter& suspected;
  obs::Counter& confirmed;
  obs::Counter& advisories;
  obs::Gauge& rows_unscored;

  static DriftMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static DriftMetrics m{
        reg.gauge("kert.drift.overall"),
        reg.counter("kert.drift.suspected_total"),
        reg.counter("kert.drift.confirmed_total"),
        reg.counter("kert.drift.advisories"),
        reg.gauge("kert.quality.rows_unscored"),
    };
    return m;
  }
};

}  // namespace

RecoveryStatus recovery_status_from(const durable::RecoveryReport& report) {
  RecoveryStatus out;
  out.checkpoint_loaded = report.checkpoint_loaded;
  out.server_restored = report.server_restored;
  out.model_restored = report.model_restored;
  out.checkpoint_seq = report.checkpoint_seq;
  out.replayed_records = report.replay.records;
  out.skipped_crc = report.replay.skipped_crc;
  out.torn_tails = report.replay.torn_tails;
  out.replayed_ingests = report.replayed_ingests;
  out.replayed_misses = report.replayed_misses;
  out.malformed_payloads = report.malformed_payloads;
  return out;
}

ModelQualityMonitor::ModelQualityMonitor(core::ModelManager& manager,
                                         Config config)
    : manager_(manager),
      config_(std::move(config)),
      n_(manager.workflow().service_count()),
      scorer_(n_, config_.score),
      detectors_(n_ + 1, DriftDetector(config_.drift)),
      baselines_(n_ + 1),
      recent_cap_(manager.config().schedule.points_per_window()),
      z_buf_(n_ + 1, 0.0) {
  KERTBN_EXPECTS(manager.config().publish_snapshots &&
                 "the monitor scores published snapshots; enable "
                 "Config::publish_snapshots on the manager");
}

std::string ModelQualityMonitor::stream_name(std::size_t stream) const {
  if (stream == n_) return "response";
  return indexed_name("s", stream);
}

void ModelQualityMonitor::remember_row(std::span<const double> row) {
  if (row.size() != n_ + 1 || recent_cap_ == 0) return;
  if (recent_rows_.size() < recent_cap_) {
    recent_rows_.emplace_back(row.begin(), row.end());
    return;
  }
  recent_rows_[recent_pos_].assign(row.begin(), row.end());
  recent_pos_ = (recent_pos_ + 1) % recent_cap_;
}

void ModelQualityMonitor::calibrate_baselines() {
  baseline_window_full_ = recent_rows_.size() == recent_cap_;
  const double min_sd = config_.score.min_stddev;
  for (std::size_t s = 0; s <= n_; ++s) {
    // Raw standardized residual of every buffered window row against the
    // adopted prediction — the same z the live scoring path computes.
    const ColumnPrediction& pred = scorer_.prediction(s);
    const double sd = std::max(pred.stddev, min_sd);
    double mean = 0.0;
    double m2 = 0.0;
    std::size_t count = 0;
    for (const std::vector<double>& row : recent_rows_) {
      const double z = (row[s] - pred.mean) / sd;
      const double delta = z - mean;
      mean += delta / static_cast<double>(++count);
      m2 += delta * (z - mean);
    }
    std::size_t duplicates = 0;
    for (std::size_t r = 1; r < recent_rows_.size(); ++r) {
      if (recent_rows_[r][s] == recent_rows_[r - 1][s]) ++duplicates;
    }
    Baseline& base = baselines_[s];
    base.mean = mean;
    base.stddev =
        count > 0 ? std::sqrt(m2 / static_cast<double>(count)) : 0.0;
    base.count = count;
    base.carry_fraction =
        count > 1 ? static_cast<double>(duplicates) /
                        static_cast<double>(count - 1)
                  : 1.0;
    base.armed = baseline_window_full_ &&
                 base.count >= config_.baseline_min_obs &&
                 base.carry_fraction <= config_.max_carry_fraction;
  }
}

void ModelQualityMonitor::sync_snapshot() {
  const std::size_t published = manager_.snapshot_slot().published_count();
  if (published == last_published_count_) return;
  last_published_count_ = published;
  const std::shared_ptr<const core::ModelSnapshot> snap =
      manager_.snapshot_slot().acquire();
  if (snap == nullptr) return;
  if (scorer_.ready() && scorer_.snapshot_version() == snap->version) return;
  if (has_unsupported_version_ && unsupported_version_ == snap->version) {
    return;
  }
  // After a confirmed regime change the new model describes the new
  // world and the latched confirmation is obsolete. Across routine
  // rebuilds (the window merely slid) the detector folds persist —
  // baselines are recalibrated per version, which keeps calibrated
  // residuals comparable, and persistence is what gives the detectors
  // enough history to act within one T_CON.
  const bool regime_change = overall_drift() == DriftState::kConfirmed;
  if (scorer_.adopt(*snap)) {
    scorer_.reset_scores();
    calibrate_baselines();
    if (regime_change) {
      for (DriftDetector& d : detectors_) d.reset();
    } else {
      for (DriftDetector& d : detectors_) d.decay(config_.adoption_decay);
    }
    overall_cached_ = overall_drift();
    advisory_sent_for_version_ = false;
    advisory_version_ = snap->version;
    has_unsupported_version_ = false;
  } else {
    has_unsupported_version_ = true;
    unsupported_version_ = snap->version;
  }
}

DriftState ModelQualityMonitor::overall_drift() const {
  DriftState worst = DriftState::kNone;
  for (const DriftDetector& d : detectors_) {
    worst = std::max(worst, d.state());
  }
  return worst;
}

const DriftDetector& ModelQualityMonitor::detector(std::size_t stream) const {
  KERTBN_EXPECTS(stream < detectors_.size());
  return detectors_[stream];
}

void ModelQualityMonitor::observe_row(std::span<const double> row) {
  sync_snapshot();
  const bool telemetry = obs::enabled();
  if (!scorer_.ready() || row.size() != n_ + 1) {
    ++rows_unscored_;
    remember_row(row);
    if (telemetry) {
      DriftMetrics::get().rows_unscored.set(
          static_cast<double>(rows_unscored_));
    }
    return;
  }

  scorer_.score_row(row, z_buf_);

  std::size_t first_confirmed = detectors_.size();
  bool any_transition = false;
  for (std::size_t s = 0; s < detectors_.size(); ++s) {
    const Baseline& base = baselines_[s];
    if (!base.armed) continue;
    const DriftState before = detectors_[s].state();
    const double sd = std::max(base.stddev, config_.baseline_min_stddev);
    const double calibrated =
        std::clamp((z_buf_[s] - base.mean) / sd, -config_.residual_clamp,
                   config_.residual_clamp);
    const DriftState after = detectors_[s].add(calibrated);
    if (after == DriftState::kConfirmed && first_confirmed == detectors_.size()) {
      first_confirmed = s;
    }
    if (after == before) continue;
    any_transition = true;
    if (telemetry) {
      auto& m = DriftMetrics::get();
      if (after == DriftState::kSuspected) m.suspected.add(1);
      if (after == DriftState::kConfirmed) m.confirmed.add(1);
    }
    if (obs::has_sink()) {
      obs::LogEvent ev;
      ev.name = "kert.drift.state_change";
      ev.t_ns = obs::now_ns();
      ev.tags.push_back({"stream", std::string(stream_name(s))});
      ev.tags.push_back({"from", std::string(to_string(before))});
      ev.tags.push_back({"to", std::string(to_string(after))});
      ev.tags.push_back({"cusum", detectors_[s].cusum_statistic()});
      ev.tags.push_back({"page_hinkley", detectors_[s].ph_statistic()});
      ev.tags.push_back(
          {"model_version",
           static_cast<std::uint64_t>(scorer_.snapshot_version())});
      obs::emit_event(ev);
    }
  }

  if (any_transition) {
    overall_cached_ = overall_drift();
    if (telemetry) {
      DriftMetrics::get().overall.set(
          static_cast<double>(static_cast<int>(overall_cached_)));
    }
  }

  if (overall_cached_ == DriftState::kConfirmed &&
      !advisory_sent_for_version_) {
    advisory_sent_for_version_ = true;
    ++advisories_sent_;
    const double now = config_.clock ? config_.clock() : 0.0;
    const std::string stream =
        stream_name(std::min(first_confirmed, detectors_.size() - 1));
    const std::string reason = "confirmed drift on stream " + stream;
    manager_.note_drift(now, reason);
    if (telemetry) DriftMetrics::get().advisories.add(1);
    if (obs::has_sink()) {
      obs::LogEvent ev;
      ev.name = "kert.drift.advisory";
      ev.t_ns = obs::now_ns();
      ev.tags.push_back({"stream", stream});
      ev.tags.push_back({"reason", reason});
      ev.tags.push_back(
          {"model_version",
           static_cast<std::uint64_t>(scorer_.snapshot_version())});
      ev.tags.push_back({"sim_time", now});
      obs::emit_event(ev);
    }
  }

  // The row joins the window mirror only after scoring: at the next
  // adoption the buffer then holds exactly the rows the new model was
  // built from.
  remember_row(row);

  if (config_.status_every_rows > 0 &&
      scorer_.rows_scored() % config_.status_every_rows == 0) {
    emit_status();
  }
}

StatusReport ModelQualityMonitor::report() const {
  StatusReport r;
  r.generated_at = config_.clock ? config_.clock() : 0.0;

  r.model_version = manager_.version();
  r.model_health = core::to_string(manager_.health());
  const auto& history = manager_.health_history();
  r.health_transitions = manager_.health_transitions();
  const std::size_t keep = std::min(config_.recent_transitions, history.size());
  for (std::size_t i = history.size() - keep; i < history.size(); ++i) {
    r.recent_transitions.push_back(
        TransitionStatus{history[i].at, core::to_string(history[i].from),
                         core::to_string(history[i].to), history[i].reason});
  }
  r.failed_reconstructions = manager_.failed_reconstructions();
  r.stale_skips = manager_.stale_skips();
  r.last_failure_reason = manager_.last_failure_reason();
  r.drift_notices = manager_.drift_notices();
  r.last_drift_reason = manager_.last_drift_reason();

  r.overall_drift = to_string(overall_drift());
  r.scorer_ready = scorer_.ready();
  r.scored_snapshot_version = scorer_.snapshot_version();
  r.rows_scored = scorer_.rows_scored();
  r.rows_unscored = rows_unscored_;
  for (std::size_t s = 0; s < detectors_.size(); ++s) {
    StreamStatus out;
    out.name = stream_name(s);
    const StreamScore& score = scorer_.stream(s);
    out.count = score.count;
    out.mean_abs_err = score.mean_abs_err();
    out.mean_z = score.mean_z();
    out.rms_z = score.rms_z();
    out.mean_log_score = score.mean_log_score();
    out.coverage = score.coverage();
    out.drift = to_string(detectors_[s].state());
    out.cusum = detectors_[s].cusum_statistic();
    out.page_hinkley = detectors_[s].ph_statistic();
    if (scorer_.ready()) {
      const ColumnPrediction& pred = scorer_.prediction(s);
      out.predicted_mean = pred.mean;
      out.predicted_stddev = pred.stddev;
      out.band_lo = pred.band_lo_value;
      out.band_hi = pred.band_hi_value;
    }
    r.streams.push_back(std::move(out));
  }

  r.recovery = recovery_;

  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::instance().snapshot();
  // The governor publishes its ladder level as a gauge; its presence is
  // the signal that overload control runs in this process.
  if (const std::optional<double> level = metrics.gauge("kert.overload.level");
      level.has_value()) {
    OverloadStatus o;
    o.level = ov::to_string(static_cast<ov::PressureLevel>(
        static_cast<std::uint8_t>(*level)));
    o.transitions = metrics.counter("kert.overload.transitions");
    o.shed_intervals = metrics.counter("kert.ingest.shed_intervals");
    o.rejected_ingest = metrics.counter("kert.overload.rejected.ingest");
    o.shed_queries = metrics.counter("kert.query.shed");
    o.deadline_exceeded = metrics.counter("kert.query.deadline_exceeded");
    o.deferred_reconstructions = metrics.counter("kert.reconstruct.deferred");
    o.aborted_reconstructions = metrics.counter("kert.reconstruct.aborted");
    r.overload = o;
  }
  r.query_count = metrics.counter("kert.query.count");
  if (const obs::HistogramStats* lat =
          metrics.histogram("kert.query.latency_ns");
      lat != nullptr) {
    r.query_latency_p50_ns = lat->quantile(0.5);
    r.query_latency_p95_ns = lat->quantile(0.95);
    r.query_latency_p99_ns = lat->quantile(0.99);
  }
  r.simd_tier = kertbn::simd::to_string(kertbn::simd::active_tier());
  r.plan_cache_hits = metrics.counter("kert.query.plan_hits");
  r.plan_cache_misses = metrics.counter("kert.query.plan_misses");
  return r;
}

void ModelQualityMonitor::emit_status() const {
  if (!obs::has_sink()) return;
  obs::LogEvent ev;
  ev.name = "kert.quality.status";
  ev.t_ns = obs::now_ns();
  ev.tags.push_back({"report", report().to_json()});
  obs::emit_event(ev);
}

}  // namespace kertbn::quality
