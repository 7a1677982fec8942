#include "kert/model_manager.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "sosim/synthetic.hpp"

namespace kertbn::core {
namespace {

ModelManager::Config continuous_config() {
  ModelManager::Config cfg;
  cfg.schedule = sim::ModelSchedule{10.0, 12, 3};  // T_CON = 120 s
  return cfg;
}

TEST(ModelManager, NoModelBeforeFirstReconstruction) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  EXPECT_FALSE(manager.has_model());
  EXPECT_EQ(manager.version(), 0u);
  EXPECT_DOUBLE_EQ(manager.next_due(), 120.0);
}

TEST(ModelManager, ReconstructsOnSchedule) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(1);
  const bn::Dataset window = env.generate(36, rng);

  // Before the deadline: nothing happens.
  EXPECT_FALSE(manager.maybe_reconstruct(60.0, window).has_value());
  // At the deadline: rebuild.
  const auto rec = manager.maybe_reconstruct(120.0, window);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(rec->window_rows, 36u);
  EXPECT_TRUE(manager.has_model());
  EXPECT_TRUE(manager.model().is_complete());
  EXPECT_DOUBLE_EQ(manager.next_due(), 240.0);
}

TEST(ModelManager, EmptyWindowDefersReconstruction) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  const bn::Dataset empty(
      [&] {
        auto cols = env.workflow().service_names();
        cols.push_back("D");
        return cols;
      }());
  EXPECT_FALSE(manager.maybe_reconstruct(500.0, empty).has_value());
  EXPECT_FALSE(manager.has_model());
}

TEST(ModelManager, LateCheckCatchesUpToGrid) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(2);
  const bn::Dataset window = env.generate(36, rng);
  // Way past several deadlines: one rebuild, next deadline after `now`.
  const auto rec = manager.maybe_reconstruct(500.0, window);
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(manager.next_due(), 600.0);
}

TEST(ModelManager, OldModelFullyReplaced) {
  // The Section 2 rationale: reconstruction discards obsolete dynamics.
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(3);
  manager.reconstruct(120.0, env.generate(36, rng));
  const double before =
      manager.model().cpd(0).mean({});  // image_list base mean

  // Environment shifts: image_list 3x slower.
  sim::SyntheticEnvironment degraded = env;
  // Slow down by "accelerating" every other service is awkward; instead
  // rebuild the environment with the public API: accelerate factor must be
  // <= 1, so model the change from the degraded side — train on data where
  // everything else sped up 3x is equivalent relatively. Simpler: just
  // generate from an accelerated copy and check the model tracks *change*.
  degraded.accelerate_service(0, 0.33);
  manager.reconstruct(240.0, degraded.generate(36, rng));
  const double after = manager.model().cpd(0).mean({});
  EXPECT_LT(after, before * 0.6);
  EXPECT_EQ(manager.version(), 2u);
  EXPECT_EQ(manager.history().size(), 2u);
}

TEST(ModelManager, DiscreteModeBuildsDiscretizer) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager::Config cfg = continuous_config();
  cfg.bins = 3;
  ModelManager manager(env.workflow(), env.sharing(), cfg);
  kertbn::Rng rng(4);
  manager.reconstruct(120.0, env.generate(200, rng));
  ASSERT_TRUE(manager.discretizer().has_value());
  EXPECT_EQ(manager.discretizer()->bins(), 3u);
  for (std::size_t v = 0; v < manager.model().size(); ++v) {
    EXPECT_TRUE(manager.model().variable(v).is_discrete());
  }
}

TEST(ModelManager, HistoryRecordsTimings) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(5);
  manager.reconstruct(120.0, env.generate(36, rng));
  const auto& rec = manager.history().front();
  EXPECT_GT(rec.report.total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rec.at, 120.0);
}

/// A long-running manager keeps only the most recent kLogCapacity entries
/// of each log; the lifetime totals keep counting past them.
TEST(ModelManager, LogsKeepTheMostRecentEntries) {
  const std::vector<std::string> names{"a", "b"};
  const wf::Workflow workflow(
      names, wf::Node::sequence({wf::Node::activity(0),
                                 wf::Node::activity(1)}));
  std::vector<sim::ServiceModel> models(2);
  models[0] = {0.10, 0.01, 0.0, 0.0};
  models[1] = {0.20, 0.02, 0.0, 0.0};
  sim::SyntheticEnvironment env(workflow, {}, models);
  ModelManager manager(workflow, {}, continuous_config());
  kertbn::Rng rng(12);
  constexpr std::size_t kRebuilds = 1000;
  for (std::size_t k = 1; k <= kRebuilds; ++k) {
    const double now = 120.0 * static_cast<double>(k);
    manager.reconstruct(now, env.generate(8, rng));  // -> kFresh
    manager.note_drift(now, "drift");                // kFresh -> kStale
  }
  constexpr std::size_t kCap = ModelManager::kLogCapacity;
  EXPECT_EQ(kCap, 256u);

  EXPECT_EQ(manager.reconstructions(), kRebuilds);
  ASSERT_EQ(manager.history().size(), kCap);
  EXPECT_EQ(manager.history().front().version, kRebuilds - kCap + 1);
  EXPECT_EQ(manager.history().back().version, kRebuilds);
  EXPECT_EQ(manager.version(), kRebuilds);

  // kNone -> kFresh, then kFresh -> kStale and kStale -> kFresh per cycle.
  EXPECT_EQ(manager.health_transitions(), 2 * kRebuilds);
  ASSERT_EQ(manager.health_history().size(), kCap);
  EXPECT_EQ(manager.health_history().back().to, ModelHealth::kStale);
  EXPECT_DOUBLE_EQ(manager.health_history().back().at, 120.0 * kRebuilds);
  EXPECT_DOUBLE_EQ(manager.health_history().front().at,
                   120.0 * (kRebuilds - kCap / 2 + 1));
}

TEST(ModelManager, GuardRejectsShortWindow) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(6);
  const bn::Dataset one_row = env.generate(1, rng);

  // One row cannot support variance estimation: the attempt fails, and
  // with nothing to fall back to the manager reports kDegraded.
  EXPECT_FALSE(manager.maybe_reconstruct(120.0, one_row).has_value());
  EXPECT_FALSE(manager.has_model());
  EXPECT_EQ(manager.health(), ModelHealth::kDegraded);
  EXPECT_EQ(manager.failed_reconstructions(), 1u);
  EXPECT_EQ(manager.last_failure_reason(), "window below minimum rows");

  // Real data at the next deadline recovers.
  const bn::Dataset window = env.generate(36, rng);
  ASSERT_TRUE(manager.maybe_reconstruct(240.0, window).has_value());
  EXPECT_EQ(manager.health(), ModelHealth::kFresh);
  EXPECT_EQ(manager.version(), 1u);
}

TEST(ModelManager, GuardFallsBackOnNonFiniteWindow) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(7);
  manager.reconstruct(120.0, env.generate(36, rng));
  ASSERT_TRUE(manager.has_model());
  EXPECT_EQ(manager.health(), ModelHealth::kFresh);

  // A window poisoned with NaN fails validation; the v1 model keeps
  // serving (last-known-good) and the failure is accounted for.
  bn::Dataset poisoned = env.generate(36, rng);
  std::vector<double> bad(poisoned.cols(), 1.0);
  bad[2] = std::nan("");
  poisoned.add_row(bad);
  EXPECT_FALSE(manager.maybe_reconstruct(240.0, poisoned).has_value());
  EXPECT_TRUE(manager.has_model());
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.health(), ModelHealth::kFallback);
  EXPECT_EQ(manager.failed_reconstructions(), 1u);
  EXPECT_EQ(manager.last_failure_reason(), "non-finite value in window");

  // A clean window rebuilds and restores kFresh.
  ASSERT_TRUE(
      manager.maybe_reconstruct(360.0, env.generate(36, rng)).has_value());
  EXPECT_EQ(manager.version(), 2u);
  EXPECT_EQ(manager.health(), ModelHealth::kFresh);
}

TEST(ModelManager, GuardRejectsWindowWhoseMomentsOverflow) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(11);

  // Every value is finite, but squaring 1e300 overflows the moments the
  // fit needs. Validation must reject it by value — no contract abort —
  // and with no model yet the manager reports kDegraded.
  bn::Dataset huge = env.generate(36, rng);
  huge.add_row(std::vector<double>(huge.cols(), 1e300));
  EXPECT_FALSE(manager.maybe_reconstruct(120.0, huge).has_value());
  EXPECT_FALSE(manager.has_model());
  EXPECT_EQ(manager.health(), ModelHealth::kDegraded);
  EXPECT_EQ(manager.last_failure_reason(), "window moments overflow");

  // A service time just under the bound (its square still fits) builds.
  const double bound = std::sqrt(std::numeric_limits<double>::max());
  bn::Dataset large = env.generate(36, rng);
  std::vector<double> row(large.cols(), 1.0);
  row[0] = 0.99 * bound;
  large.add_row(row);
  ASSERT_TRUE(manager.maybe_reconstruct(240.0, large).has_value());
  EXPECT_EQ(manager.health(), ModelHealth::kFresh);
  EXPECT_EQ(manager.version(), 1u);

  // With a model serving, the overflowing window falls back to it.
  EXPECT_FALSE(manager.maybe_reconstruct(360.0, huge).has_value());
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.health(), ModelHealth::kFallback);
  EXPECT_EQ(manager.failed_reconstructions(), 2u);
}

TEST(ModelManager, StaleSkipOnUnchangedWindow) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(8);
  const bn::Dataset window = env.generate(36, rng);
  ASSERT_TRUE(manager.maybe_reconstruct(120.0, window).has_value());

  // Identical window at the next deadline: skip the rebuild, mark stale,
  // but keep the schedule moving.
  EXPECT_FALSE(manager.maybe_reconstruct(240.0, window).has_value());
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.stale_skips(), 1u);
  EXPECT_EQ(manager.health(), ModelHealth::kStale);
  EXPECT_DOUBLE_EQ(manager.next_due(), 360.0);

  // New data rebuilds as usual.
  ASSERT_TRUE(
      manager.maybe_reconstruct(360.0, env.generate(36, rng)).has_value());
  EXPECT_EQ(manager.version(), 2u);
  EXPECT_EQ(manager.health(), ModelHealth::kFresh);
}

TEST(ModelManager, EmptyWindowAtDeadlineMarksServingModelStale) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager manager(env.workflow(), env.sharing(), continuous_config());
  kertbn::Rng rng(9);
  ASSERT_TRUE(
      manager.maybe_reconstruct(120.0, env.generate(36, rng)).has_value());

  const bn::Dataset empty(
      [&] {
        auto cols = env.workflow().service_names();
        cols.push_back("D");
        return cols;
      }());
  EXPECT_FALSE(manager.maybe_reconstruct(240.0, empty).has_value());
  EXPECT_EQ(manager.health(), ModelHealth::kStale);
  // Seed semantics preserved: the deadline stays pending until data shows
  // up, then one rebuild catches up to the grid.
  EXPECT_DOUBLE_EQ(manager.next_due(), 240.0);
  ASSERT_TRUE(
      manager.maybe_reconstruct(250.0, env.generate(36, rng)).has_value());
  EXPECT_EQ(manager.health(), ModelHealth::kFresh);
  EXPECT_DOUBLE_EQ(manager.next_due(), 360.0);
}

/// Fixture pieces for the choice-probability drift tests: a three-service
/// workflow seq(a, choice(b, c)) whose branch probabilities drift, with
/// service means far enough apart that the blend shift dominates noise.
wf::Node::Ptr drift_root(double p_b) {
  return wf::Node::sequence(
      {wf::Node::activity(0),
       wf::Node::choice({wf::Node::activity(1), wf::Node::activity(2)},
                        {p_b, 1.0 - p_b})});
}

std::vector<sim::ServiceModel> drift_models() {
  std::vector<sim::ServiceModel> models(3);
  models[0] = {0.10, 0.01, 0.0, 0.0};
  models[1] = {0.20, 0.02, 0.0, 0.0};
  models[2] = {0.80, 0.05, 0.0, 0.0};
  return models;
}

/// Satellite: the KERT D-CPT must track a drifted branch distribution even
/// when the data window has not changed — the knowledge itself changed, so
/// the unchanged-window stale-skip must not keep the old probabilities.
TEST(ModelManager, UpdateWorkflowRebuildsDriftedDCptOnUnchangedWindow) {
  const std::vector<std::string> names{"a", "b", "c"};
  const wf::ResourceSharing sharing;
  sim::SyntheticEnvironment env(wf::Workflow(names, drift_root(0.9)),
                                sharing, drift_models());
  ModelManager::Config cfg = continuous_config();
  cfg.bins = 3;
  ModelManager manager(env.workflow(), env.sharing(), cfg);
  kertbn::Rng rng(31);
  const bn::Dataset window = env.generate(200, rng);
  manager.reconstruct(120.0, window);
  const std::string before = manager.export_model_text();

  // Branch probabilities drift 0.9/0.1 -> 0.1/0.9. The exact same window
  // must still trigger a rebuild (no stale skip), and the D-CPT changes.
  manager.update_workflow(wf::Workflow(names, drift_root(0.1)));
  ASSERT_TRUE(manager.maybe_reconstruct(240.0, window).has_value());
  EXPECT_EQ(manager.stale_skips(), 0u);
  const std::string after = manager.export_model_text();
  EXPECT_NE(after, before);

  // The rebuilt model is exactly what a manager constructed with the
  // drifted knowledge from scratch would serve.
  ModelManager reference(wf::Workflow(names, drift_root(0.1)), sharing, cfg);
  reference.reconstruct(120.0, window);
  EXPECT_EQ(after, reference.export_model_text());
}

/// Satellite: in continuous incremental mode, update_workflow drops the
/// residual partials captured against the old f(X); after drifted data
/// arrives the served model predicts the new blend, not the old one.
TEST(ModelManager, UpdateWorkflowLetsIncrementalTrackDriftedResponse) {
  const std::vector<std::string> names{"a", "b", "c"};
  const wf::ResourceSharing sharing;
  sim::SyntheticEnvironment env_a(wf::Workflow(names, drift_root(0.9)),
                                  sharing, drift_models());
  sim::SyntheticEnvironment env_b(wf::Workflow(names, drift_root(0.1)),
                                  sharing, drift_models());

  ModelManager::Config cfg;
  cfg.schedule = sim::ModelSchedule{1.0, 6, 3};  // 18-row window
  cfg.incremental = true;
  ModelManager manager(env_a.workflow(), env_a.sharing(), cfg);
  kertbn::Rng rng(37);
  const bn::Dataset win_a = env_a.generate(18, rng);
  for (std::size_t r = 0; r < win_a.rows(); ++r) {
    manager.observe_row(win_a.row(r));
  }
  manager.reconstruct(18.0, win_a);

  // Probe drawn from the drifted regime; D sits near the new blend.
  const bn::Dataset probe = env_b.generate(40, rng);
  const auto d_error = [&](const bn::BayesianNetwork& net) {
    const std::size_t d = net.size() - 1;
    double total = 0.0;
    for (std::size_t r = 0; r < probe.rows(); ++r) {
      const auto row = probe.row(r);
      std::vector<double> parents;
      for (std::size_t p : net.dag().parents(d)) parents.push_back(row[p]);
      total += std::abs(net.cpd(d).mean(parents) - row[d]);
    }
    return total / static_cast<double>(probe.rows());
  };
  const double err_before = d_error(manager.model());

  manager.update_workflow(env_b.workflow());
  const bn::Dataset win_b = env_b.generate(18, rng);
  for (std::size_t r = 0; r < win_b.rows(); ++r) {
    manager.observe_row(win_b.row(r));
  }
  manager.reconstruct(36.0, win_b);
  const double err_after = d_error(manager.model());

  // The 0.9 -> 0.1 branch flip moves the blend by ~0.5 s; a model still
  // carrying the old probabilities cannot close that gap.
  EXPECT_LT(err_after, 0.5 * err_before);
}

TEST(ModelManager, GuardDisabledRestoresSeedBehavior) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager::Config cfg = continuous_config();
  cfg.guard = false;
  ModelManager manager(env.workflow(), env.sharing(), cfg);
  kertbn::Rng rng(10);
  const bn::Dataset window = env.generate(36, rng);
  ASSERT_TRUE(manager.maybe_reconstruct(120.0, window).has_value());
  // No stale detection: the identical window is rebuilt unconditionally.
  ASSERT_TRUE(manager.maybe_reconstruct(240.0, window).has_value());
  EXPECT_EQ(manager.version(), 2u);
  EXPECT_EQ(manager.stale_skips(), 0u);
}

}  // namespace
}  // namespace kertbn::core
