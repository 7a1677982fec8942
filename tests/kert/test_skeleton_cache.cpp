/// \file test_skeleton_cache.cpp
/// ModelManager translates the KERT knowledge once per workflow version
/// and reuses that skeleton on every rebuild; the guarded rebuild builds a
/// candidate, probes it, and commits it by move, and the published
/// snapshot shares the committed model. These tests pin the observable
/// contract: models byte-identical to a build that translates the
/// knowledge afresh, invalidation on update_workflow, and no copy of the
/// model between the manager and its snapshots.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "bn/deterministic_cpd.hpp"
#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "kert/model_manager.hpp"
#include "kert/serialize.hpp"
#include "overload/cancellation.hpp"
#include "sosim/scenario.hpp"
#include "sosim/synthetic.hpp"

namespace kertbn::core {
namespace {

/// The model \p manager just built, rebuilt from the same inputs through
/// the free construction functions with freshly translated knowledge (a
/// new skeleton, a new D-CPT), in the manager's text format.
std::string uncached_model_text(const ModelManager& manager,
                                const wf::ResourceSharing& sharing,
                                const Reconstruction& rec,
                                const bn::Dataset& window) {
  const ModelManager::Config& cfg = manager.config();
  const wf::Workflow& workflow = manager.workflow();

  std::ostringstream out;
  if (cfg.bins == 0) {
    KertResult result;
    if (rec.incremental) {
      const WindowStats& stats = *manager.window_stats();
      const WindowStats::ResidualMoments rm = stats.combined_residuals();
      result = construct_kert_continuous_from_stats(
          make_kert_skeleton(workflow, sharing), stats.combined_gram(),
          window.rows(),
          leak_sigma_from_residual_moments(rm.sum, rm.sum_sq, rm.rows),
          cfg.learn);
    } else {
      result = construct_kert_continuous(workflow, sharing, window,
                                         cfg.learning, cfg.leak_sigma,
                                         cfg.learn);
    }
    save_kert_continuous(out, workflow, sharing, result.net);
    return out.str();
  }

  const DatasetDiscretizer& disc = *manager.discretizer();
  KertResult result;
  if (rec.incremental) {
    // A private copy of the statistics, recounted under a version key no
    // manager uses, so no cached count partial is reused.
    WindowStats stats = *manager.window_stats();
    const KertSkeleton skeleton =
        make_kert_skeleton(workflow, sharing, cfg.bins);
    const WindowStats::CountResult counts = stats.counts(
        skeleton.count_layouts, disc, std::numeric_limits<std::size_t>::max());
    result = construct_kert_discrete_from_counts(
        skeleton, make_deterministic_cpt(workflow, disc, cfg.leak_l),
        counts.node_counts, cfg.learn);
  } else {
    result = construct_kert_discrete(workflow, sharing, disc,
                                     disc.discretize(window), cfg.learning,
                                     cfg.leak_l, cfg.learn);
  }
  save_kert_discrete(out, workflow, sharing, disc, cfg.leak_l, result.net);
  return out.str();
}

/// Every rebuild over 120 seeded scenarios — continuous and discrete,
/// incremental and full-recount managers, all through the guarded
/// scheduled path — serves a model whose text is byte-identical to the
/// freshly translated build from the same window.
TEST(SkeletonCache, RebuiltModelsMatchUncachedBuildAcrossScenarios) {
  sim::ScenarioFamilyOptions opts;
  opts.min_services = 3;
  opts.max_services = 6;
  const sim::ScenarioFamily family(0x5CE1u, opts);
  const sim::ModelSchedule schedule{1.0, 6, 3};  // 18-row window
  const std::size_t total = schedule.points_per_window() * 2 + 6;
  std::size_t rebuilds = 0;
  std::size_t incremental = 0;
  std::size_t full = 0;
  for (std::size_t i = 0; i < 120; ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const bool discrete = i % 2 == 1;
    const bool use_stats = (i / 2) % 2 == 0;
    const sim::Scenario s = family.make(i);
    sim::SyntheticEnvironment env = s.make_environment();
    Rng rng(s.seed ^ 0x5EEDu);
    const bn::Dataset data = env.generate(total, rng);

    ModelManager::Config cfg;
    cfg.schedule = schedule;
    cfg.bins = discrete ? 3 : 0;
    cfg.incremental = use_stats;
    cfg.discretizer_range_tolerance = 5.0;
    ModelManager manager(env.workflow(), env.sharing(), cfg);

    for (std::size_t r = 0; r < total; ++r) {
      manager.observe_row(data.row(r));
      const std::size_t last = r + 1;
      const std::size_t first = last > schedule.points_per_window()
                                    ? last - schedule.points_per_window()
                                    : 0;
      const bn::Dataset window = data.slice_rows(first, last);
      const auto rec =
          manager.maybe_reconstruct(static_cast<double>(last), window);
      if (!rec.has_value()) continue;
      ++rebuilds;
      (rec->incremental ? incremental : full) += 1;
      ASSERT_EQ(manager.export_model_text(),
                uncached_model_text(manager, env.sharing(), *rec, window))
          << "rebuild v" << rec->version;
    }
  }
  EXPECT_GE(rebuilds, 120u * 4u);
  // Both build paths ran often enough to mean something.
  EXPECT_GE(incremental, 100u);
  EXPECT_GE(full, 100u);
}

/// seq(a, b, c) drifts to par(a, b, c): f(X) and the upstream edges both
/// change, so a stale skeleton would keep the old function or the old
/// structure.
TEST(SkeletonCache, UpdateWorkflowRetranslatesTheKnowledge) {
  const std::vector<std::string> names{"a", "b", "c"};
  const auto sequence = wf::Node::sequence({wf::Node::activity(0),
                                            wf::Node::activity(1),
                                            wf::Node::activity(2)});
  const auto parallel = wf::Node::parallel({wf::Node::activity(0),
                                            wf::Node::activity(1),
                                            wf::Node::activity(2)});
  const wf::Workflow before(names, sequence);
  const wf::Workflow after(names, parallel);
  const std::string f_before = make_response_fn(before).expression;
  const std::string f_after = make_response_fn(after).expression;
  ASSERT_NE(f_before, f_after);

  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "full");
    std::vector<sim::ServiceModel> models(3);
    models[0] = {0.10, 0.01, 0.0, 0.0};
    models[1] = {0.20, 0.02, 0.0, 0.0};
    models[2] = {0.30, 0.03, 0.0, 0.0};
    sim::SyntheticEnvironment seq_env(before, {}, models);
    ModelManager::Config cfg;
    cfg.schedule = sim::ModelSchedule{10.0, 12, 3};
    cfg.incremental = incremental;
    ModelManager manager(before, {}, cfg);
    Rng rng(17);
    const bn::Dataset window = seq_env.generate(36, rng);
    for (std::size_t r = 0; r < window.rows(); ++r) {
      manager.observe_row(window.row(r));
    }
    ASSERT_TRUE(manager.maybe_reconstruct(120.0, window).has_value());
    EXPECT_NE(manager.model().describe().find(f_before), std::string::npos);

    manager.update_workflow(after);
    ASSERT_TRUE(manager.maybe_reconstruct(240.0, window).has_value());
    const std::string described = manager.model().describe();
    EXPECT_NE(described.find(f_after), std::string::npos) << described;
    EXPECT_EQ(described.find(f_before), std::string::npos) << described;
    EXPECT_TRUE(manager.model().dag().same_structure(
        make_kert_skeleton(after, {}).net.dag()));

    ModelManager fresh(after, {}, cfg);
    fresh.reconstruct(120.0, window);
    EXPECT_EQ(manager.export_model_text(), fresh.export_model_text());
  }
}

ModelManager::Config publishing_config(std::size_t bins) {
  ModelManager::Config cfg;
  cfg.schedule = sim::ModelSchedule{10.0, 12, 3};
  cfg.bins = bins;
  cfg.publish_snapshots = true;
  return cfg;
}

/// The published snapshot is the committed model itself, not a copy.
TEST(SkeletonCache, PublishedSnapshotSharesTheManagersModel) {
  for (const std::size_t bins : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("bins " + std::to_string(bins));
    sim::SyntheticEnvironment env = sim::make_ediamond_environment();
    ModelManager manager(env.workflow(), env.sharing(),
                         publishing_config(bins));
    Rng rng(23);
    for (int k = 1; k <= 3; ++k) {
      ASSERT_TRUE(
          manager.maybe_reconstruct(120.0 * k, env.generate(120, rng)));
      const auto snap = manager.snapshot_slot().acquire();
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(&snap->net, &manager.model());
      EXPECT_EQ(snap->model.get(), &manager.model());
      EXPECT_EQ(snap->version, manager.version());
      EXPECT_EQ(snap->has_tree(), bins > 0);
    }
  }
}

/// A guarded rebuild that fails leaves the published snapshot — and the
/// serving model under it — exactly where they were.
TEST(SkeletonCache, RolledBackRebuildKeepsThePublishedModel) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ov::CancellationSource cancel;
  ModelManager::Config cfg = publishing_config(0);
  cfg.cancel = cancel.token().flag();
  ModelManager manager(env.workflow(), env.sharing(), cfg);
  Rng rng(29);
  ASSERT_TRUE(manager.maybe_reconstruct(120.0, env.generate(36, rng)));
  const auto published = manager.snapshot_slot().acquire();
  const bn::BayesianNetwork* serving = &manager.model();
  const std::string text = manager.export_model_text();
  const auto unchanged = [&] {
    EXPECT_EQ(manager.snapshot_slot().acquire(), published);
    EXPECT_EQ(&manager.model(), serving);
    EXPECT_EQ(manager.version(), 1u);
    EXPECT_EQ(manager.export_model_text(), text);
  };

  // A NaN in the window: rejected before any build.
  bn::Dataset poisoned = env.generate(36, rng);
  std::vector<double> bad(poisoned.cols(), 1.0);
  bad[3] = std::nan("");
  poisoned.add_row(bad);
  EXPECT_FALSE(manager.maybe_reconstruct(240.0, poisoned));
  EXPECT_EQ(manager.last_failure_reason(), "non-finite value in window");
  unchanged();

  // Cancelled mid-build: the partial candidate is dropped unprobed.
  cancel.request_cancel();
  EXPECT_FALSE(manager.maybe_reconstruct(360.0, env.generate(36, rng)));
  EXPECT_EQ(manager.aborted_reconstructions(), 1u);
  unchanged();

  // The next clean build commits and publishes a new model.
  cancel.reset();
  ASSERT_TRUE(manager.maybe_reconstruct(480.0, env.generate(36, rng)));
  EXPECT_NE(manager.snapshot_slot().acquire(), published);
  EXPECT_EQ(&manager.snapshot_slot().acquire()->net, &manager.model());
  EXPECT_EQ(manager.version(), 2u);
}

}  // namespace
}  // namespace kertbn::core
