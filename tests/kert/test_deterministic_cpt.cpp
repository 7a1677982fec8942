/// make_deterministic_cpt's batched pass against the per-sample loop it
/// replaced: every CPT cell must be byte-identical, because the D-CPT is
/// part of every discrete model's identity (golden files, skeleton cache,
/// rebuild equivalence).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "workflow/generator.hpp"

namespace kertbn::core {
namespace {

/// The per-sample construction as it stood before the batched pass: one
/// Rng::uniform(lo, hi) per (configuration, sample, service), one
/// Expr::evaluate and one bin_of per sample.
bn::TabularCpd oracle_cpt(const wf::Workflow& workflow,
                          const DatasetDiscretizer& discretizer,
                          double leak_l, std::size_t samples_per_config) {
  const std::size_t n = workflow.service_count();
  const std::size_t bins = discretizer.bins();
  const wf::Expr::Ptr expr = workflow.response_time_expr();

  std::size_t configs = 1;
  for (std::size_t i = 0; i < n; ++i) configs *= bins;

  std::vector<double> table(configs * bins, 0.0);
  std::vector<std::size_t> states(n, 0);
  std::vector<double> point(n, 0.0);
  const double off_mass = leak_l / static_cast<double>(bins);
  Rng rng(0x5EED5EED);

  for (std::size_t cfg = 0; cfg < configs; ++cfg) {
    double* row = table.data() + cfg * bins;
    const double hit_mass =
        (1.0 - leak_l) / static_cast<double>(samples_per_config);
    for (std::size_t k = 0; k < samples_per_config; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        if (samples_per_config == 1) {
          point[i] = discretizer.column(i).center_of(states[i]);
        } else {
          const auto [lo, hi] = discretizer.column(i).interval_of(states[i]);
          point[i] = rng.uniform(lo, std::max(hi, lo + 1e-12));
        }
      }
      row[discretizer.column(n).bin_of(expr->evaluate(point))] += hit_mass;
    }
    for (std::size_t s = 0; s < bins; ++s) row[s] += off_mass;
    for (std::size_t i = n; i-- > 0;) {
      if (++states[i] < bins) break;
      states[i] = 0;
    }
  }
  return bn::TabularCpd(bins, std::vector<std::size_t>(n, bins),
                        std::move(table));
}

/// Construct mix with choice, loop, map and data-choice raised so that
/// blend and scale nodes occur alongside sums and maxes.
wf::GeneratorOptions mixed_constructs() {
  wf::GeneratorOptions opts;
  opts.sequence_weight = 0.35;
  opts.parallel_weight = 0.25;
  opts.choice_weight = 0.2;
  opts.map_weight = 0.1;
  opts.data_choice_weight = 0.1;
  opts.loop_probability = 0.3;
  return opts;
}

/// Services with spread-out scales and D = f(X), so D's bin edges cut
/// through the range f actually reaches.
bn::Dataset training_window(const wf::Workflow& workflow, Rng& rng) {
  const std::size_t n = workflow.service_count();
  std::vector<std::string> names = workflow.service_names();
  names.push_back("D");
  bn::Dataset data(names);
  std::vector<double> scale(n);
  for (double& s : scale) s = rng.uniform(0.01, 2.0);
  const wf::Expr::Ptr f = workflow.response_time_expr();
  std::vector<double> row(n + 1);
  for (int r = 0; r < 240; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = scale[i] * rng.lognormal(0.0, 0.5);
    }
    row[n] = f->evaluate(std::span<const double>(row).first(n));
    data.add_row(row);
  }
  return data;
}

void collect_kinds(const wf::Expr& e, std::set<wf::ExprKind>& kinds) {
  kinds.insert(e.kind());
  for (const auto& c : e.children()) collect_kinds(*c, kinds);
}

TEST(DeterministicCpt, BatchedPassByteIdenticalToPerSampleOracle) {
  Rng rng(0xC0FFEE);
  std::set<wf::ExprKind> kinds;
  std::size_t cells = 0;
  for (std::size_t n = 2; n <= 7; ++n) {
    for (int rep = 0; rep < 2; ++rep) {
      const wf::Workflow workflow =
          wf::make_random_workflow(n, rng, mixed_constructs());
      collect_kinds(*workflow.response_time_expr(), kinds);
      const bn::Dataset data = training_window(workflow, rng);
      for (std::size_t bins : {2, 3, 4}) {
        const DatasetDiscretizer disc(data, bins);
        for (std::size_t samples : {1, 7, 64}) {
          for (double leak : {0.0, 0.05}) {
            const bn::TabularCpd got =
                make_deterministic_cpt(workflow, disc, leak, samples);
            const bn::TabularCpd want =
                oracle_cpt(workflow, disc, leak, samples);
            ASSERT_EQ(got.config_count(), want.config_count());
            ASSERT_EQ(got.child_cardinality(), want.child_cardinality());
            for (std::size_t cfg = 0; cfg < want.config_count(); ++cfg) {
              for (std::size_t s = 0; s < bins; ++s) {
                const double a = got.probability(cfg, s);
                const double b = want.probability(cfg, s);
                ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                    << "n=" << n << " rep=" << rep << " bins=" << bins
                    << " samples=" << samples << " leak=" << leak
                    << " cfg=" << cfg << " state=" << s << ": " << a
                    << " vs " << b;
                ++cells;
              }
            }
          }
        }
      }
    }
  }
  // The seeded trees exercise every operation the lane evaluator runs.
  for (wf::ExprKind k : {wf::ExprKind::kSum, wf::ExprKind::kMax,
                         wf::ExprKind::kBlend, wf::ExprKind::kScale}) {
    EXPECT_TRUE(kinds.count(k) == 1) << "no node of kind "
                                     << static_cast<int>(k);
  }
  EXPECT_GT(cells, 100000u);
}

}  // namespace
}  // namespace kertbn::core
