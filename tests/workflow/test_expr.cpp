#include "workflow/expr.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"

namespace kertbn::wf {
namespace {

TEST(Expr, ServiceLeafEvaluates) {
  const auto e = Expr::service(2);
  const double times[] = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(e->evaluate(times), 3.0);
  EXPECT_EQ(e->kind(), ExprKind::kService);
  EXPECT_EQ(e->service_index(), 2u);
}

TEST(Expr, ConstantEvaluates) {
  const auto e = Expr::constant(0.25);
  EXPECT_DOUBLE_EQ(e->evaluate({}), 0.25);
}

TEST(Expr, SumOfServices) {
  const auto e = Expr::sum({Expr::service(0), Expr::service(1)});
  const double times[] = {1.5, 2.5};
  EXPECT_DOUBLE_EQ(e->evaluate(times), 4.0);
}

TEST(Expr, MaxPicksSlowerBranch) {
  const auto e = Expr::max({Expr::service(0), Expr::service(1)});
  const double a[] = {3.0, 1.0};
  const double b[] = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(e->evaluate(a), 3.0);
  EXPECT_DOUBLE_EQ(e->evaluate(b), 3.0);
}

TEST(Expr, BlendIsExpectation) {
  const auto e = Expr::blend({Expr::service(0), Expr::service(1)},
                             {0.25, 0.75});
  const double times[] = {4.0, 8.0};
  EXPECT_DOUBLE_EQ(e->evaluate(times), 1.0 + 6.0);
}

TEST(Expr, ScaleMultiplies) {
  const auto e = Expr::scale(2.5, Expr::service(0));
  const double times[] = {2.0};
  EXPECT_DOUBLE_EQ(e->evaluate(times), 5.0);
  EXPECT_DOUBLE_EQ(e->scale_factor(), 2.5);
}

TEST(Expr, SingleChildCollapses) {
  // sum/max/blend of one child return the child itself.
  const auto leaf = Expr::service(1);
  EXPECT_EQ(Expr::sum({leaf}), leaf);
  EXPECT_EQ(Expr::max({leaf}), leaf);
  EXPECT_EQ(Expr::blend({leaf}, {1.0}), leaf);
}

TEST(Expr, NestedEdiamondShape) {
  // X0 + X1 + max(X2 + X4, X3 + X5).
  const auto e = Expr::sum(
      {Expr::service(0), Expr::service(1),
       Expr::max({Expr::sum({Expr::service(2), Expr::service(4)}),
                  Expr::sum({Expr::service(3), Expr::service(5)})})});
  const double times[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_NEAR(e->evaluate(times), 0.1 + 0.2 + 1.0, 1e-12);
}

TEST(Expr, ReferencedServicesSortedUnique) {
  const auto e = Expr::sum(
      {Expr::service(3), Expr::service(1),
       Expr::max({Expr::service(3), Expr::service(0)})});
  EXPECT_EQ(e->referenced_services(), (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Expr, LinearityDetection) {
  EXPECT_TRUE(Expr::service(0)->is_linear());
  EXPECT_TRUE(Expr::sum({Expr::service(0), Expr::service(1)})->is_linear());
  EXPECT_TRUE(Expr::blend({Expr::service(0), Expr::service(1)}, {0.5, 0.5})
                  ->is_linear());
  EXPECT_TRUE(Expr::scale(2.0, Expr::service(0))->is_linear());
  EXPECT_FALSE(Expr::max({Expr::service(0), Expr::service(1)})->is_linear());
  EXPECT_FALSE(
      Expr::sum({Expr::service(0),
                 Expr::max({Expr::service(1), Expr::service(2)})})
          ->is_linear());
}

TEST(Expr, ToStringWithNames) {
  const std::vector<std::string> names{"a", "b"};
  const auto e = Expr::sum({Expr::service(0), Expr::service(1)});
  EXPECT_EQ(e->to_string(names), "a + b");
}

TEST(Expr, ToStringFallsBackToIndices) {
  const auto e = Expr::max({Expr::service(0), Expr::service(7)});
  EXPECT_EQ(e->to_string(), "max(X0, X7)");
}

/// Every lane of \p lanes must equal evaluate() at that lane's point, bit
/// for bit, over a few rounds of fresh seeded points.
void expect_lanes_match_evaluate(const Expr& e, std::size_t services,
                                 std::size_t lanes) {
  LaneEvaluator f(e, services, lanes);
  kertbn::Rng rng(17);
  std::vector<double> point(services);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t s = 0; s < services; ++s) {
      for (double& x : f.service_lanes(s)) x = rng.uniform(-0.5, 3.0);
    }
    const std::span<const double> got = f.run();
    ASSERT_EQ(got.size(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t s = 0; s < services; ++s) {
        point[s] = f.service_lanes(s)[l];
      }
      const double want = e.evaluate(point);
      EXPECT_EQ(std::memcmp(&got[l], &want, sizeof want), 0)
          << "round " << round << " lane " << l << ": " << got[l] << " vs "
          << want;
    }
  }
}

TEST(LaneEvaluator, EveryOperationMatchesEvaluateBitForBit) {
  // Constants, a repeated leaf, and each operation nested under the others.
  const auto e = Expr::sum(
      {Expr::constant(0.125), Expr::service(2),
       Expr::max({Expr::service(0),
                  Expr::scale(1.7, Expr::blend({Expr::service(1),
                                                Expr::service(3),
                                                Expr::constant(-0.3)},
                                               {0.2, 0.7, 0.1})),
                  Expr::service(2)}),
       Expr::blend({Expr::sum({Expr::service(3), Expr::service(0)}),
                    Expr::service(1)},
                   {0.35, 0.65})});
  for (std::size_t lanes : {1, 7, 64}) {
    expect_lanes_match_evaluate(*e, 4, lanes);
  }
}

TEST(LaneEvaluator, LeafRootsPassThrough) {
  expect_lanes_match_evaluate(*Expr::service(1), 3, 5);
  expect_lanes_match_evaluate(*Expr::constant(2.5), 3, 5);
}

TEST(LaneEvaluator, RejectsLeafOutsideServices) {
  EXPECT_DEATH(LaneEvaluator(*Expr::service(3), 3, 4), "precondition");
}

TEST(Expr, BlendRequiresNormalizedProbs) {
  EXPECT_DEATH(Expr::blend({Expr::service(0), Expr::service(1)},
                           {0.5, 0.9}),
               "precondition");
}

}  // namespace
}  // namespace kertbn::wf
