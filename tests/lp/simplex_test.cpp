#include "oracle/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace billcap::lp {
namespace {

TEST(SimplexTest, TextbookMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  (2, 6), obj 36.
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInfinity, 3.0);
  const int y = p.add_variable("y", 0, kInfinity, 5.0);
  p.add_constraint("c1", {{x, 1.0}}, Relation::kLessEqual, 4.0);
  p.add_constraint("c2", {{y, 2.0}}, Relation::kLessEqual, 12.0);
  p.add_constraint("c3", {{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0, 1e-8);
}

TEST(SimplexTest, MinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2  ->  x = 10 - y... optimal y = 8?
  // Coefficient of x (2) < y (3) so push x: x = 8, y = ... x + y >= 10 with
  // x cheap: x = 10, y = 0 but x >= 2 nonbinding. obj = 20.
  Problem p;
  const int x = p.add_variable("x", 0, kInfinity, 2.0);
  const int y = p.add_variable("y", 0, kInfinity, 3.0);
  p.add_constraint("demand", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual,
                   10.0);
  p.add_constraint("xmin", {{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 20.0, 1e-8);
  EXPECT_NEAR(s.x[0], 10.0, 1e-8);
  EXPECT_NEAR(s.x[1], 0.0, 1e-8);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + 2y  s.t. x + y = 5, y >= 1  ->  x = 4, y = 1, obj 6.
  Problem p;
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  const int y = p.add_variable("y", 1.0, kInfinity, 2.0);
  p.add_constraint("sum", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 5.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 6.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
  EXPECT_NEAR(s.x[1], 1.0, 1e-8);
}

TEST(SimplexTest, DetectsInfeasible) {
  Problem p;
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  p.add_constraint("lo", {{x, 1.0}}, Relation::kGreaterEqual, 5.0);
  p.add_constraint("hi", {{x, 1.0}}, Relation::kLessEqual, 3.0);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  p.add_constraint("lo", {{x, 1.0}}, Relation::kGreaterEqual, 1.0);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, RespectsUpperBounds) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  p.add_variable("x", 0, 7.5, 1.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 7.5, 1e-8);
}

TEST(SimplexTest, FixedVariableStaysFixed) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 3.0, 3.0, 10.0);
  const int y = p.add_variable("y", 0, kInfinity, 1.0);
  p.add_constraint("cap", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 10.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
  EXPECT_NEAR(s.x[1], 7.0, 1e-8);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x  with  x >= -5  ->  x = -5.
  Problem p;
  p.add_variable("x", -5.0, kInfinity, 1.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
  EXPECT_NEAR(s.objective, -5.0, 1e-8);
}

TEST(SimplexTest, FreeVariable) {
  // min (x - 3)^1 ... linear: min x s.t. x >= -inf with x + y = 1, y in
  // [0, 4]: x = 1 - y, minimized at y = 4 -> x = -3.
  Problem p;
  const int x = p.add_variable("x", -kInfinity, kInfinity, 1.0);
  const int y = p.add_variable("y", 0.0, 4.0);
  p.add_constraint("link", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 1.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[x], -3.0, 1e-8);
  EXPECT_NEAR(s.x[y], 4.0, 1e-8);
}

TEST(SimplexTest, MirroredVariableUpperBoundOnly) {
  // max x  with  x <= 9 and lower bound -inf.
  Problem p;
  p.set_sense(Sense::kMaximize);
  p.add_variable("x", -kInfinity, 9.0, 1.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 9.0, 1e-8);
}

TEST(SimplexTest, ObjectiveConstantIncluded) {
  Problem p;
  p.add_variable("x", 2.0, 10.0, 1.0);
  p.set_objective_constant(100.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 102.0, 1e-8);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic Beale cycling example; the stall->Bland switch must terminate.
  Problem p;
  p.set_sense(Sense::kMinimize);
  const int x1 = p.add_variable("x1", 0, kInfinity, -0.75);
  const int x2 = p.add_variable("x2", 0, kInfinity, 150.0);
  const int x3 = p.add_variable("x3", 0, kInfinity, -0.02);
  const int x4 = p.add_variable("x4", 0, kInfinity, 6.0);
  p.add_constraint("r1", {{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint("r2", {{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint("r3", {{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -0.05, 1e-8);
}

TEST(SimplexTest, DualsOfEqualityRow) {
  // min 2x + 3y  s.t. x + y = 10  ->  all mass on x, dual = 2 (cost of one
  // more unit of demand).
  Problem p;
  const int x = p.add_variable("x", 0, kInfinity, 2.0);
  const int y = p.add_variable("y", 0, kInfinity, 3.0);
  p.add_constraint("demand", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 10.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s.duals.size(), 1u);
  EXPECT_NEAR(s.duals[0], 2.0, 1e-8);
}

TEST(SimplexTest, DualsMatchFiniteDifference) {
  // Perturb each rhs and compare the dual against the objective delta.
  Problem p;
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  const int y = p.add_variable("y", 0, kInfinity, 4.0);
  p.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 8.0);
  p.add_constraint("c2", {{x, 1.0}}, Relation::kLessEqual, 5.0);
  const Solution base = solve_lp(p);
  ASSERT_TRUE(base.ok());
  const double eps = 1e-4;

  for (int row = 0; row < p.num_constraints(); ++row) {
    // Rebuild with perturbed rhs.
    Problem r;
    r.add_variable("x", 0, kInfinity, 1.0);
    r.add_variable("y", 0, kInfinity, 4.0);
    r.add_constraint("c1", {{0, 1.0}, {1, 1.0}}, Relation::kGreaterEqual,
                     8.0 + (row == 0 ? eps : 0.0));
    r.add_constraint("c2", {{0, 1.0}}, Relation::kLessEqual,
                     5.0 + (row == 1 ? eps : 0.0));
    const Solution pert = solve_lp(r);
    ASSERT_TRUE(pert.ok());
    EXPECT_NEAR((pert.objective - base.objective) / eps, base.duals[static_cast<std::size_t>(row)],
                1e-5)
        << "row " << row;
  }
}

TEST(SimplexTest, DualsForMaximizationSense) {
  // max 3x s.t. x <= 4: one more unit of capacity is worth 3.
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInfinity, 3.0);
  p.add_constraint("cap", {{x, 1.0}}, Relation::kLessEqual, 4.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.duals[0], 3.0, 1e-8);
}

TEST(SimplexTest, StrongDualityOnRandomProblems) {
  // For feasible bounded min problems with x >= 0 and only row constraints,
  // strong duality: c'x* == y*'b.
  util::Rng rng(1234);
  int solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Problem p;
    const int n = 2 + static_cast<int>(rng.below(4));
    const int m = 1 + static_cast<int>(rng.below(4));
    for (int j = 0; j < n; ++j)
      p.add_variable("x" + std::to_string(j), 0.0, kInfinity,
                     rng.uniform(0.1, 5.0));  // positive costs => bounded
    for (int i = 0; i < m; ++i) {
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j) {
        if (rng.bernoulli(0.7))
          terms.push_back({j, rng.uniform(0.1, 3.0)});  // nonneg coefs
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      // >= rows keep the problem feasible (x can grow) and bounded (c > 0).
      p.add_constraint("r" + std::to_string(i), std::move(terms),
                       Relation::kGreaterEqual, rng.uniform(1.0, 20.0));
    }
    const Solution s = solve_lp(p);
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    ++solved;
    double dual_obj = 0.0;
    for (int i = 0; i < m; ++i)
      dual_obj += s.duals[static_cast<std::size_t>(i)] * p.constraint(i).rhs;
    EXPECT_NEAR(dual_obj, s.objective, 1e-6 * std::max(1.0, std::abs(s.objective)))
        << "trial " << trial;
    EXPECT_TRUE(p.is_feasible(s.x, 1e-6)) << "trial " << trial;
  }
  EXPECT_EQ(solved, 200);
}

TEST(SimplexTest, RandomProblemsNoSampledPointBeatsOptimum) {
  // Feasible random sampling can never beat the reported optimum.
  util::Rng rng(999);
  for (int trial = 0; trial < 100; ++trial) {
    Problem p;
    const int n = 2 + static_cast<int>(rng.below(3));
    for (int j = 0; j < n; ++j)
      p.add_variable("x" + std::to_string(j), 0.0, rng.uniform(1.0, 10.0),
                     rng.uniform(-5.0, 5.0));
    const int m = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < m; ++i) {
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j) terms.push_back({j, rng.uniform(-2.0, 2.0)});
      p.add_constraint("r" + std::to_string(i), std::move(terms),
                       Relation::kLessEqual, rng.uniform(1.0, 15.0));
    }
    const Solution s = solve_lp(p);
    if (!s.ok()) continue;  // random box may be infeasible; fine
    ASSERT_TRUE(p.is_feasible(s.x, 1e-6));
    for (int k = 0; k < 200; ++k) {
      std::vector<double> cand(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j)
        cand[static_cast<std::size_t>(j)] =
            rng.uniform(p.variable(j).lower, p.variable(j).upper);
      if (!p.is_feasible(cand, 1e-9)) continue;
      EXPECT_GE(p.objective_value(cand), s.objective - 1e-6)
          << "trial " << trial;
    }
  }
}

TEST(SimplexTest, IterationLimitReported) {
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  const int y = p.add_variable("y", 0, kInfinity, 1.0);
  p.add_constraint("c", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 1.0);
  SimplexOptions opts;
  opts.max_iterations = 0;
  EXPECT_EQ(solve_lp(p, opts).status, SolveStatus::kIterationLimit);
}

TEST(SimplexTest, RedundantEqualityRowsHandled) {
  // Duplicate equality rows leave a basic artificial on a redundant row.
  Problem p;
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  const int y = p.add_variable("y", 0, kInfinity, 1.0);
  p.add_constraint("e1", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 4.0);
  p.add_constraint("e2", {{x, 1.0}, {y, 1.0}}, Relation::kEqual, 4.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
}

TEST(SimplexTest, ZeroObjectiveFindsFeasiblePoint) {
  Problem p;
  const int x = p.add_variable("x", 0, kInfinity);
  p.add_constraint("c", {{x, 2.0}}, Relation::kEqual, 6.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
}

// ---- regression tests for the anchored ratio-test tie-break ------------
// choose_leaving once compared each candidate against a drifting "best so
// far" window (ratio <= best + eps with best updated inside the scan), so
// a chain of near-ties could walk the window away from the true minimum
// ratio and pick a leaving row whose step was strictly negative. The rule
// is now two-pass: exact minimum first, then the smallest basis index
// within a fixed epsilon of it. These tests pin that behavior.

TEST(SimplexTest, ExactlyTiedRatiosPickAValidPivot) {
  // Four rows with the identical minimum ratio for the entering column:
  // any of them is a legal pivot; the tie-break must stay within the tied
  // set and reach the optimum. max x + y s.t. x <= 3 (four copies),
  // x + y <= 5  ->  (3, 2), obj 5... all four x-rows tie at ratio 3.
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  const int y = p.add_variable("y", 0, kInfinity, 1.0);
  for (int k = 0; k < 4; ++k)
    p.add_constraint("cap" + std::to_string(k), {{x, 1.0}},
                     Relation::kLessEqual, 3.0);
  p.add_constraint("sum", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 5.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 5.0, 1e-8);
}

TEST(SimplexTest, NearTieChainCannotDriftPastTheMinimum) {
  // Ratios at r, r+eps, r+2*eps, ... with eps just inside the tie window:
  // under the drifting-window rule the accepted set could creep upward
  // row by row; the anchored rule only ever admits ratios within one
  // epsilon of the exact minimum. The solve must end at the true optimum
  // with a feasible x.
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInfinity, 1.0);
  for (int k = 0; k < 6; ++k) {
    // x <= 2 + k * 4e-13: each successive row's ratio is one near-tie step
    // above the previous one.
    p.add_constraint("cap" + std::to_string(k), {{x, 1.0}},
                     Relation::kLessEqual, 2.0 + 4e-13 * k);
  }
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_LE(s.x[0], 2.0 + 1e-8);  // the binding row is the tightest one
}

TEST(SimplexTest, BealeCyclingExampleTerminates) {
  // Beale's classic cycling LP: Dantzig entering with a careless leaving
  // tie-break cycles forever among degenerate bases. The anchored
  // tie-break plus the Bland fallback must terminate at the optimum
  // (objective -1/20).
  Problem p;
  const int x1 = p.add_variable("x1", 0, kInfinity, -0.75);
  const int x2 = p.add_variable("x2", 0, kInfinity, 150.0);
  const int x3 = p.add_variable("x3", 0, kInfinity, -0.02);
  const int x4 = p.add_variable("x4", 0, kInfinity, 6.0);
  p.add_constraint("r1", {{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0},
                          {x4, 9.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint("r2", {{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0},
                          {x4, 3.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint("r3", {{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, -0.05, 1e-8);
}

TEST(SimplexTest, DegenerateVertexStillOptimal) {
  // Three constraints meeting at one degenerate vertex of a 2-D feasible
  // set: zero-step pivots must not stall or misreport.
  Problem p;
  p.set_sense(Sense::kMaximize);
  const int x = p.add_variable("x", 0, kInfinity, 2.0);
  const int y = p.add_variable("y", 0, kInfinity, 1.0);
  p.add_constraint("a", {{x, 1.0}}, Relation::kLessEqual, 1.0);
  p.add_constraint("b", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 1.0);
  p.add_constraint("c", {{x, 2.0}, {y, 1.0}}, Relation::kLessEqual, 2.0);
  const Solution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
  EXPECT_NEAR(s.x[0], 1.0, 1e-8);
  EXPECT_NEAR(s.x[1], 0.0, 1e-8);
}

}  // namespace
}  // namespace billcap::lp
