// Property tests for ArenaSolver's basis handling and arena limits: a
// solver reused across a drifting sequence must answer like the reference
// — never crash, never return a silently suboptimal "optimal" — and a
// configured byte cap must surface as the typed
// SolveStatus::kArenaExhausted with no incumbent. Bitwise reuse is held in
// solver_differential_test.cpp, beside the random corpus it replays.

#include "lp/arena_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "lp/milp.hpp"
#include "oracle/milp_reference.hpp"

namespace billcap::lp {
namespace {

/// min x + 2y  s.t. x + y >= rhs, both binary-scaled integers optional.
Problem two_var_problem(double rhs, bool integers = false) {
  Problem p;
  const int x = p.add_variable("x", 0.0, 10.0, 1.0, integers);
  const int y = p.add_variable("y", 0.0, 10.0, 2.0, integers);
  p.add_constraint("cover", {{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual,
                   rhs);
  return p;
}

/// A structurally different shape: three variables, two rows, a binary.
Problem three_var_problem(double rhs) {
  Problem p;
  const int x = p.add_variable("x", 0.0, 5.0, 1.0);
  const int y = p.add_variable("y", 0.0, 5.0, 3.0);
  const int z = p.add_binary("z", 2.0);
  p.add_constraint("cover", {{x, 1.0}, {y, 1.0}, {z, 4.0}},
                   Relation::kGreaterEqual, rhs);
  p.add_constraint("mix", {{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 2.0);
  return p;
}

TEST(ArenaSolverTest, ReusedSolverMatchesReferenceOnRhsDrift) {
  ArenaSolver reused;
  for (int k = 0; k < 12; ++k) {
    const double rhs = 1.0 + 0.7 * k;
    const Problem p = two_var_problem(rhs, /*integers=*/true);
    const Solution got = reused.solve(p);
    const Solution want = solve_milp_reference(p);
    ASSERT_EQ(got.status, want.status) << k;
    EXPECT_NEAR(got.objective, want.objective, 1e-9) << k;
  }
}

TEST(ArenaSolverTest, ArenaExhaustionIsTypedAndRecoverable) {
  // A cap far below any real tableau: the solve must refuse to allocate,
  // return the typed status, and leave no bogus incumbent behind.
  ArenaSolver tiny;
  const MilpOptions cap{.max_arena_bytes = 64};
  const Problem p = three_var_problem(4.0);
  const Solution s = tiny.solve(p, cap);
  EXPECT_EQ(s.status, SolveStatus::kArenaExhausted);
  EXPECT_FALSE(s.has_incumbent());
  EXPECT_STREQ(to_string(s.status), "arena_exhausted");

  // The same solver keeps answering (typed, not crashed) on later calls,
  // and an uncapped solver solves the identical problem fine.
  EXPECT_EQ(tiny.solve(p, cap).status, SolveStatus::kArenaExhausted);
  ArenaSolver roomy;
  EXPECT_EQ(roomy.solve(p).status, SolveStatus::kOptimal);
}

TEST(ArenaSolverTest, GenerousCapStillSolves) {
  // A cap big enough for the tableau must not trip: the cap bounds the
  // footprint, it does not tax successful solves.
  ArenaSolver capped;
  const Problem p = three_var_problem(4.0);
  const Solution s = capped.solve(p, MilpOptions{.max_arena_bytes = 1 << 20});
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(capped.arena_bytes(), static_cast<std::size_t>(1) << 20);
}

TEST(ArenaSolverTest, StatsCountersAccountForNodeWarmStarts) {
  // A MILP with enough branching to exercise the node-warm path: children
  // re-solved by dual simplex must show up in node_warm_solves.
  Problem p;
  std::vector<Term> knap;
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> w(1.0, 5.0);
  for (int j = 0; j < 10; ++j) {
    const double weight = w(rng);
    p.add_binary("b" + std::to_string(j), -weight * 0.9);
    knap.push_back({j, weight});
  }
  p.add_constraint("cap", std::move(knap), Relation::kLessEqual, 12.0);
  ArenaSolver solver;
  const Solution s = solver.solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GT(solver.stats().nodes_explored, 1);
  EXPECT_GT(solver.stats().node_warm_solves, 0);
  EXPECT_GT(solver.stats().dual_iterations, 0);
  // And it agrees with the reference.
  const Solution want = solve_milp_reference(p);
  EXPECT_NEAR(s.objective, want.objective, 1e-9);
}

TEST(ArenaSolverTest, ReusedSolverNeverSilentlySuboptimalUnderRandomDrift) {
  // Property sweep: one reused solver, 60 solves whose rhs and costs drift
  // randomly (occasionally into infeasibility). Every claimed optimum is
  // re-verified against a fresh reference solve; every infeasibility claim
  // must match the reference too.
  std::mt19937 rng(2026);
  std::uniform_real_distribution<double> rhs_draw(-2.0, 14.0);
  std::uniform_real_distribution<double> cost_draw(0.5, 3.0);
  ArenaSolver reused;
  for (int k = 0; k < 60; ++k) {
    Problem p;
    const int x = p.add_variable("x", 0.0, 4.0, cost_draw(rng), true);
    const int y = p.add_variable("y", 0.0, 4.0, cost_draw(rng), true);
    const int z = p.add_variable("z", 0.0, 4.0, cost_draw(rng));
    p.add_constraint("cover", {{x, 1.0}, {y, 1.0}, {z, 1.0}},
                     Relation::kGreaterEqual, rhs_draw(rng));
    p.add_constraint("cap", {{x, 1.0}, {y, 2.0}}, Relation::kLessEqual, 9.0);
    const Solution got = reused.solve(p);
    const Solution want = solve_milp_reference(p);
    ASSERT_EQ(got.status, want.status) << "k=" << k;
    if (want.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(got.objective, want.objective, 1e-9) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace billcap::lp
