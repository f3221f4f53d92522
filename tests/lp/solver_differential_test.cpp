// Differential test harness for the arena solver: lp::ArenaSolver against
// the legacy engine kept as a test oracle (solve_milp_reference and
// solve_lp, tests/oracle/) over seeded random LPs/MILPs of every status
// class plus the paper's real hourly problems. Both a fresh arena per
// problem and one arena reused across a structurally coherent sequence
// must agree with the reference on status and, when optimal, on the
// objective to 1e-9 relative; on pure LPs the duals must agree too. Well
// over 200 instances run per suite invocation. ArenaSolverTest.
// ReusedSolverMatchesFreshBitwise holds a reused arena to the fresh one's
// exact bits over the same corpus and a month of paper step-2 solves.

#include "lp/arena_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <span>
#include <vector>

#include "core/cost_minimizer.hpp"
#include "core/formulation.hpp"
#include "core/throughput_maximizer.hpp"
#include "datacenter/catalog.hpp"
#include "lp/milp.hpp"
#include "market/pricing_policy.hpp"
#include "oracle/milp_reference.hpp"
#include "oracle/simplex.hpp"

namespace billcap::lp {
namespace {

/// One differential comparison. `tag` names the instance in failures.
void expect_agrees(const Solution& ref, const Solution& arena,
                   const std::string& tag) {
  ASSERT_EQ(ref.status, arena.status)
      << tag << ": ref=" << to_string(ref.status)
      << " arena=" << to_string(arena.status);
  if (ref.status != SolveStatus::kOptimal) return;
  const double scale = std::max(1.0, std::abs(ref.objective));
  EXPECT_NEAR(ref.objective, arena.objective, 1e-9 * scale)
      << tag << ": objectives diverge";
}

/// Seeded random problem drawing from every variable kind the standard-form
/// builder distinguishes (finite lower, upper-only, free, bounded, binary)
/// and all three relations, both senses, with a sprinkle of integrality.
/// Infeasible and unbounded instances arise naturally from the draw.
Problem random_problem(std::mt19937& rng) {
  std::uniform_int_distribution<int> nv(1, 6), nc(1, 6), rel(0, 2);
  std::uniform_real_distribution<double> coef(-3.0, 3.0), rhs(-5.0, 5.0);
  std::uniform_int_distribution<int> quarter(0, 3), kind(0, 5);
  Problem p;
  const int n = nv(rng);
  for (int j = 0; j < n; ++j) {
    const int k = kind(rng);
    double lo = 0.0, hi = kInfinity;
    bool integer = quarter(rng) == 0;
    if (k == 0) {
      lo = 0.0; hi = 1.0;  // binary when the integer draw hits
    } else if (k == 1) {
      lo = -2.0; hi = 3.0;
    } else if (k == 2) {
      integer = false;  // plain nonnegative continuous
    } else if (k == 3) {
      lo = -kInfinity; hi = 2.0; integer = false;  // upper-only (mirrored)
    } else if (k == 4) {
      lo = -kInfinity; hi = kInfinity; integer = false;  // free (split)
    } else {
      lo = 1.0; hi = 4.0;
    }
    p.add_variable("x", lo, hi, coef(rng), integer);
  }
  const int m = nc(rng);
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j)
      if (quarter(rng) != 1) terms.push_back({j, coef(rng)});
    if (terms.empty()) terms.push_back({0, coef(rng)});
    p.add_constraint("c", terms, static_cast<Relation>(rel(rng)), rhs(rng));
  }
  if (quarter(rng) == 0) p.set_sense(Sense::kMaximize);
  return p;
}

TEST(SolverDifferentialTest, RandomInstancesAgreeCold) {
  std::mt19937 rng(12345);
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Problem p = random_problem(rng);
    const Solution ref = solve_milp_reference(p);
    ArenaSolver solver;  // fresh arena: pure cold path
    const Solution arena = solver.solve(p);
    expect_agrees(ref, arena, "cold iter " + std::to_string(iter));
    if (ref.status == SolveStatus::kOptimal) ++optimal;
    if (ref.status == SolveStatus::kInfeasible) ++infeasible;
    if (ref.status == SolveStatus::kUnbounded) ++unbounded;
  }
  // The draw must actually exercise every status class.
  EXPECT_GT(optimal, 100);
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unbounded, 20);
}

TEST(SolverDifferentialTest, RandomSequencesAgreeOnReusedSolver) {
  // Sequences of structurally identical problems whose objective costs and
  // rhs drift step to step, the shape of the hourly MILPs. One reused
  // arena per sequence; every step checked against the reference.
  std::mt19937 rng(777);
  std::uniform_real_distribution<double> dcost(-0.5, 0.5), drhs(-1.0, 1.0);
  for (int seq = 0; seq < 40; ++seq) {
    Problem p = random_problem(rng);
    ArenaSolver reused;
    for (int step = 0; step < 8; ++step) {
      if (step > 0) {
        for (int j = 0; j < p.num_variables(); ++j)
          p.set_objective(j, p.variable(j).objective + dcost(rng));
        for (int i = 0; i < p.num_constraints(); ++i)
          p.set_rhs(i, p.constraint(i).rhs + drhs(rng));
      }
      const Solution ref = solve_milp_reference(p);
      const Solution arena = reused.solve(p);
      expect_agrees(ref, arena,
                    "reused seq " + std::to_string(seq) + " step " +
                        std::to_string(step));
    }
  }
}

TEST(SolverDifferentialTest, DegenerateLpsAgree) {
  // Degeneracy on purpose: duplicated rows, zero rhs, and ties that make
  // several bases optimal. The anchored tie-break rule (see
  // Simplex::choose_leaving) must keep both engines on agreeing optima.
  std::mt19937 rng(4242);
  std::uniform_real_distribution<double> coef(-2.0, 2.0);
  std::uniform_int_distribution<int> nv(2, 5), coin(0, 1);
  for (int iter = 0; iter < 120; ++iter) {
    Problem p;
    const int n = nv(rng);
    for (int j = 0; j < n; ++j)
      p.add_variable("x", 0.0, 4.0, coef(rng), coin(rng) == 0 && j < 2);
    std::vector<Term> row;
    for (int j = 0; j < n; ++j) row.push_back({j, coef(rng)});
    // The same row three times, as <=, >= and (sometimes) = with rhs 0:
    // every vertex touching it is degenerate.
    p.add_constraint("a", row, Relation::kLessEqual, 0.0);
    p.add_constraint("b", row, Relation::kGreaterEqual, 0.0);
    if (coin(rng) == 0) p.add_constraint("c", row, Relation::kEqual, 0.0);
    std::vector<Term> cover;
    for (int j = 0; j < n; ++j) cover.push_back({j, 1.0});
    p.add_constraint("cover", cover, Relation::kLessEqual, 6.0);
    if (coin(rng) == 0) p.set_sense(Sense::kMaximize);

    const Solution ref = solve_milp_reference(p);
    ArenaSolver solver;
    const Solution arena = solver.solve(p);
    expect_agrees(ref, arena, "degenerate iter " + std::to_string(iter));
  }
}

TEST(SolverDifferentialTest, InfeasibleAndUnboundedByConstruction) {
  for (int k = 0; k < 20; ++k) {
    // x >= 2 + k  and  x <= 1: infeasible for every k.
    Problem inf;
    const int x = inf.add_variable("x", 0.0, kInfinity, 1.0);
    inf.add_constraint("lo", {{x, 1.0}}, Relation::kGreaterEqual, 2.0 + k);
    inf.add_constraint("hi", {{x, 1.0}}, Relation::kLessEqual, 1.0);
    ArenaSolver s1;
    expect_agrees(solve_milp_reference(inf), s1.solve(inf),
                  "constructed infeasible " + std::to_string(k));

    // max x with only a lower bound: unbounded for every k.
    Problem unb;
    unb.set_sense(Sense::kMaximize);
    const int y = unb.add_variable("y", 0.0, kInfinity, 1.0 + k);
    unb.add_constraint("lo", {{y, 1.0}}, Relation::kGreaterEqual, 1.0);
    ArenaSolver s2;
    expect_agrees(solve_milp_reference(unb), s2.solve(unb),
                  "constructed unbounded " + std::to_string(k));
  }
}

/// The LP relaxation of `p`: the same problem with every integrality mark
/// dropped, so the arena solves it at the root and reports duals.
Problem relaxed(Problem p) {
  for (int j = 0; j < p.num_variables(); ++j) p.set_integer(j, false);
  return p;
}

/// Pure-LP comparison against the oracle simplex: status, objective and
/// every dual to 1e-9 relative. Returns whether the oracle found an optimum.
bool expect_duals_agree(const Problem& lp_problem, const std::string& tag) {
  const Solution ref = solve_lp(lp_problem);
  ArenaSolver solver;
  const Solution arena = solver.solve(lp_problem);
  expect_agrees(ref, arena, tag);
  if (ref.status != SolveStatus::kOptimal) {
    EXPECT_TRUE(arena.duals.empty()) << tag;
    return false;
  }
  EXPECT_EQ(arena.duals.size(), ref.duals.size()) << tag;
  if (arena.duals.size() != ref.duals.size()) return true;
  for (std::size_t i = 0; i < ref.duals.size(); ++i)
    EXPECT_NEAR(ref.duals[i], arena.duals[i],
                1e-9 * std::max(1.0, std::abs(ref.duals[i])))
        << tag << ": dual " << i;
  return true;
}

TEST(SolverDifferentialTest, RandomLpDualsAgree) {
  // The relaxations of the random draw (every variable kind, relation and
  // sense) plus its degenerate family: the duals the arena reads off its
  // final tableau must be the oracle's.
  std::mt19937 rng(12345);
  int optimal = 0;
  for (int iter = 0; iter < 400; ++iter) {
    if (expect_duals_agree(relaxed(random_problem(rng)),
                           "lp iter " + std::to_string(iter)))
      ++optimal;
  }
  EXPECT_GT(optimal, 100);

  std::mt19937 drng(4242);
  std::uniform_real_distribution<double> coef(-2.0, 2.0);
  std::uniform_int_distribution<int> nv(2, 5), coin(0, 1);
  for (int iter = 0; iter < 120; ++iter) {
    Problem p;
    const int n = nv(drng);
    for (int j = 0; j < n; ++j) p.add_variable("x", 0.0, 4.0, coef(drng));
    std::vector<Term> row;
    for (int j = 0; j < n; ++j) row.push_back({j, coef(drng)});
    p.add_constraint("a", row, Relation::kLessEqual, 0.0);
    p.add_constraint("b", row, Relation::kGreaterEqual, 0.0);
    if (coin(drng) == 0) p.add_constraint("c", row, Relation::kEqual, 0.0);
    std::vector<Term> cover;
    for (int j = 0; j < n; ++j) cover.push_back({j, 1.0});
    p.add_constraint("cover", cover, Relation::kLessEqual, 6.0);
    if (coin(drng) == 0) p.set_sense(Sense::kMaximize);
    expect_duals_agree(p, "degenerate lp iter " + std::to_string(iter));
  }
}

TEST(SolverDifferentialTest, MilpsReportNoDuals) {
  std::mt19937 rng(99);
  int checked = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Problem p = random_problem(rng);
    if (!p.has_integers()) continue;
    ArenaSolver solver;
    const Solution arena = solver.solve(p);
    if (arena.status != SolveStatus::kOptimal) continue;
    EXPECT_TRUE(arena.duals.empty()) << "milp iter " << iter;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

class RealHourlyDifferentialTest : public ::testing::Test {
 protected:
  RealHourlyDifferentialTest() {
    const auto sites = datacenter::paper_datacenters();
    const auto policies = market::paper_policies(1);
    const std::vector<double> demand = {228.0, 182.0, 172.0};
    for (std::size_t i = 0; i < sites.size(); ++i)
      models_.push_back(
          core::make_site_model(sites[i], policies[i], demand[i]));
  }

  /// The hourly min-cost MILP at a given total arrival rate.
  Problem min_cost_problem(double lambda_total) const {
    core::AllocationFormulation f =
        core::build_allocation_formulation(models_);
    f.problem.set_sense(Sense::kMinimize);
    std::vector<Term> terms;
    for (const core::SiteVars& v : f.vars) terms.push_back({v.lambda, 1.0});
    f.problem.add_constraint("demand", std::move(terms), Relation::kEqual,
                             lambda_total / core::kLambdaScale);
    return f.problem;
  }

  std::vector<core::SiteModel> models_;
};

TEST_F(RealHourlyDifferentialTest, PaperMilpsAgreeFreshAndReused) {
  // A month-shaped sweep: 60 hourly arrival rates across the fleet's
  // operating range, solved on a fresh arena each and on one arena reused
  // across the sweep. 180 MILP solves checked against the reference.
  ArenaSolver reused;
  for (int h = 0; h < 60; ++h) {
    const double lambda = 1e11 + 1.4e10 * h;  // 1e11 .. ~9.3e11
    const Problem p = min_cost_problem(lambda);
    const Solution ref = solve_milp_reference(p);
    ArenaSolver fresh;
    expect_agrees(ref, fresh.solve(p), "hour " + std::to_string(h) + " fresh");
    expect_agrees(ref, reused.solve(p),
                  "hour " + std::to_string(h) + " reused");
  }
}

TEST_F(RealHourlyDifferentialTest, OptimizerEntryPointsMatchReference) {
  // The production entry points (persistent-arena overloads included)
  // against a reference-engine recomputation of the same formulation.
  ArenaSolver solver;
  core::OptimizerOptions options;
  for (const double lambda : {2e11, 4e11, 6e11, 8e11}) {
    const core::AllocationResult got = core::minimize_cost_over_models(
        models_, lambda, options, solver);
    ASSERT_TRUE(got.ok()) << lambda;
    const Solution ref =
        solve_milp_reference(min_cost_problem(lambda), options.milp);
    ASSERT_EQ(ref.status, SolveStatus::kOptimal) << lambda;
    EXPECT_NEAR(got.predicted_cost, ref.objective,
                1e-9 * std::max(1.0, std::abs(ref.objective)))
        << lambda;
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(std::span<const double> fresh,
                      std::span<const double> reused, const std::string& tag) {
  ASSERT_EQ(fresh.size(), reused.size()) << tag;
  for (std::size_t i = 0; i < fresh.size(); ++i)
    EXPECT_TRUE(same_bits(fresh[i], reused[i]))
        << tag << ": element " << i << " fresh=" << fresh[i]
        << " reused=" << reused[i];
}

/// A reused solver must return exactly what a fresh one returns. BillCapper
/// keeps its step-2 solver across hours as an allocation cache, and a
/// resumed month restarts it fresh, so bitwise kill/resume rests on this.
/// The two solvers are compared with each other, not with the oracle.
TEST(ArenaSolverTest, ReusedSolverMatchesFreshBitwise) {
  ArenaSolver reused;

  // The random differential corpus, structures interleaved on one arena.
  std::mt19937 rng(12345);
  int lps = 0, milps = 0, infeasible = 0, unbounded = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Problem p = random_problem(rng);
    for (const Problem& q : {p, relaxed(p)}) {
      ArenaSolver fresh_solver;
      const Solution fresh = fresh_solver.solve(q);
      const Solution got = reused.solve(q);
      const std::string tag = "corpus iter " + std::to_string(iter) +
                              (q.has_integers() ? " milp" : " lp");
      ASSERT_EQ(fresh.status, got.status) << tag;
      EXPECT_TRUE(same_bits(fresh.objective, got.objective)) << tag;
      EXPECT_TRUE(same_bits(fresh.best_bound, got.best_bound)) << tag;
      EXPECT_EQ(fresh.nodes, got.nodes) << tag;
      EXPECT_EQ(fresh.iterations, got.iterations) << tag;
      expect_same_bits(fresh.x, got.x, tag + " x");
      expect_same_bits(fresh.duals, got.duals, tag + " duals");
      if (fresh.status == SolveStatus::kInfeasible) ++infeasible;
      if (fresh.status == SolveStatus::kUnbounded) ++unbounded;
      if (fresh.status != SolveStatus::kOptimal) continue;
      if (q.has_integers())
        ++milps;
      else if (!fresh.duals.empty())
        ++lps;
    }
  }
  EXPECT_GT(lps, 100);
  EXPECT_GT(milps, 20);
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unbounded, 20);

  // A month-shaped paper step-2 sweep: diurnal arrivals, drifting
  // background demand and a budget between 30 % and 105 % of the hour's
  // minimum cost, with no byte cap. The same arena carries on from the
  // corpus above. The node cap bounds the hours on which branch-and-bound
  // never closes (a warm-solved node can report an integer off its fixed
  // bounds, and its child repeats the node; hour 29 here); both solvers
  // must still return the same kNodeLimit incumbent.
  const auto sites = datacenter::paper_datacenters();
  const auto policies = market::paper_policies(1);
  std::mt19937 hour_rng(2012);
  std::uniform_real_distribution<double> background(100.0, 260.0);
  std::uniform_real_distribution<double> budget_share(0.3, 1.05);
  core::OptimizerOptions options;
  options.milp.max_nodes = 2000;
  int capped = 0;
  for (int h = 0; h < 240; ++h) {
    std::vector<core::SiteModel> models;
    for (std::size_t i = 0; i < sites.size(); ++i)
      models.push_back(
          core::make_site_model(sites[i], policies[i], background(hour_rng)));
    const double diurnal =
        0.5 - 0.5 * std::cos(2.0 * std::numbers::pi * h / 24.0);
    const double lambda = 1e11 + 8e11 * diurnal;
    const core::AllocationResult min_cost =
        core::minimize_cost_over_models(models, lambda, options);
    const double budget = (min_cost.ok() ? min_cost.predicted_cost : 4e4) *
                          budget_share(hour_rng);
    const core::AllocationResult fresh =
        core::maximize_throughput_over_models(models, lambda, budget, options);
    const core::AllocationResult got = core::maximize_throughput_over_models(
        models, lambda, budget, options, reused);
    const std::string tag = "hour " + std::to_string(h);
    ASSERT_EQ(fresh.status, got.status) << tag;
    EXPECT_TRUE(same_bits(fresh.predicted_cost, got.predicted_cost)) << tag;
    EXPECT_TRUE(same_bits(fresh.total_lambda, got.total_lambda)) << tag;
    EXPECT_EQ(fresh.nodes, got.nodes) << tag;
    EXPECT_EQ(fresh.iterations, got.iterations) << tag;
    ASSERT_EQ(fresh.sites.size(), got.sites.size()) << tag;
    for (std::size_t i = 0; i < fresh.sites.size(); ++i) {
      EXPECT_TRUE(same_bits(fresh.sites[i].lambda, got.sites[i].lambda)) << tag;
      EXPECT_TRUE(same_bits(fresh.sites[i].power_mw, got.sites[i].power_mw))
          << tag;
      EXPECT_TRUE(same_bits(fresh.sites[i].cost, got.sites[i].cost)) << tag;
      EXPECT_EQ(fresh.sites[i].active, got.sites[i].active) << tag;
    }
    if (fresh.ok() && fresh.total_lambda < lambda * (1.0 - 1e-6)) ++capped;
  }
  // The budget must actually bind in a good share of the hours.
  EXPECT_GT(capped, 60);
}

}  // namespace
}  // namespace billcap::lp
