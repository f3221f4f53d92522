#include "market/dcopf.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "market/pjm5.hpp"
#include "oracle/simplex.hpp"

namespace billcap::market {
namespace {

/// Two buses, one line, cheap generator at bus 0, load at bus 1.
Grid two_bus(double line_limit = 0.0) {
  Grid g;
  g.add_bus("G");
  g.add_bus("L");
  g.add_line("G-L", 0, 1, 0.1, line_limit);
  g.add_generator("cheap", 0, 100.0, 10.0);
  g.add_generator("local", 1, 100.0, 30.0);
  return g;
}

TEST(DcOpfTest, DispatchesCheapestFirst) {
  const Grid g = two_bus();
  const auto r = solve_dcopf(g, std::vector<double>{0.0, 50.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.dispatch_mw[0], 50.0, 1e-6);
  EXPECT_NEAR(r.dispatch_mw[1], 0.0, 1e-6);
  EXPECT_NEAR(r.total_cost, 500.0, 1e-6);
}

TEST(DcOpfTest, UncongestedLmpsEqualMarginalCost) {
  const Grid g = two_bus();
  const auto r = solve_dcopf(g, std::vector<double>{0.0, 50.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.lmp[0], 10.0, 1e-6);
  EXPECT_NEAR(r.lmp[1], 10.0, 1e-6);  // no congestion: uniform price
}

TEST(DcOpfTest, CongestionSeparatesPrices) {
  // 40 MW line limit forces the expensive local unit to cover the rest.
  const Grid g = two_bus(40.0);
  const auto r = solve_dcopf(g, std::vector<double>{0.0, 70.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.dispatch_mw[0], 40.0, 1e-6);
  EXPECT_NEAR(r.dispatch_mw[1], 30.0, 1e-6);
  EXPECT_NEAR(r.lmp[0], 10.0, 1e-6);   // exporting bus stays cheap
  EXPECT_NEAR(r.lmp[1], 30.0, 1e-6);   // importing bus pays the local unit
  EXPECT_NEAR(std::abs(r.flow_mw[0]), 40.0, 1e-6);
}

TEST(DcOpfTest, GeneratorLimitRaisesPrice) {
  Grid g;
  g.add_bus("A");
  g.add_generator("small", 0, 20.0, 5.0);
  g.add_generator("big", 0, 500.0, 25.0);
  const auto low = solve_dcopf(g, std::vector<double>{10.0});
  const auto high = solve_dcopf(g, std::vector<double>{100.0});
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_NEAR(low.lmp[0], 5.0, 1e-6);
  EXPECT_NEAR(high.lmp[0], 25.0, 1e-6);  // step change as capacity binds
}

TEST(DcOpfTest, InfeasibleWhenLoadExceedsCapacity) {
  Grid g;
  g.add_bus("A");
  g.add_generator("only", 0, 50.0, 10.0);
  const auto r = solve_dcopf(g, std::vector<double>{80.0});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST(DcOpfTest, EnergyBalanceHolds) {
  const Grid g = two_bus(40.0);
  const std::vector<double> loads = {10.0, 60.0};
  const auto r = solve_dcopf(g, loads);
  ASSERT_TRUE(r.ok());
  const double gen = r.dispatch_mw[0] + r.dispatch_mw[1];
  EXPECT_NEAR(gen, 70.0, 1e-6);
}

TEST(DcOpfTest, FlowMatchesAngleDifference) {
  const Grid g = two_bus();
  const auto r = solve_dcopf(g, std::vector<double>{0.0, 30.0});
  ASSERT_TRUE(r.ok());
  const double b = 1.0 / 0.1;
  EXPECT_NEAR(r.flow_mw[0], b * (r.theta[0] - r.theta[1]), 1e-6);
  EXPECT_NEAR(r.theta[0], 0.0, 1e-12);  // slack pinned
}

TEST(DcOpfTest, MeshNetworkKirchhoff) {
  // Three buses in a triangle: flows must satisfy both balance and the
  // angle consistency around the loop.
  Grid g;
  g.add_bus("A");
  g.add_bus("B");
  g.add_bus("C");
  g.add_line("A-B", 0, 1, 0.1);
  g.add_line("B-C", 1, 2, 0.1);
  g.add_line("A-C", 0, 2, 0.1);
  g.add_generator("gen", 0, 300.0, 10.0);
  const auto r = solve_dcopf(g, std::vector<double>{0.0, 30.0, 60.0});
  ASSERT_TRUE(r.ok());
  // Net injection at B: inflow(A-B) - outflow(B-C) = load 30.
  EXPECT_NEAR(r.flow_mw[0] - r.flow_mw[1], 30.0, 1e-6);
  // Loop equation: f(A-B) + f(B-C) - f(A-C) proportional angle sum = 0.
  EXPECT_NEAR(r.flow_mw[0] + r.flow_mw[1] - r.flow_mw[2], 0.0, 1e-6);
}

TEST(DcOpfTest, InputValidation) {
  Grid g;
  g.add_bus("A");
  g.add_generator("gen", 0, 10.0, 1.0);
  EXPECT_THROW(solve_dcopf(g, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  Grid empty;
  EXPECT_THROW(solve_dcopf(empty, std::vector<double>{}),
               std::invalid_argument);
}

TEST(DcOpfTest, LmpIsMarginalCostOfLoad) {
  // Finite-difference check of the LMP against a load perturbation.
  const Grid g = two_bus(40.0);
  const std::vector<double> base_loads = {0.0, 70.0};
  const auto base = solve_dcopf(g, base_loads);
  ASSERT_TRUE(base.ok());
  const double eps = 0.01;
  const auto pert = solve_dcopf(g, std::vector<double>{0.0, 70.0 + eps});
  ASSERT_TRUE(pert.ok());
  EXPECT_NEAR((pert.total_cost - base.total_cost) / eps, base.lmp[1], 1e-4);
}

/// Bitwise equality of two vectors of doubles (EXPECT_EQ on a double would
/// let -0.0 and 0.0 pass for one another).
void expect_bitwise(const std::vector<double>& want,
                    const std::vector<double>& got, const std::string& tag) {
  ASSERT_EQ(want.size(), got.size()) << tag;
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << tag << " [" << i << "]: " << want[i] << " vs " << got[i];
}

/// solve_dcopf (the arena solver) against the oracle simplex on the same
/// LP: equal status and bitwise-equal cost, dispatch, flows and LMPs.
void expect_matches_oracle(const Grid& grid, const std::vector<double>& loads,
                           const std::string& tag, int& optimal) {
  const DcOpfResult got = solve_dcopf(grid, loads);
  const DcOpfLp opf = build_dcopf_lp(grid, loads);
  const DcOpfResult want = read_dcopf_solution(opf, lp::solve_lp(opf.problem));
  ASSERT_EQ(want.status, got.status) << tag;
  if (!want.ok()) return;
  ++optimal;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.total_cost),
            std::bit_cast<std::uint64_t>(got.total_cost))
      << tag << ": cost " << want.total_cost << " vs " << got.total_cost;
  expect_bitwise(want.dispatch_mw, got.dispatch_mw, tag + " dispatch");
  expect_bitwise(want.flow_mw, got.flow_mw, tag + " flow");
  expect_bitwise(want.lmp, got.lmp, tag + " lmp");
}

TEST(DcOpfTest, ArenaMatchesOracleSimplexBitwise) {
  // 1,000 system loads on the PJM five-bus sweep (past its 1,530 MW of
  // generation, so infeasible hours are compared too) and 1,000 random
  // per-bus load vectors, which exercise congestion patterns the uniform
  // sweep never reaches.
  const Grid grid = pjm5_grid();
  int optimal = 0;
  for (int k = 0; k < 1000; ++k)
    expect_matches_oracle(grid, pjm5_loads(1.7 * k),
                          "sweep " + std::to_string(1.7 * k) + " MW",
                          optimal);
  std::mt19937 rng(2012);
  std::uniform_real_distribution<double> bus_load(0.0, 400.0);
  for (int k = 0; k < 1000; ++k) {
    std::vector<double> loads(static_cast<std::size_t>(grid.num_buses()));
    for (double& l : loads) l = bus_load(rng);
    expect_matches_oracle(grid, loads, "random " + std::to_string(k),
                          optimal);
  }
  EXPECT_GT(optimal, 1500);
}

TEST(OpfReportTest, RejectsNonOptimalResult) {
  DcOpfResult bad;
  bad.status = lp::SolveStatus::kInfeasible;
  EXPECT_THROW(analyze_opf(two_bus(), bad), std::invalid_argument);
}

TEST(OpfReportTest, UncongestedHasNoCongestionComponent) {
  const Grid g = two_bus();
  const auto r = solve_dcopf(g, std::vector<double>{0.0, 50.0});
  ASSERT_TRUE(r.ok());
  const DcOpfReport report = analyze_opf(g, r);
  EXPECT_NEAR(report.reference_price, 10.0, 1e-6);
  for (double c : report.congestion_component) EXPECT_NEAR(c, 0.0, 1e-6);
  EXPECT_TRUE(report.binding.empty());
}

TEST(OpfReportTest, CongestedLineIsReportedBinding) {
  const Grid g = two_bus(40.0);
  const auto r = solve_dcopf(g, std::vector<double>{0.0, 70.0});
  ASSERT_TRUE(r.ok());
  const DcOpfReport report = analyze_opf(g, r);
  ASSERT_EQ(report.binding.size(), 1u);
  EXPECT_EQ(report.binding[0].kind, BindingConstraint::Kind::kLineLimit);
  EXPECT_EQ(report.binding[0].index, 0);
  EXPECT_NEAR(report.binding[0].value, 40.0, 1e-6);
  // Importing bus carries the congestion premium 30 - 10 = 20.
  EXPECT_NEAR(report.congestion_component[1], 20.0, 1e-6);
}

TEST(OpfReportTest, SaturatedGeneratorIsReportedBinding) {
  Grid g;
  g.add_bus("A");
  g.add_generator("small", 0, 20.0, 5.0);
  g.add_generator("big", 0, 500.0, 25.0);
  const auto r = solve_dcopf(g, std::vector<double>{100.0});
  ASSERT_TRUE(r.ok());
  const DcOpfReport report = analyze_opf(g, r);
  ASSERT_EQ(report.binding.size(), 1u);
  EXPECT_EQ(report.binding[0].kind,
            BindingConstraint::Kind::kGeneratorLimit);
  EXPECT_EQ(report.binding[0].index, 0);  // the 20 MW unit is maxed
}

TEST(OpfReportTest, PriceStepsCoincideWithNewBindingConstraints) {
  // Sweep the two-bus system: the price at the load bus steps exactly when
  // the line limit starts binding — the Section II mechanism, verified.
  const Grid g = two_bus(40.0);
  double previous_price = 0.0;
  bool stepped = false;
  for (double load = 10.0; load <= 90.0; load += 5.0) {
    const auto r = solve_dcopf(g, std::vector<double>{0.0, load});
    ASSERT_TRUE(r.ok());
    const DcOpfReport report = analyze_opf(g, r);
    if (load > 10.0 && r.lmp[1] > previous_price + 1e-6) {
      stepped = true;
      EXPECT_FALSE(report.binding.empty())
          << "price stepped without a binding constraint at " << load;
    }
    previous_price = r.lmp[1];
  }
  EXPECT_TRUE(stepped);
}

}  // namespace
}  // namespace billcap::market
