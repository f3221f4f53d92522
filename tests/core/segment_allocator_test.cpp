#include "core/segment_allocator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/cost_minimizer.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"

namespace billcap::core {
namespace {

class SegmentAllocatorTest : public ::testing::Test {
 protected:
  SegmentAllocatorTest() {
    const auto sites = datacenter::paper_datacenters();
    const auto policies = market::paper_policies(1);
    const std::vector<double> demand = {210.0, 190.0, 175.0};
    for (std::size_t i = 0; i < sites.size(); ++i)
      models_.push_back(make_site_model(sites[i], policies[i], demand[i]));
  }

  AllocationResult solve(const lp::MilpOptions& options = {}) const {
    return allocate_min_cost(models_, kLambda, options);
  }

  static constexpr double kLambda = 9e11;
  std::vector<SiteModel> models_;
};

TEST_F(SegmentAllocatorTest, AgreesWithTheCostMinimizerEntryPoint) {
  const AllocationResult direct = solve();
  const AllocationResult via = minimize_cost_over_models(models_, kLambda);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.predicted_cost, via.predicted_cost);
  EXPECT_EQ(direct.nodes, via.nodes);
  EXPECT_EQ(direct.iterations, 0);
  EXPECT_NEAR(direct.total_lambda, kLambda, 1e3);
}

TEST_F(SegmentAllocatorTest, OneNodeBudgetEndsWithoutIncumbent) {
  // The first node is the root relaxation: no combination is complete.
  lp::MilpOptions options;
  options.max_nodes = 1;
  const AllocationResult r = solve(options);
  EXPECT_EQ(r.status, lp::SolveStatus::kNodeLimit);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.nodes, 1);
  EXPECT_TRUE(r.sites.empty());
}

TEST_F(SegmentAllocatorTest, ExhaustedBudgetReturnsBestCombinationSoFar) {
  const AllocationResult full = solve();
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.nodes, 2);
  // Some budget short of the full walk has found a combination already.
  bool saw_incumbent = false;
  for (long budget = 1; budget < full.nodes; ++budget) {
    lp::MilpOptions options;
    options.max_nodes = budget;
    const AllocationResult r = solve(options);
    EXPECT_EQ(r.status, lp::SolveStatus::kNodeLimit) << budget;
    EXPECT_EQ(r.nodes, budget);
    if (!r.feasible) continue;
    saw_incumbent = true;
    EXPECT_TRUE(r.usable());
    EXPECT_GE(r.predicted_cost, full.predicted_cost * (1 - 1e-12)) << budget;
    EXPECT_NEAR(r.total_lambda, kLambda, 1e3) << budget;
  }
  EXPECT_TRUE(saw_incumbent);
}

TEST_F(SegmentAllocatorTest, BudgetCoveringTheWalkIsOptimal) {
  const AllocationResult full = solve();
  lp::MilpOptions options;
  options.max_nodes = full.nodes;
  const AllocationResult r = solve(options);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.predicted_cost, full.predicted_cost);
}

TEST_F(SegmentAllocatorTest, ExpiredDeadlineStopsBeforeTheFirstNode) {
  lp::MilpOptions options;
  options.time_limit_ms = 1e-9;
  const AllocationResult r = solve(options);
  EXPECT_EQ(r.status, lp::SolveStatus::kTimeLimit);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.nodes, 0);
}

TEST_F(SegmentAllocatorTest, ByteCapBelowTheScratchFootprintIsExhaustion) {
  const std::size_t footprint = segment_allocator_scratch_bytes(models_);
  ASSERT_GT(footprint, 64u);
  lp::MilpOptions options;
  options.max_arena_bytes = footprint - 1;
  const AllocationResult squeezed = solve(options);
  EXPECT_EQ(squeezed.status, lp::SolveStatus::kArenaExhausted);
  EXPECT_FALSE(squeezed.feasible);
  EXPECT_EQ(squeezed.nodes, 0);
  options.max_arena_bytes = footprint;
  EXPECT_TRUE(solve(options).ok());
}

TEST_F(SegmentAllocatorTest, DemandBeyondCapacityIsInfeasible) {
  const AllocationResult r =
      allocate_min_cost(models_, 1.01 * system_capacity(models_));
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
  EXPECT_FALSE(r.feasible);
}

TEST_F(SegmentAllocatorTest, ExactTiesGoToTheLowestCombinationIndex) {
  // Two identical sites and a load one of them carries: "site 0 off,
  // site 1 on" precedes "site 0 on, site 1 off" in combination order.
  const std::vector<SiteModel> twins = {models_[0], models_[0]};
  const AllocationResult r = allocate_min_cost(twins, 1e11);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.sites[0].active);
  EXPECT_EQ(r.sites[0].lambda, 0.0);
  EXPECT_TRUE(r.sites[1].active);
}

TEST_F(SegmentAllocatorTest, ZeroDemandSwitchesEverySiteOff) {
  const AllocationResult r = allocate_min_cost(models_, 0.0);
  ASSERT_TRUE(r.ok());
  for (const SiteOutcome& site : r.sites) {
    EXPECT_FALSE(site.active);
    EXPECT_EQ(site.cost, 0.0);
  }
}

}  // namespace
}  // namespace billcap::core
