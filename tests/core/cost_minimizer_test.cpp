#include "core/cost_minimizer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/cost_model.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"
#include "util/rng.hpp"

namespace billcap::core {
namespace {

class CostMinimizerTest : public ::testing::Test {
 protected:
  const std::vector<datacenter::DataCenter> sites_ =
      datacenter::paper_datacenters();
  const std::vector<market::PricingPolicy> policies_ =
      market::paper_policies(1);
  const std::vector<double> demand_ = {210.0, 190.0, 175.0};
};

TEST_F(CostMinimizerTest, ZeroDemandCostsNothing) {
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand_, 0.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.predicted_cost, 0.0, 1e-6);
  EXPECT_NEAR(r.total_lambda, 0.0, 1e-3);
}

TEST_F(CostMinimizerTest, ServesExactlyTheDemand) {
  const double lambda = 6e11;
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand_, lambda);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.total_lambda / lambda, 1.0, 1e-6);
}

TEST_F(CostMinimizerTest, InfeasibleBeyondCapacity) {
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand_, 1e13);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST_F(CostMinimizerTest, NegativeDemandThrows) {
  EXPECT_THROW(minimize_cost(sites_, policies_, demand_, -1.0),
               std::invalid_argument);
}

TEST_F(CostMinimizerTest, SizeMismatchThrows) {
  EXPECT_THROW(minimize_cost(sites_, policies_,
                             std::vector<double>{1.0, 2.0}, 1e10),
               std::invalid_argument);
}

TEST_F(CostMinimizerTest, RespectsPowerCaps) {
  // Heavy demand: each site's believed power stays within its cap.
  const double lambda = 1.4e12;
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand_, lambda);
  ASSERT_TRUE(r.ok());
  for (std::size_t i = 0; i < sites_.size(); ++i)
    EXPECT_LE(r.sites[i].power_mw,
              sites_[i].spec().power_cap_mw + 1e-6);
}

TEST_F(CostMinimizerTest, GroundTruthRespectsCapsToo) {
  const double lambda = 1.4e12;
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand_, lambda);
  ASSERT_TRUE(r.ok());
  const GroundTruth truth =
      evaluate_allocation(sites_, policies_, demand_, r.lambda_vector());
  EXPECT_DOUBLE_EQ(truth.total_penalty, 0.0);  // safety margin worked
}

TEST_F(CostMinimizerTest, PredictionTracksGroundTruth) {
  for (double lambda : {1e11, 4e11, 9e11, 1.3e12}) {
    const AllocationResult r =
        minimize_cost(sites_, policies_, demand_, lambda);
    ASSERT_TRUE(r.ok()) << "lambda " << lambda;
    const GroundTruth truth =
        evaluate_allocation(sites_, policies_, demand_, r.lambda_vector());
    EXPECT_NEAR(truth.total_cost / r.predicted_cost, 1.0, 0.01)
        << "lambda " << lambda;
  }
}

TEST_F(CostMinimizerTest, BeatsNaiveAllocationsAtGroundTruth) {
  // The optimizer's allocation must cost no more (at ground truth) than a
  // bouquet of heuristics: uniform split, single-site dumps, random splits.
  util::Rng rng(99);
  for (double lambda : {3e11, 6e11, 9e11}) {
    const AllocationResult r =
        minimize_cost(sites_, policies_, demand_, lambda);
    ASSERT_TRUE(r.ok());
    const double opt_cost =
        evaluate_allocation(sites_, policies_, demand_, r.lambda_vector())
            .total_cost;

    std::vector<std::vector<double>> rivals;
    rivals.push_back({lambda / 3, lambda / 3, lambda / 3});
    for (int trial = 0; trial < 20; ++trial) {
      const double a = rng.uniform();
      const double b = rng.uniform() * (1.0 - a);
      rivals.push_back({lambda * a, lambda * b, lambda * (1.0 - a - b)});
    }
    for (const auto& rival : rivals) {
      // Skip rivals that violate server capacity.
      bool feasible = true;
      for (std::size_t i = 0; i < sites_.size(); ++i)
        if (rival[i] > sites_[i].max_requests_per_hour()) feasible = false;
      if (!feasible) continue;
      const double rival_cost =
          evaluate_allocation(sites_, policies_, demand_, rival).total_cost;
      EXPECT_LE(opt_cost, rival_cost * 1.002)
          << "lambda " << lambda;  // 0.2 % slack for model/threshold effects
    }
  }
}

TEST_F(CostMinimizerTest, PrefersCheaperTiersWhenLoadIsLight) {
  // With light load, everything should land where the believed marginal
  // $/request is smallest rather than being spread around.
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand_, 1e11);
  ASSERT_TRUE(r.ok());
  int active_sites = 0;
  for (const auto& site : r.sites)
    if (site.lambda > 0.0) ++active_sites;
  EXPECT_EQ(active_sites, 1);
}

TEST_F(CostMinimizerTest, StepDodging) {
  // Construct a demand level where one site sits just below a price step:
  // the optimizer should cap that site below the step and spill the rest,
  // exactly the behaviour Min-Only cannot express.
  const std::vector<double> demand = {199.0, 300.1, 300.1};  // B cheap tier
  // DC1 can absorb ~1 MW at price 10 before stepping to 13.90.
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand, 4e11);
  ASSERT_TRUE(r.ok());
  const double p1 = r.sites[0].power_mw;
  // Either stays under the 200 MW threshold (1 - margin MW available) or
  // jumps well past it; grazing just over is never optimal.
  const double total_b = p1 + demand[0];
  EXPECT_TRUE(total_b <= 200.0 || total_b >= 210.0)
      << "p1 = " << p1;
}

TEST_F(CostMinimizerTest, ServerOnlyAblationUnderestimatesPower) {
  OptimizerOptions ablated;
  ablated.model_cooling_network = false;
  const double lambda = 6e11;
  const AllocationResult full =
      minimize_cost(sites_, policies_, demand_, lambda);
  const AllocationResult blind =
      minimize_cost(sites_, policies_, demand_, lambda, ablated);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(blind.ok());
  const double truth_full =
      evaluate_allocation(sites_, policies_, demand_, full.lambda_vector())
          .total_cost;
  const double truth_blind =
      evaluate_allocation(sites_, policies_, demand_, blind.lambda_vector())
          .total_cost;
  // The blind optimizer believes less power than reality...
  EXPECT_LT(blind.predicted_cost, truth_blind);
  // ...and can never beat the full model at ground truth.
  EXPECT_LE(truth_full, truth_blind * 1.002);
}

TEST_F(CostMinimizerTest, ReportsSearchStatistics) {
  // The segment allocator counts enumeration nodes and pivots no simplex.
  const AllocationResult r =
      minimize_cost(sites_, policies_, demand_, 6e11);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.nodes, 1);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace billcap::core
