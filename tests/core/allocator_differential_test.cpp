// The segment allocator against the paper's MILP solved by the test-only
// reference branch-and-bound, on paper-shaped instances: the 3 paper sites
// under policies 1-3 with background demand 100-260 MW, down sites, the
// Min-Only flat-price beliefs, heterogeneous sites (whose price segments can
// start with a zero-marginal piece) and peak-rebate curves with nonzero
// intercepts. Statuses must be equal and costs must agree to 1e-9.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/formulation.hpp"
#include "core/segment_allocator.hpp"
#include "datacenter/catalog.hpp"
#include "datacenter/heterogeneous.hpp"
#include "market/pricing_policy.hpp"
#include "market/rebate.hpp"
#include "oracle/milp_reference.hpp"
#include "util/rng.hpp"

namespace billcap::core {
namespace {

constexpr int kInstancesPerRole = 2000;
constexpr double kCostTol = 1e-9;

/// A site that is down this hour, as BillCapper::decide believes it.
SiteModel down_site_model() {
  SiteModel model;
  model.cost_curve.breaks = {0.0, 1e-6};
  model.cost_curve.slopes = {0.0};
  model.cost_curve.intercepts = {0.0};
  return model;
}

datacenter::ServerPool make_pool(std::string name, double req_per_sec,
                                 double watts, std::uint64_t count) {
  return datacenter::ServerPool{
      .name = std::move(name),
      .queue = {.service_rate = req_per_sec * 3600.0, .ca2 = 1.0, .cb2 = 1.0},
      .server = datacenter::ServerModel::from_active_power(watts, 0.8),
      .operating_utilization = 0.8,
      .count = count,
  };
}

/// Everything an instance draws from: the paper catalog, the three policy
/// sets and two heterogeneous sites.
struct Catalog {
  std::vector<datacenter::DataCenter> sites = datacenter::paper_datacenters();
  std::vector<std::vector<market::PricingPolicy>> policies = {
      market::paper_policies(1), market::paper_policies(2),
      market::paper_policies(3)};
  std::vector<datacenter::HeterogeneousSite> mixed = {
      datacenter::HeterogeneousSite::from_pools(
          "mixed-a",
          {make_pool("old", 300.0, 134.0, 60'000),
           make_pool("new", 500.0, 88.88, 60'000)},
          2.0 / (300.0 * 3600.0), 35.0),
      datacenter::HeterogeneousSite::from_pools(
          "mixed-b",
          {make_pool("gpu", 900.0, 310.0, 20'000),
           make_pool("old", 250.0, 150.0, 50'000),
           make_pool("new", 450.0, 95.0, 40'000)},
          2.0 / (250.0 * 3600.0), 30.0)};
};

/// One site with classes of very different efficiency and a large
/// activation draw: a price segment's floor is met by the expensive class
/// well before the cheap one, so the zero-marginal piece is long.
SiteModel synthetic_heterogeneous(util::Rng& rng,
                                  const market::PricingPolicy& policy) {
  SiteModel model;
  model.power_intercept_mw = rng.uniform(0.5, 6.0);
  model.power_cap_mw = rng.uniform(20.0, 45.0);
  const int classes = 2 + static_cast<int>(rng.below(2));
  double lambda = 0.0;
  double power = model.power_intercept_mw;
  for (int c = 0; c < classes; ++c) {
    const double slope = rng.uniform(2e-11, 2e-10);  // MW per request/hour
    const double cap = rng.uniform(3e10, 1.5e11);
    const double head = (model.power_cap_mw - power) / slope;
    const double clipped = std::min(cap, std::max(0.0, head));
    if (clipped <= 0.0) break;
    model.power_segments.push_back({clipped, slope});
    lambda += clipped;
    power += clipped * slope;
  }
  // Unsorted on purpose: the allocator sorts the classes by slope.
  if (rng.uniform() < 0.5)
    std::reverse(model.power_segments.begin(), model.power_segments.end());
  model.lambda_max = lambda;
  model.power_slope = model.power_segments.front().slope;
  model.cost_curve =
      policy.dc_cost_curve(rng.uniform(100.0, 260.0), std::max(power, 1e-6));
  return model;
}

enum class Family { kPaper, kDownSites, kMinOnly, kHeterogeneous, kRebate };
constexpr int kFamilies = 5;

std::vector<SiteModel> draw_models(const Catalog& cat, Family family,
                                   util::Rng& rng) {
  const auto& policies = cat.policies[rng.below(3)];
  std::vector<SiteModel> models;
  switch (family) {
    case Family::kPaper:
    case Family::kDownSites:
    case Family::kRebate: {
      const bool full_model = rng.uniform() < 0.8;
      for (std::size_t i = 0; i < cat.sites.size(); ++i)
        models.push_back(make_site_model(cat.sites[i], policies[i],
                                         rng.uniform(100.0, 260.0),
                                         full_model));
      break;
    }
    case Family::kMinOnly:
      models = min_only_site_models(cat.sites, policies,
                                    rng.uniform() < 0.5
                                        ? MinOnlyPriceModel::kAverage
                                        : MinOnlyPriceModel::kLow);
      break;
    case Family::kHeterogeneous: {
      for (std::size_t i = 0; i < cat.mixed.size(); ++i)
        models.push_back(make_heterogeneous_site_model(
            cat.mixed[i], policies[i], rng.uniform(100.0, 260.0)));
      models.push_back(synthetic_heterogeneous(rng, policies[2]));
      // Sometimes a homogeneous paper site joins the mix.
      if (rng.uniform() < 0.3)
        models.push_back(make_site_model(cat.sites[0], policies[0],
                                         rng.uniform(100.0, 260.0)));
      break;
    }
  }
  if (family == Family::kDownSites) {
    // One or two sites down: the capper's zero-capacity model, or the
    // Min-Only simulator's (capacity zero, power model kept).
    const std::size_t down = 1 + rng.below(2);
    for (std::size_t k = 0; k < down; ++k) {
      SiteModel& m = models[rng.below(models.size())];
      if (rng.uniform() < 0.5) {
        m = down_site_model();
      } else {
        m.lambda_max = 0.0;
      }
    }
  }
  if (family == Family::kRebate) {
    for (SiteModel& m : models) {
      const market::RebateProgram program{
          .baseline_mw = rng.uniform(5.0, 40.0),
          .rebate_per_mwh = rng.uniform(1.0, 20.0)};
      m.cost_curve = market::apply_rebate(m.cost_curve, program);
    }
  }
  return models;
}

/// The step-1 MILP exactly as the solver bench and the old cost minimizer
/// built it: the shared formulation plus the demand row.
lp::Problem min_cost_milp(std::span<const SiteModel> models, double lambda) {
  AllocationFormulation f = build_allocation_formulation(models);
  f.problem.set_sense(lp::Sense::kMinimize);
  std::vector<lp::Term> terms;
  for (const SiteVars& v : f.vars) terms.push_back({v.lambda, 1.0});
  f.problem.add_constraint("demand", std::move(terms), lp::Relation::kEqual,
                           lambda / kLambdaScale);
  return f.problem;
}

struct Tally {
  int instances = 0;
  int infeasible = 0;
  int status_mismatches = 0;
  int cost_mismatches = 0;
  int per_family[kFamilies] = {};
  double max_rel_diff = 0.0;
};

/// Solves one instance both ways and records any disagreement.
void compare(std::span<const SiteModel> models, double lambda,
             const std::string& what, Tally& tally) {
  const lp::Solution want = lp::solve_milp_reference(min_cost_milp(models,
                                                                   lambda));
  const AllocationResult got = allocate_min_cost(models, lambda);
  ++tally.instances;
  if (want.status == lp::SolveStatus::kInfeasible) ++tally.infeasible;
  if (got.status != want.status) {
    ++tally.status_mismatches;
    ADD_FAILURE() << what << ": allocator " << lp::to_string(got.status)
                  << ", reference " << lp::to_string(want.status);
    return;
  }
  if (!got.ok()) return;
  const double scale = std::max({1.0, std::abs(want.objective),
                                 std::abs(got.predicted_cost)});
  const double diff = std::abs(got.predicted_cost - want.objective) / scale;
  tally.max_rel_diff = std::max(tally.max_rel_diff, diff);
  if (diff > kCostTol) {
    ++tally.cost_mismatches;
    ADD_FAILURE() << what << ": allocator cost " << got.predicted_cost
                  << ", reference " << want.objective;
  }
  // The allocation itself serves the demand.
  EXPECT_NEAR(got.total_lambda, lambda, 1e3 + 1e-9 * lambda) << what;
  for (std::size_t i = 0; i < models.size(); ++i) {
    EXPECT_LE(got.sites[i].lambda, models[i].lambda_max * (1 + 1e-12) + 1e-3)
        << what << " site " << i;
    EXPECT_LE(got.sites[i].power_mw, models[i].power_cap_mw + 1e-9)
        << what << " site " << i;
  }
}

void report(const char* role, const Tally& t) {
  std::printf(
      "[%s] %d instances (%d infeasible; per family %d/%d/%d/%d/%d): "
      "%d status, %d cost disagreements, max rel cost diff %.3g\n",
      role, t.instances, t.infeasible, t.per_family[0], t.per_family[1],
      t.per_family[2], t.per_family[3], t.per_family[4], t.status_mismatches,
      t.cost_mismatches, t.max_rel_diff);
}

TEST(AllocatorDifferentialTest, StepOneMatchesReferenceMilp) {
  const Catalog cat;
  util::Rng rng(20120917);
  Tally tally;
  for (int n = 0; n < kInstancesPerRole; ++n) {
    const auto family = static_cast<Family>(n % kFamilies);
    ++tally.per_family[n % kFamilies];
    const std::vector<SiteModel> models = draw_models(cat, family, rng);
    const double capacity = system_capacity(models);
    // 5-100 % of capacity, with the full-capacity edge and a few demands
    // no combination can carry.
    double share = rng.uniform(0.05, 1.0);
    if (n % 50 == 7) share = 1.0;
    if (n % 50 == 23) share = rng.uniform(1.01, 1.2);
    compare(models, share * capacity, "step 1 #" + std::to_string(n), tally);
  }
  report("step 1", tally);
  EXPECT_EQ(tally.status_mismatches, 0);
  EXPECT_EQ(tally.cost_mismatches, 0);
  EXPECT_GT(tally.infeasible, 0);
}

TEST(AllocatorDifferentialTest, PremiumOnlyMatchesReferenceMilp) {
  // Premium-only re-solves step 1 for the premium share alone after the
  // budget could not cover it: smaller demands on the same models.
  const Catalog cat;
  util::Rng rng(7);
  Tally tally;
  for (int n = 0; n < kInstancesPerRole; ++n) {
    const auto family = static_cast<Family>(n % kFamilies);
    ++tally.per_family[n % kFamilies];
    const std::vector<SiteModel> models = draw_models(cat, family, rng);
    const double admitted = rng.uniform(0.05, 1.0) * system_capacity(models);
    const double premium = admitted * rng.uniform(0.5, 0.95);
    compare(models, premium, "premium-only #" + std::to_string(n), tally);
  }
  report("premium-only", tally);
  EXPECT_EQ(tally.status_mismatches, 0);
  EXPECT_EQ(tally.cost_mismatches, 0);
}

}  // namespace
}  // namespace billcap::core
