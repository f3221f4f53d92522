#pragma once

#include <span>
#include <vector>

#include "core/formulation.hpp"
#include "lp/arena_solver.hpp"

namespace billcap::core {

/// Step 1 of the bill capping algorithm (Section IV): distribute
/// `lambda_total` requests/hour over the sites to minimize the total
/// electricity cost
///   min  sum_i Pr_i(p_i + d_i) * p_i
///   s.t. sum_i lambda_i = lambda_total,  p_i <= Ps_i,  R_i <= Rs_i,
/// with the price-maker step pricing and the full three-part power model
/// linearized into a MILP (segment binaries per price level, Section IV-C).
///
/// Returns kInfeasible when lambda_total exceeds what the believed site
/// models can absorb (the caller decides how to shed load).
AllocationResult minimize_cost(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    std::span<const double> other_demand_mw, double lambda_total,
    const OptimizerOptions& options = {});

/// Same, but over prebuilt believed site models (used by the baselines and
/// the ablations, which believe different models).
AllocationResult minimize_cost_over_models(std::span<const SiteModel> models,
                                           double lambda_total,
                                           const OptimizerOptions& options = {});

/// Same, solving on a caller-owned lp::ArenaSolver, so a long-lived caller
/// reuses one reserved arena hour over hour; the three-argument overload
/// uses a solve-local arena instead.
AllocationResult minimize_cost_over_models(std::span<const SiteModel> models,
                                           double lambda_total,
                                           const OptimizerOptions& options,
                                           lp::ArenaSolver& solver);

}  // namespace billcap::core
