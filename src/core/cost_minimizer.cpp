#include "core/cost_minimizer.hpp"

#include <stdexcept>

#include "core/segment_allocator.hpp"

namespace billcap::core {

AllocationResult minimize_cost_over_models(std::span<const SiteModel> models,
                                           double lambda_total,
                                           const OptimizerOptions& options) {
  return allocate_min_cost(models, lambda_total, options.milp);
}

AllocationResult minimize_cost_over_models(std::span<const SiteModel> models,
                                           double lambda_total,
                                           const OptimizerOptions& options,
                                           lp::ArenaSolver& /*unused*/) {
  return minimize_cost_over_models(models, lambda_total, options);
}

AllocationResult minimize_cost(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    std::span<const double> other_demand_mw, double lambda_total,
    const OptimizerOptions& options) {
  if (sites.size() != policies.size() ||
      sites.size() != other_demand_mw.size())
    throw std::invalid_argument("minimize_cost: input size mismatch");
  std::vector<SiteModel> models;
  models.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i)
    models.push_back(make_site_model(sites[i], policies[i],
                                     other_demand_mw[i],
                                     options.model_cooling_network));
  return minimize_cost_over_models(models, lambda_total, options);
}

}  // namespace billcap::core
