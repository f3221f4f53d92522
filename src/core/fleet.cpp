#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/csv.hpp"
#include "util/fnv1a.hpp"
#include "util/rng.hpp"

namespace billcap::core {

const char* to_string(ChunkStatus status) noexcept {
  switch (status) {
    case ChunkStatus::kOk: return "ok";
    case ChunkStatus::kDegraded: return "degraded";
    case ChunkStatus::kQuarantined: return "quarantined";
    case ChunkStatus::kRegionDown: return "region_down";
  }
  return "unknown";
}

/// Everything one chunk task needs, materialized before dispatch so the
/// task only reads its own slot (no shared mutable state, no dangling
/// spans: the inputs vector outlives every future).
struct FleetController::ChunkInput {
  std::size_t region = 0;
  std::size_t hour = 0;
  bool down = false;
  bool quarantined = false;
  double premium = 0.0;
  double ordinary = 0.0;
  double budget = 0.0;
  std::vector<double> demand;           ///< region-local site order
  std::vector<std::uint8_t> available;  ///< region-local site order
  long max_nodes = -1;
  double time_limit_ms = -1.0;
  std::size_t arena_bytes = 0;
};

FleetController::FleetController(
    const std::vector<datacenter::DataCenter>& sites,
    const std::vector<market::PricingPolicy>& policies,
    std::vector<Region> regions, FleetOptions options, util::ThreadPool* pool)
    : sites_(sites),
      policies_(policies),
      options_(options),
      pool_(pool),
      num_sites_(sites.size()),
      hier_(sites, policies, std::move(regions), options.optimizer),
      quarantine_(hier_.num_regions()) {}

bool FleetController::region_quarantined(std::size_t region,
                                         std::size_t hour) const {
  return hour < quarantine_.at(region).quarantined_until;
}

ChunkOutcome FleetController::run_chunk(const ChunkInput& in) const {
  ChunkOutcome chunk;
  chunk.region = in.region;
  if (in.down) {
    // RegionOutage: nothing to solve. The region sheds its whole share —
    // locally; the coordinator already redistributed by giving it zero
    // believed capacity, so in.premium/in.ordinary are the residual share.
    chunk.status = ChunkStatus::kRegionDown;
    chunk.outcome.mode = CappingOutcome::Mode::kPremiumOnly;
    chunk.outcome.hourly_budget = in.budget;
    chunk.outcome.degraded = true;
    chunk.outcome.dropped_capacity = in.premium + in.ordinary;
    return chunk;
  }

  const BillCapper& capper = hier_.region_capper(in.region);
  DecideOptions opts;
  opts.site_available = in.available;
  opts.time_limit_ms = in.time_limit_ms;
  opts.max_nodes = in.max_nodes;
  opts.max_arena_bytes = in.arena_bytes;
  opts.standby = in.quarantined;
  try {
    if (chunk_fault_hook) chunk_fault_hook(in.region, in.hour);
    chunk.outcome =
        capper.decide(in.premium, in.ordinary, in.demand, in.budget, opts);
    if (in.quarantined) {
      // Quarantine is a policy state, not a fresh failure: the standby
      // solve is degraded by construction but must not feed the ladder.
      chunk.status = ChunkStatus::kQuarantined;
    } else if (chunk.outcome.degraded) {
      chunk.status = ChunkStatus::kDegraded;
      chunk.failure = chunk.outcome.failure;
    }
  } catch (const std::exception&) {
    // The chunk envelope: a thrown solve degrades this region to
    // premium-only standby via the greedy fallback. The fleet hour
    // continues; FailureReason::kThrown is the chunk's root cause.
    chunk.status = ChunkStatus::kDegraded;
    chunk.failure = FailureReason::kThrown;
    DecideOptions standby;
    standby.site_available = in.available;
    standby.standby = true;
    try {
      chunk.outcome = capper.decide(in.premium, in.ordinary, in.demand,
                                    in.budget, standby);
    } catch (...) {  // billcap-lint: allow(catch-all): FailureReason::kThrown
      // is already tagged above; the chunk serves zero this hour.
      chunk.outcome = CappingOutcome{};
      chunk.outcome.mode = CappingOutcome::Mode::kPremiumOnly;
      chunk.outcome.hourly_budget = in.budget;
    }
    chunk.outcome.degraded = true;
    chunk.outcome.failure = FailureReason::kThrown;
  }
  return chunk;
}

FleetHourOutcome FleetController::decide_hour(
    std::size_t hour, double lambda_premium, double lambda_ordinary,
    std::span<const double> other_demand_mw, double hourly_budget,
    const FaultInjector* injector) {
  if (other_demand_mw.size() != num_sites_)
    throw std::invalid_argument("FleetController: demand size mismatch");
  const std::size_t num_regions = hier_.num_regions();

  // ---- coordinator (serial): availability, shares, chunk inputs --------
  std::vector<std::uint8_t> site_up(num_sites_, 1);
  if (injector)
    for (std::size_t i = 0; i < num_sites_; ++i)
      site_up[i] = injector->site_available(i, hour) ? 1 : 0;

  std::vector<ChunkInput> inputs(num_regions);
  std::vector<double> capacity(num_regions, 0.0);
  double total_capacity = 0.0;
  for (std::size_t r = 0; r < num_regions; ++r) {
    ChunkInput& in = inputs[r];
    in.region = r;
    in.hour = hour;
    in.down = injector != nullptr && injector->region_down(r, hour);
    in.quarantined =
        !in.down && hour < quarantine_[r].quarantined_until;
    const Region& region = hier_.region(r);
    in.demand.reserve(region.site_indices.size());
    in.available.reserve(region.site_indices.size());
    for (std::size_t i : region.site_indices) {
      const std::uint8_t up = in.down ? 0 : site_up[i];
      in.demand.push_back(other_demand_mw[i]);
      in.available.push_back(up);
      if (up != 0)
        capacity[r] += make_site_model(sites_[i], policies_[i],
                                       other_demand_mw[i],
                                       options_.optimizer.model_cooling_network)
                           .lambda_max;
    }
    total_capacity += capacity[r];
    in.max_nodes = options_.deadline.max_nodes > 0
                       ? options_.deadline.max_nodes
                       : -1;
    if (injector != nullptr) {
      const long stall = injector->chunk_node_budget(r, hour);
      if (stall > 0)
        in.max_nodes = in.max_nodes > 0 ? std::min(in.max_nodes, stall)
                                        : stall;
      in.arena_bytes = injector->chunk_arena_bytes(r, hour);
    }
    if (options_.deadline.wall_clock_ms > 0.0)
      in.time_limit_ms = options_.deadline.wall_clock_ms;
  }

  FleetHourOutcome out;
  out.site_lambda.assign(num_sites_, 0.0);
  out.chunks.resize(num_regions);

  if (total_capacity > 0.0) {
    for (std::size_t r = 0; r < num_regions; ++r) {
      const double share = capacity[r] / total_capacity;
      inputs[r].premium = lambda_premium * share;
      inputs[r].ordinary = lambda_ordinary * share;
      inputs[r].budget = hourly_budget * share;
    }

    // ---- sharded chunk solves ------------------------------------------
    // One task per region; each region's warm solver arena is touched by
    // exactly one task, results land in indexed slots, and the reduction
    // below walks them in region order — bitwise-identical for any thread
    // count (and for no pool at all).
    if (pool_ != nullptr && num_regions > 1) {
      std::vector<std::future<util::TaskResult<ChunkOutcome>>> futures;
      futures.reserve(num_regions);
      for (std::size_t r = 0; r < num_regions; ++r)
        futures.push_back(pool_->submit_noexcept(
            [this, &in = inputs[r]] { return run_chunk(in); }));
      for (std::size_t r = 0; r < num_regions; ++r) {
        util::TaskResult<ChunkOutcome> result = futures[r].get();
        if (result.ok) {
          out.chunks[r] = std::move(result.value);
        } else {
          // The envelope itself failed (run_chunk catches solve trouble,
          // so this is a harness-level fault). Same contract: the chunk
          // sheds locally with FailureReason::kThrown.
          out.chunks[r].region = r;
          out.chunks[r].status = ChunkStatus::kDegraded;
          out.chunks[r].failure = FailureReason::kThrown;
          out.chunks[r].outcome.mode = CappingOutcome::Mode::kPremiumOnly;
          out.chunks[r].outcome.hourly_budget = inputs[r].budget;
          out.chunks[r].outcome.degraded = true;
          out.chunks[r].outcome.failure = FailureReason::kThrown;
        }
      }
    } else {
      for (std::size_t r = 0; r < num_regions; ++r)
        out.chunks[r] = run_chunk(inputs[r]);
    }
  } else {
    // Nothing can serve anywhere (every region down): the hour completes
    // with zero service rather than aborting.
    for (std::size_t r = 0; r < num_regions; ++r) {
      out.chunks[r] = run_chunk(inputs[r]);
      if (!inputs[r].down) {
        out.chunks[r].status = ChunkStatus::kDegraded;
        out.chunks[r].failure = FailureReason::kInfeasible;
      }
    }
  }

  // ---- ordered reduction ------------------------------------------------
  for (std::size_t r = 0; r < num_regions; ++r) {
    const ChunkOutcome& chunk = out.chunks[r];
    out.served_premium += chunk.outcome.served_premium;
    out.served_ordinary += chunk.outcome.served_ordinary;
    out.predicted_cost += chunk.outcome.allocation.predicted_cost;
    out.dropped_capacity += chunk.outcome.dropped_capacity;
    out.mode = std::max(out.mode, chunk.outcome.mode);
    const Region& region = hier_.region(r);
    const auto lambdas = chunk.outcome.allocation.lambda_vector();
    if (lambdas.size() == region.site_indices.size())
      for (std::size_t k = 0; k < region.site_indices.size(); ++k)
        out.site_lambda[region.site_indices[k]] = lambdas[k];
    switch (chunk.status) {
      case ChunkStatus::kOk: break;
      case ChunkStatus::kDegraded: ++out.degraded_chunks; break;
      case ChunkStatus::kQuarantined: ++out.quarantined_chunks; break;
      case ChunkStatus::kRegionDown: ++out.region_down_chunks; break;
    }
  }

  // ---- quarantine ladder (serial, region order) -------------------------
  const std::size_t trip = std::max<std::size_t>(
      1, options_.quarantine.trip_failures);
  for (std::size_t r = 0; r < num_regions; ++r) {
    if (out.chunks[r].status != ChunkStatus::kDegraded) continue;
    QuarantineState& q = quarantine_[r];
    q.recent_failures.push_back(hour);
    const std::size_t window = options_.quarantine.window_hours;
    std::erase_if(q.recent_failures, [hour, window](std::size_t stamp) {
      return stamp + window <= hour;
    });
    if (q.recent_failures.size() >= trip) {
      q.quarantined_until = hour + 1 + options_.quarantine.quarantine_hours;
      q.recent_failures.clear();
    }
  }
  return out;
}

MonthlyResult FleetController::run_month(const FleetMonthConfig& config) {
  MonthlyResult result;
  result.strategy = Strategy::kCostCapping;
  result.monthly_budget = config.hourly_budget *
                          static_cast<double>(config.hours);
  const FaultInjector injector(config.faults, num_sites_, num_regions(),
                               config.hours);
  // All draws happen here, serially, in hour order: the scenario is a pure
  // function of the seed, and chunk dispatch only ever consumes it.
  util::Rng rng(config.seed ^ 0xf1ee7c0117ULL);
  std::vector<double> demand(num_sites_, 0.0);
  constexpr double kTwoPi = 6.283185307179586;
  for (std::size_t h = 0; h < config.hours; ++h) {
    const double diurnal =
        1.0 + 0.35 * std::sin(kTwoPi * static_cast<double>(h % 24) / 24.0);
    const double premium =
        config.base_premium * diurnal * rng.uniform(0.9, 1.1);
    const double ordinary =
        config.base_ordinary * diurnal * rng.uniform(0.8, 1.2);
    for (double& d : demand)
      d = config.base_demand_mw * rng.uniform(0.7, 1.3);

    const FleetHourOutcome hour_out = decide_hour(
        h, premium, ordinary, demand, config.hourly_budget, &injector);

    HourRecord rec;
    rec.hour = h;
    rec.arrivals = premium + ordinary;
    rec.premium_arrivals = premium;
    rec.ordinary_arrivals = ordinary;
    rec.served_premium = hour_out.served_premium;
    rec.served_ordinary = hour_out.served_ordinary;
    rec.hourly_budget = config.hourly_budget;
    rec.cost = hour_out.predicted_cost;
    rec.predicted_cost = hour_out.predicted_cost;
    rec.mode = hour_out.mode;
    rec.site_lambda = hour_out.site_lambda;
    rec.sites_down = injector.sites_down(h);
    rec.degraded =
        hour_out.degraded_chunks + hour_out.region_down_chunks > 0;
    for (const ChunkOutcome& chunk : hour_out.chunks) {
      if (chunk.status == ChunkStatus::kDegraded) {
        if (rec.failure == FailureReason::kNone) rec.failure = chunk.failure;
        result.chunk_failure_tally[static_cast<std::size_t>(chunk.failure)] +=
            1;
      }
      rec.used_incumbent = rec.used_incumbent || chunk.outcome.used_incumbent;
      rec.used_heuristic = rec.used_heuristic || chunk.outcome.used_heuristic;
    }

    result.total_cost += rec.cost;
    result.total_premium_arrivals += rec.premium_arrivals;
    result.total_ordinary_arrivals += rec.ordinary_arrivals;
    result.total_served_premium += rec.served_premium;
    result.total_served_ordinary += rec.served_ordinary;
    if (rec.degraded) {
      ++result.degraded_hours;
      result.failure_tally[static_cast<std::size_t>(rec.failure)] += 1;
    }
    if (rec.used_incumbent) ++result.incumbent_hours;
    if (rec.used_heuristic) ++result.heuristic_hours;
    if (rec.sites_down > 0 || hour_out.region_down_chunks > 0)
      ++result.outage_hours;
    result.degraded_chunks += hour_out.degraded_chunks;
    result.quarantined_chunks += hour_out.quarantined_chunks;
    result.region_down_chunks += hour_out.region_down_chunks;
    result.hours.push_back(std::move(rec));
  }
  return result;
}

namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

std::string fleet_month_csv(const MonthlyResult& result) {
  std::ostringstream os;
  os << "hour,mode,degraded,failure,premium_arrivals,ordinary_arrivals,"
        "served_premium,served_ordinary,budget,predicted_cost,lambda_hash\n";
  for (const HourRecord& rec : result.hours) {
    util::Fnv1a lambda_hash;
    for (double v : rec.site_lambda) lambda_hash.mix_double(v);
    os << rec.hour << ',' << to_string(rec.mode) << ','
       << (rec.degraded ? 1 : 0) << ',' << to_string(rec.failure) << ','
       << util::format_double(rec.premium_arrivals) << ','
       << util::format_double(rec.ordinary_arrivals) << ','
       << util::format_double(rec.served_premium) << ','
       << util::format_double(rec.served_ordinary) << ','
       << util::format_double(rec.hourly_budget) << ','
       << util::format_double(rec.predicted_cost) << ','
       << hex64(lambda_hash.hash) << '\n';
  }
  os << "total,," << result.degraded_chunks << ','
     << result.quarantined_chunks << ',' << result.region_down_chunks << ','
     << util::format_double(result.total_cost) << ','
     << util::format_double(result.total_served_premium) << ','
     << util::format_double(result.total_served_ordinary) << ",,,\n";
  return os.str();
}

}  // namespace billcap::core
