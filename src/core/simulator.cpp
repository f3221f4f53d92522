#include "core/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "core/baselines.hpp"
#include "core/checkpoint.hpp"
#include "core/fallback_allocator.hpp"
#include "datacenter/catalog.hpp"
#include "market/background_demand.hpp"
#include "util/calendar.hpp"
#include "workload/predictor.hpp"

namespace billcap::core {

namespace {

// solve_ms is timing telemetry only — it is excluded from bitwise-resume
// comparisons (see crash_resume_test).
// billcap-lint: allow(wall-clock): telemetry-only, never checkpointed
double elapsed_ms(std::chrono::steady_clock::time_point start) {
  // billcap-lint: allow(wall-clock): same sanctioned telemetry site
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Folds one finished hour into the month's aggregates.
void accumulate(MonthlyResult& result, HourRecord&& rec) {
  result.total_cost += rec.cost;
  result.total_premium_arrivals += rec.premium_arrivals;
  result.total_ordinary_arrivals += rec.ordinary_arrivals;
  result.total_served_premium += rec.served_premium;
  result.total_served_ordinary += rec.served_ordinary;
  result.max_solve_ms = std::max(result.max_solve_ms, rec.solve_ms);
  result.degraded_hours += rec.degraded ? 1 : 0;
  result.incumbent_hours += rec.used_incumbent ? 1 : 0;
  result.heuristic_hours += rec.used_heuristic ? 1 : 0;
  result.outage_hours += rec.sites_down > 0 ? 1 : 0;
  result.stale_hours += rec.stale_prices ? 1 : 0;
  if (rec.degraded)
    ++result.failure_tally[static_cast<std::size_t>(rec.failure)];
  result.feed_retry_attempts += static_cast<std::size_t>(rec.feed_attempts);
  result.feed_recovered_hours += rec.feed_recovered ? 1 : 0;
  result.closed_loop_hours += rec.coupler_converged ? 1 : 0;
  result.coupler_fallback_hours += rec.coupler_fallback ? 1 : 0;
  result.coupler_iterations += rec.coupler_iterations;
  result.hours.push_back(std::move(rec));
}

}  // namespace

const char* to_string(BudgetWeighting weighting) noexcept {
  switch (weighting) {
    case BudgetWeighting::kHistory: return "history";
    case BudgetWeighting::kUniform: return "uniform";
    case BudgetWeighting::kOracle: return "oracle";
  }
  return "unknown";
}

const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kCostCapping: return "CostCapping";
    case Strategy::kMinOnlyAvg: return "MinOnly(Avg)";
    case Strategy::kMinOnlyLow: return "MinOnly(Low)";
  }
  return "unknown";
}

double MonthlyResult::premium_throughput_ratio() const noexcept {
  return total_premium_arrivals > 0.0
             ? total_served_premium / total_premium_arrivals
             : 1.0;
}

double MonthlyResult::ordinary_throughput_ratio() const noexcept {
  return total_ordinary_arrivals > 0.0
             ? total_served_ordinary / total_ordinary_arrivals
             : 1.0;
}

double MonthlyResult::budget_utilization() const noexcept {
  return monthly_budget > 0.0 ? total_cost / monthly_budget : 0.0;
}

Simulator::Simulator(SimulationConfig config)
    : config_(std::move(config)),
      sites_(datacenter::paper_datacenters()),
      policies_(market::paper_policies(config_.policy_level)),
      budgeter_(1.0, std::vector<double>(168, 1.0 / 168.0), 1) /* replaced */ {
  if (config_.premium_share < 0.0 || config_.premium_share > 1.0)
    throw std::invalid_argument("Simulator: premium_share in [0,1] required");

  const workload::TwoMonthTrace traces =
      workload::paper_two_month_trace(config_.seed, config_.workload);
  history_ = traces.history;
  evaluation_ = traces.evaluation;
  if (config_.history_seed_offset != 0) {
    // Misprediction injection: the budgeter learns from a history month of
    // a different random world (same shape family, different realization).
    history_ = workload::paper_two_month_trace(
                   config_.seed + config_.history_seed_offset,
                   config_.workload)
                   .history;
  }

  // Background demand, phase-aligned with the trace: generate both months
  // and keep the evaluation slice.
  const std::size_t total_hours = history_.hours() + evaluation_.hours();
  const auto full_demand =
      market::paper_background_demand(total_hours, config_.seed ^ 0x9e3779b9);
  demand_.resize(full_demand.size());
  for (std::size_t s = 0; s < full_demand.size(); ++s) {
    demand_[s].assign(full_demand[s].begin() +
                          static_cast<std::ptrdiff_t>(history_.hours()),
                      full_demand[s].end());
  }
  if (demand_.size() != sites_.size())
    throw std::logic_error("Simulator: demand/site count mismatch");

  std::vector<double> weights;
  switch (config_.budget_weighting) {
    case BudgetWeighting::kHistory:
      weights = workload::hour_of_week_weights(history_.series(),
                                               config_.history_weeks);
      break;
    case BudgetWeighting::kUniform:
      weights.assign(util::kHoursPerWeek,
                     1.0 / static_cast<double>(util::kHoursPerWeek));
      break;
    case BudgetWeighting::kOracle: {
      // Perfect foresight: weights from the evaluation month itself. Its
      // phase starts where the history month ended, so prepend a history-
      // length zero pad is unnecessary — hour_of_week_weights assumes the
      // span starts at global hour 0, so rebuild with explicit slotting.
      std::vector<double> sums(util::kHoursPerWeek, 0.0);
      for (std::size_t h = 0; h < evaluation_.hours(); ++h)
        sums[util::hour_of_week(history_.hours() + h)] += evaluation_.at(h);
      double total = 0.0;
      for (double s : sums) total += s;
      for (double& s : sums) s /= total;
      weights = std::move(sums);
      break;
    }
  }
  budgeter_ = Budgeter(config_.monthly_budget, std::move(weights),
                       evaluation_.hours(),
                       util::hour_of_week(history_.hours()));

  // Fault schedule for the evaluation month: per fault kind, explicit plan
  // entries win over rate-driven generation (so `--crash-at` composes with
  // `--fault-stale-rate` instead of silencing it); both derive only from
  // the config, so a run is deterministic in (seed, plan/rates).
  if (config_.fault_rates.any())
    plan_ = generate_fault_plan(config_.fault_rates, evaluation_.hours(),
                                sites_.size(),
                                config_.seed ^ 0xfa0171737c0deULL);
  const FaultPlan& explicit_plan = config_.fault_plan;
  if (!explicit_plan.outages.empty()) plan_.outages = explicit_plan.outages;
  if (!explicit_plan.stale_intervals.empty())
    plan_.stale_intervals = explicit_plan.stale_intervals;
  if (!explicit_plan.demand_shocks.empty())
    plan_.demand_shocks = explicit_plan.demand_shocks;
  if (!explicit_plan.deadline_squeezes.empty())
    plan_.deadline_squeezes = explicit_plan.deadline_squeezes;
  if (!explicit_plan.crashes.empty()) plan_.crashes = explicit_plan.crashes;
  if (!explicit_plan.exit_storms.empty())
    plan_.exit_storms = explicit_plan.exit_storms;
  if (!explicit_plan.checkpoint_corruptions.empty())
    plan_.checkpoint_corruptions = explicit_plan.checkpoint_corruptions;
  if (!explicit_plan.flash_crowds.empty())
    plan_.flash_crowds = explicit_plan.flash_crowds;
  if (!explicit_plan.feed_bursts.empty())
    plan_.feed_bursts = explicit_plan.feed_bursts;
  if (!explicit_plan.region_outages.empty())
    plan_.region_outages = explicit_plan.region_outages;
  if (!explicit_plan.chunk_stalls.empty())
    plan_.chunk_stalls = explicit_plan.chunk_stalls;
  if (!explicit_plan.chunk_squeezes.empty())
    plan_.chunk_squeezes = explicit_plan.chunk_squeezes;
  if (!explicit_plan.line_outages.empty())
    plan_.line_outages = explicit_plan.line_outages;
  if (!explicit_plan.grid_demand_shocks.empty())
    plan_.grid_demand_shocks = explicit_plan.grid_demand_shocks;
  if (!explicit_plan.congestion_spikes.empty())
    plan_.congestion_spikes = explicit_plan.congestion_spikes;
  if (!plan_.empty())
    injector_ = FaultInjector(plan_, sites_.size(), evaluation_.hours());
}

MarketFeed Simulator::make_feed() const {
  return MarketFeed(&injector_, config_.market_feed,
                    config_.seed ^ 0x6d6172666565ULL);
}

std::unique_ptr<MarketCoupler> Simulator::make_coupler(
    Strategy strategy) const {
  if (!config_.market_coupler.enabled || strategy != Strategy::kCostCapping)
    return nullptr;
  return std::make_unique<MarketCoupler>(sites_, policies_, config_.optimizer,
                                         config_.market_coupler);
}

market::CoupledHourFaults Simulator::grid_faults_at(
    std::size_t fault_hour) const {
  market::CoupledHourFaults faults;
  if (!injector_.enabled() || !injector_.grid_faulted(fault_hour))
    return faults;
  faults.line_out.resize(injector_.grid_lines(), 0);
  faults.line_limit_factor.resize(injector_.grid_lines(), 1.0);
  for (std::size_t l = 0; l < injector_.grid_lines(); ++l) {
    faults.line_out[l] = injector_.line_out(l, fault_hour) ? 1 : 0;
    faults.line_limit_factor[l] = injector_.line_limit_factor(l, fault_hour);
  }
  faults.bus_demand_multiplier.resize(injector_.grid_buses(), 1.0);
  for (std::size_t b = 0; b < injector_.grid_buses(); ++b)
    faults.bus_demand_multiplier[b] =
        injector_.bus_demand_multiplier(b, fault_hour);
  return faults;
}

std::vector<double> Simulator::demand_at(std::size_t hour) const {
  std::vector<double> d;
  d.reserve(demand_.size());
  for (const auto& series : demand_) d.push_back(series.at(hour));
  return d;
}

HourRecord Simulator::run_hour_cost_capping(const BillCapper& capper,
                                            MarketFeed& feed,
                                            MarketCoupler* coupler,
                                            std::size_t hour,
                                            double spent_so_far) const {
  // Without budget enforcement the capper still runs, but against an
  // unlimited budget: exactly step 1 (used for Figures 3 and 4).
  const double budget = config_.enforce_budget
                            ? budgeter_.hourly_budget(hour, spent_so_far)
                            : 1e18;
  return run_capping_hour(capper, feed, coupler, hour, hour,
                          evaluation_.at(hour), demand_at(hour), budget);
}

HourRecord Simulator::run_capping_hour(const BillCapper& capper,
                                       MarketFeed& feed,
                                       MarketCoupler* coupler,
                                       std::size_t hour,
                                       std::size_t fault_hour,
                                       double arrivals,
                                       std::vector<double> raw_demand,
                                       double budget) const {
  const workload::PremiumSplit split(config_.premium_share);
  const double premium = split.premium(arrivals);
  const double ordinary = split.ordinary(arrivals);
  const std::size_t n = sites_.size();

  // Ground-truth demand carries the hour's injected shocks; the believed
  // demand is what the (possibly stale) market feed shows the optimizer.
  std::vector<double> d = std::move(raw_demand);
  for (std::size_t i = 0; i < n; ++i)
    d[i] *= injector_.demand_multiplier(i, fault_hour);

  DecideOptions overrides;
  overrides.standby = config_.standby;
  std::vector<std::uint8_t> available;
  std::vector<double> believed;
  std::size_t sites_down = 0;
  FeedObservation feed_obs;
  feed_obs.observed_hour = fault_hour;
  if (injector_.enabled()) {
    available.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      available[i] = injector_.site_available(i, fault_hour) ? 1 : 0;
      sites_down += available[i] ? 0 : 1;
    }
    overrides.site_available = available;

    // The market-data client: passes a fresh feed through, re-polls a
    // frozen one with backoff. Only when it stays stale does the optimizer
    // plan against the frozen hour's demand while billing uses today's.
    feed_obs = feed.poll(fault_hour);
    if (feed_obs.stale) {
      const std::size_t observed = feed_obs.observed_hour;
      believed = demand_at(std::min(observed, evaluation_.hours() - 1));
      for (std::size_t i = 0; i < n; ++i)
        believed[i] *= injector_.demand_multiplier(i, observed);
      overrides.believed_demand_mw = believed;
    }

    const double squeeze = injector_.solver_deadline_ms(fault_hour);
    if (squeeze > 0.0) overrides.time_limit_ms = squeeze;
  }

  // billcap-lint: allow(wall-clock): telemetry-only, never checkpointed
  const auto start = std::chrono::steady_clock::now();
  CappingOutcome outcome;
  MarketCoupler::HourPlan plan;
  GroundTruth truth;
  if (coupler) {
    // Closed market loop: plan against re-derived coupled curves (inside
    // the fault envelope), then bill at the LMPs the realized draw itself
    // produces — the fleet is a price maker on both sides.
    MarketCoupler::HourInputs in;
    in.premium = premium;
    in.ordinary = ordinary;
    in.true_demand_mw = d;
    in.budget = budget;
    in.overrides = &overrides;
    in.faults = grid_faults_at(fault_hour);
    plan = coupler->plan_hour(in, capper);
    outcome = std::move(plan.outcome);
    truth = coupler->bill(outcome.allocation.lambda_vector(), d, in.faults);
  } else {
    outcome = capper.decide(premium, ordinary, d, budget, overrides);
    truth = evaluate_allocation(sites_, policies_, d,
                                outcome.allocation.lambda_vector());
  }
  const double ms = elapsed_ms(start);

  HourRecord rec;
  rec.hour = hour;
  rec.arrivals = arrivals;
  rec.premium_arrivals = premium;
  rec.ordinary_arrivals = ordinary;
  rec.served_premium = outcome.served_premium;
  rec.served_ordinary = outcome.served_ordinary;
  rec.hourly_budget = config_.enforce_budget ? outcome.hourly_budget : 0.0;
  rec.cost = truth.total_cost;
  rec.predicted_cost = outcome.allocation.predicted_cost;
  rec.mode = outcome.mode;
  rec.site_lambda = outcome.allocation.lambda_vector();
  rec.site_power_mw.reserve(truth.sites.size());
  for (const auto& site : truth.sites)
    rec.site_power_mw.push_back(site.power.total_mw());
  rec.solve_ms = ms;
  rec.nodes = outcome.allocation.nodes;
  rec.degraded = outcome.degraded;
  rec.failure = outcome.failure;
  rec.used_incumbent = outcome.used_incumbent;
  rec.used_heuristic = outcome.used_heuristic;
  rec.sites_down = sites_down;
  rec.stale_prices = feed_obs.stale;
  rec.feed_attempts = feed_obs.attempts;
  rec.feed_recovered = feed_obs.recovered;
  if (coupler) {
    // An oscillating/diverging coupled plan is a degraded hour even though
    // the open-loop fallback that actually served it solved cleanly; the
    // coupler's trouble is the root cause the tally should carry.
    if (plan.oscillation) {
      rec.degraded = true;
      rec.failure = FailureReason::kPriceOscillation;
    } else if (plan.diverged) {
      rec.degraded = true;
      rec.failure = FailureReason::kCouplerDiverged;
    }
    rec.coupler_iterations = plan.iterations;
    rec.coupler_converged = plan.closed_loop;
    rec.coupler_fallback = plan.fallback;
    rec.coupler_rung = plan.rung;
  }
  return rec;
}

HourRecord Simulator::run_hour_min_only(std::size_t hour,
                                        MinOnlyPriceModel price_model) const {
  const workload::PremiumSplit split(config_.premium_share);
  const double arrivals = evaluation_.at(hour);
  const std::size_t n = sites_.size();

  // Ground-truth demand carries the hour's injected shocks. (Min-Only
  // believes a flat price, so a stale market feed cannot mislead it — only
  // outages and the solver deadline bite.)
  std::vector<double> d = demand_at(hour);
  for (std::size_t i = 0; i < n; ++i)
    d[i] *= injector_.demand_multiplier(i, hour);

  // Min-Only admits everything it physically can (it knows no budget);
  // arrivals beyond its believed capacity are shed like any dispatcher
  // would. A site down this hour has no capacity to offer.
  std::vector<SiteModel> believed = min_only_site_models(
      sites_, policies_, price_model);
  std::size_t sites_down = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!injector_.site_available(i, hour)) {
      believed[i].lambda_max = 0.0;
      ++sites_down;
    }
  }
  const double admitted = std::min(arrivals, system_capacity(believed));

  OptimizerOptions opts = config_.optimizer;
  const double squeeze = injector_.solver_deadline_ms(hour);
  if (squeeze > 0.0) opts.milp.time_limit_ms = squeeze;

  // billcap-lint: allow(wall-clock): telemetry-only, never checkpointed
  const auto start = std::chrono::steady_clock::now();
  AllocationResult allocation =
      minimize_cost_over_models(believed, admitted, opts);
  const double ms = elapsed_ms(start);

  // Degradation ladder, same as the capper's: incumbent, then greedy
  // water-filling. The baseline must not abort the month either.
  bool degraded = false;
  bool used_incumbent = false;
  bool used_heuristic = false;
  FailureReason failure = FailureReason::kNone;
  if (!allocation.ok()) {
    degraded = true;
    failure = failure_reason_from(allocation.status);
    if (allocation.feasible) {
      used_incumbent = true;
    } else {
      allocation = fallback_allocate(
          believed, FallbackRequest{admitted, 0.0, lp::kInfinity});
      used_heuristic = true;
    }
  }
  const double placed =
      used_heuristic ? std::min(admitted, allocation.total_lambda) : admitted;

  const GroundTruth truth =
      evaluate_allocation(sites_, policies_, d, allocation.lambda_vector());

  HourRecord rec;
  rec.hour = hour;
  rec.arrivals = arrivals;
  rec.premium_arrivals = split.premium(arrivals);
  rec.ordinary_arrivals = split.ordinary(arrivals);
  // Min-Only serves everything admitted regardless of cost (Section VII-C);
  // capacity shedding drops ordinary traffic first.
  rec.served_premium = std::min(rec.premium_arrivals, placed);
  rec.served_ordinary =
      std::min(rec.ordinary_arrivals, placed - rec.served_premium);
  rec.cost = truth.total_cost;
  rec.predicted_cost = allocation.predicted_cost;
  rec.site_lambda = allocation.lambda_vector();
  rec.site_power_mw.reserve(truth.sites.size());
  for (const auto& site : truth.sites)
    rec.site_power_mw.push_back(site.power.total_mw());
  rec.solve_ms = ms;
  rec.nodes = allocation.nodes;
  rec.degraded = degraded;
  rec.failure = failure;
  rec.used_incumbent = used_incumbent;
  rec.used_heuristic = used_heuristic;
  rec.sites_down = sites_down;
  return rec;
}

std::vector<MonthlyResult> Simulator::run_months(std::size_t months) const {
  if (months == 0)
    throw std::invalid_argument("run_months: need at least one month");
  constexpr std::size_t kMonthHours = 30 * 24;
  const std::size_t lead = history_.hours();
  const std::size_t total = lead + months * kMonthHours;

  // Extending the generation window preserves the prefix (same RNG
  // stream), so month 0 reproduces run()'s evaluation month exactly.
  const workload::Trace full =
      workload::generate_wiki_trace(config_.workload, total, config_.seed);
  const auto full_demand =
      market::paper_background_demand(total, config_.seed ^ 0x9e3779b9);
  const BillCapper capper(sites_, policies_, config_.optimizer);
  MarketFeed feed = make_feed();
  const std::unique_ptr<MarketCoupler> coupler =
      make_coupler(Strategy::kCostCapping);

  std::vector<MonthlyResult> results;
  results.reserve(months);
  for (std::size_t m = 0; m < months; ++m) {
    const std::size_t start = lead + m * kMonthHours;
    const std::span<const double> trailing(full.series().data(), start);
    const Budgeter budgeter(
        config_.monthly_budget,
        workload::hour_of_week_weights(trailing, config_.history_weeks),
        kMonthHours, util::hour_of_week(start));

    MonthlyResult result;
    result.strategy = Strategy::kCostCapping;
    result.monthly_budget = config_.monthly_budget;
    result.hours.reserve(kMonthHours);
    double spent = 0.0;
    for (std::size_t h = 0; h < kMonthHours; ++h) {
      const std::size_t g = start + h;
      std::vector<double> d;
      d.reserve(full_demand.size());
      for (const auto& series : full_demand) d.push_back(series[g]);
      const double budget = config_.enforce_budget
                                ? budgeter.hourly_budget(h, spent)
                                : 1e18;

      // Fault hours continue across months; the month-scoped plan only
      // covers month 0, later hours report fault-free.
      HourRecord rec =
          run_capping_hour(capper, feed, coupler.get(), h,
                           m * kMonthHours + h, full.at(g), std::move(d),
                           budget);
      spent += rec.cost;
      accumulate(result, std::move(rec));
    }
    results.push_back(std::move(result));
  }
  return results;
}

HourRecord Simulator::run_one_hour(Strategy strategy, const BillCapper& capper,
                                   MarketFeed& feed, MarketCoupler* coupler,
                                   std::size_t hour,
                                   double spent_so_far) const {
  switch (strategy) {
    case Strategy::kCostCapping:
      return run_hour_cost_capping(capper, feed, coupler, hour, spent_so_far);
    case Strategy::kMinOnlyAvg:
      return run_hour_min_only(hour, MinOnlyPriceModel::kAverage);
    case Strategy::kMinOnlyLow:
      return run_hour_min_only(hour, MinOnlyPriceModel::kLow);
  }
  throw std::logic_error("run_one_hour: unknown strategy");
}

MonthlyResult Simulator::run(Strategy strategy) const {
  MonthlyResult result;
  result.strategy = strategy;
  result.monthly_budget = config_.monthly_budget;
  result.hours.reserve(evaluation_.hours());

  const BillCapper capper(sites_, policies_, config_.optimizer);
  MarketFeed feed = make_feed();
  const std::unique_ptr<MarketCoupler> coupler = make_coupler(strategy);
  double spent = 0.0;
  for (std::size_t hour = 0; hour < evaluation_.hours(); ++hour) {
    HourRecord rec =
        run_one_hour(strategy, capper, feed, coupler.get(), hour, spent);
    spent += rec.cost;
    accumulate(result, std::move(rec));
  }
  return result;
}

namespace {

/// Simulates bit rot in a checkpoint file (FaultPlan::CheckpointCorruption):
/// stomps a span in the middle so the journal checksum fails on the next
/// load and the resume must fall back a generation.
void corrupt_file(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  f.seekp(size / 2);
  f << "<<bit-rot>>";
}

}  // namespace

Simulator::ResumableOutcome Simulator::run_resumable(
    Strategy strategy, const std::string& checkpoint_path, bool resume,
    const std::function<void(const HourRecord&)>& on_hour) const {
  return run_resumable(strategy, checkpoint_path, resume, on_hour,
                       ResumeControls{});
}

Simulator::ResumableOutcome Simulator::run_resumable(
    Strategy strategy, const std::string& checkpoint_path, bool resume,
    const std::function<void(const HourRecord&)>& on_hour,
    const ResumeControls& controls) const {
  if (checkpoint_path.empty())
    throw std::invalid_argument("run_resumable: checkpoint path required");
  const std::size_t gens = std::max<std::size_t>(1, controls.keep_generations);

  const std::uint64_t digest = checkpoint_digest(config_, strategy);
  ResumableOutcome out;
  CheckpointState st;
  bool loaded = false;
  if (resume && any_checkpoint_generation_exists(checkpoint_path, gens)) {
    // Newest-first generation scan: a corrupted or mismatched generation
    // is skipped (at the cost of replaying the hours between two saves),
    // and only a set with no viable generation at all throws.
    CheckpointLoadReport report =
        load_checkpoint_fallback(checkpoint_path, gens, digest);
    st = std::move(report.state);
    out.resumed_generation = report.generation;
    out.resume_skipped = std::move(report.skipped);
    loaded = true;
  } else {
    st.config_digest = digest;
    st.strategy = strategy;
    st.partial.strategy = strategy;
    st.partial.monthly_budget = config_.monthly_budget;
  }

  const BillCapper capper(sites_, policies_, config_.optimizer);
  MarketFeed feed = make_feed();
  const std::unique_ptr<MarketCoupler> coupler = make_coupler(strategy);
  if (loaded) {
    feed.restore(st.feed);
    // Coupler trajectories (warm-start point, breaker clock, ladder rung)
    // must survive the kill for the resumed month to stay bit-identical.
    if (coupler) coupler->restore(st.coupler);
  } else {
    st.feed = feed.state();  // so a crash before the first commit persists
                             // the seeded stream, not a default-zero one
    if (coupler) st.coupler = coupler->state();
  }

  // Fault schedules, sorted by hour; the checkpointed counters are cursors
  // into them (entries consumed by earlier attempts never re-fire).
  std::vector<FaultPlan::ControllerCrash> crashes = plan_.crashes;
  std::sort(crashes.begin(), crashes.end(),
            [](const auto& a, const auto& b) { return a.hour < b.hour; });
  std::vector<FaultPlan::ExitStorm> storms = plan_.exit_storms;
  std::sort(storms.begin(), storms.end(),
            [](const auto& a, const auto& b) { return a.hour < b.hour; });
  std::vector<FaultPlan::CheckpointCorruption> corruptions =
      plan_.checkpoint_corruptions;
  std::sort(corruptions.begin(), corruptions.end(),
            [](const auto& a, const auto& b) { return a.hour < b.hour; });

  // st.storms_fired counts *deaths* consumed across all storm entries;
  // this maps it onto the entry the next death would belong to.
  struct StormPos {
    std::size_t index = 0;   ///< storms.size() = all storms drained
    std::size_t within = 0;  ///< deaths already consumed from that entry
  };
  const auto storm_at = [&storms](std::size_t deaths) {
    StormPos pos;
    for (pos.index = 0; pos.index < storms.size(); ++pos.index) {
      if (deaths < storms[pos.index].count) {
        pos.within = deaths;
        return pos;
      }
      deaths -= storms[pos.index].count;
    }
    return pos;
  };

  // Injected crashes and exit storms model defects in the primary decide
  // path; the degraded standby bypasses that path, so they do not fire.
  const bool standby = config_.standby;
  // One writer per attempt: each commit encodes only the hour it appends
  // (a resumed attempt's first commit encodes the loaded hours once).
  CheckpointWriter writer;
  const auto save = [&](const CheckpointState& s) {
    writer.save_rotated(checkpoint_path, s, gens);
  };

  out.resumed_from = st.next_hour;
  out.recoveries = st.crashes_fired;

  std::size_t committed_this_attempt = 0;
  st.partial.hours.reserve(evaluation_.hours());
  for (std::size_t hour = st.next_hour; hour < evaluation_.hours(); ++hour) {
    if ((controls.stop_flag && *controls.stop_flag) ||
        (controls.max_hours > 0 &&
         committed_this_attempt >= controls.max_hours)) {
      // Graceful stop between hours: the checkpoint already holds every
      // committed hour, nothing to flush.
      out.stopped = true;
      out.result = std::move(st.partial);
      return out;
    }

    const bool crash_now = !standby && st.crashes_fired < crashes.size() &&
                           crashes[st.crashes_fired].hour == hour;
    const bool crash_before_checkpoint =
        crash_now && crashes[st.crashes_fired].before_checkpoint;
    const bool storm_now = !standby &&
                           storm_at(st.storms_fired).index < storms.size() &&
                           storms[storm_at(st.storms_fired).index].hour == hour;
    const bool corrupt_now =
        st.corruptions_fired < corruptions.size() &&
        corruptions[st.corruptions_fired].hour == hour;

    HourRecord rec =
        run_one_hour(strategy, capper, feed, coupler.get(), hour, st.spent);

    if (storm_now) {
      // One exit-storm death: the process dies before this hour's
      // checkpoint commits, so the attempt made zero forward progress.
      // Only the consumed-death counter is re-persisted (on top of the
      // previous consistent state) so the storm eventually drains.
      ++st.storms_fired;
      save(st);
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }

    if (crash_before_checkpoint) {
      // The process dies after computing the hour but before the hour's
      // checkpoint commits: the work is lost (the resume recomputes it).
      // Only the crash cursor is advanced — re-persisted on top of the
      // previous consistent state so the same entry cannot fire again.
      ++st.crashes_fired;
      save(st);
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }

    if (corrupt_now) {
      // Storage fault at this hour's commit: the newest generation will
      // be stomped right after it is written. First re-persist the
      // *previous* committed state carrying the advanced corruption
      // cursor — it becomes the fallback generation, and without the
      // cursor the resume would replay this hour and re-corrupt itself
      // forever.
      ++st.corruptions_fired;
      save(st);
    }

    st.spent += rec.cost;
    st.next_hour = hour + 1;
    st.feed = feed.state();
    if (coupler) st.coupler = coupler->state();
    if (crash_now) ++st.crashes_fired;
    // Cursor snapping: a standby attempt walks past crash/storm hours
    // without consuming them; advance the cursors past everything at or
    // before the committed hour so a later primary attempt does not jam
    // on (or replay) entries for hours that already happened.
    while (st.crashes_fired < crashes.size() &&
           crashes[st.crashes_fired].hour < st.next_hour)
      ++st.crashes_fired;
    for (StormPos pos = storm_at(st.storms_fired);
         pos.index < storms.size() && storms[pos.index].hour < st.next_hour;
         pos = storm_at(st.storms_fired))
      st.storms_fired += storms[pos.index].count - pos.within;
    while (st.corruptions_fired < corruptions.size() &&
           corruptions[st.corruptions_fired].hour < st.next_hour)
      ++st.corruptions_fired;
    // Kept current on every commit so the persisted checkpoint (what the
    // supervisor and post-mortems read) carries the recovery count too.
    st.partial.crash_recoveries = st.crashes_fired + st.storms_fired;

    accumulate(st.partial, std::move(rec));
    // The observer (the CLI's streamed CSV row) runs BEFORE the hour's
    // checkpoint commits: an asynchronous kill between the two leaves an
    // extra row for an uncommitted hour, which the resume's
    // truncate-to-checkpoint pass recomputes and rewrites identically.
    // The opposite order would strand the CSV one committed row short.
    if (on_hour) on_hour(st.partial.hours.back());
    save(st);
    ++committed_this_attempt;

    if (corrupt_now) {
      corrupt_file(checkpoint_path);
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }

    if (crash_now) {
      // Dies right after the commit: the hour survives, the resume picks
      // up at the next one.
      out.crashed = true;
      out.crash_hour = hour;
      out.result = std::move(st.partial);
      return out;
    }
  }

  st.partial.crash_recoveries = st.crashes_fired + st.storms_fired;
  out.recoveries = st.crashes_fired;
  out.result = std::move(st.partial);
  return out;
}

}  // namespace billcap::core
