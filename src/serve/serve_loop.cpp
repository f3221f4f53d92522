#include "serve/serve_loop.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/checkpoint_keys.hpp"
#include "core/cost_model.hpp"
#include "core/fallback_allocator.hpp"
#include "core/formulation.hpp"
#include "core/market_feed.hpp"
#include "lp/problem.hpp"
#include "market/closed_loop.hpp"
#include "util/fnv1a.hpp"
#include "util/journal.hpp"

namespace billcap::serve {

namespace keys = core::keys;

namespace {

// ---- durable state --------------------------------------------------------

/// Every mutable word of the serve loop: restoring this struct and
/// replaying from `next_tick` reproduces the uninterrupted run bitwise.
struct ServeState {
  std::size_t next_tick = 0;
  double spent = 0.0;

  // Current hour's planning context (persisted so a mid-hour resume does
  // not re-poll the market feed).
  std::size_t hour = 0;
  double hour_budget = 0.0;
  bool hour_stale = false;
  std::size_t observed_hour = 0;
  core::MarketFeed::State feed;

  double premium_depth = 0.0;
  double ordinary_depth = 0.0;
  double dropped_premium = 0.0;
  double dropped_ordinary = 0.0;
  std::size_t feed_pending = 0;
  std::size_t feed_seen = 0;
  std::size_t feed_dropped = 0;

  CircuitBreaker::State breaker;
  AdmissionLevel admission = AdmissionLevel::kAdmitAll;
  ActivePlan plan;

  // Closed-loop coupling: the plan lambda captured at the last hour
  // boundary, from which the hour's coupled planning curves were derived.
  // Persisted so a mid-hour resume re-derives the identical curves even
  // after later re-plans replaced the plan itself.
  bool coupled_anchor_valid = false;
  std::vector<double> coupled_anchor;
  std::size_t coupled_refreshes = 0;

  ServeHealth health = ServeHealth::kOk;
  std::string health_history;
  std::size_t health_transitions = 0;

  std::size_t kills_fired = 0;

  double total_premium_arrivals = 0.0;
  double total_ordinary_arrivals = 0.0;
  double total_served_premium = 0.0;
  double total_served_ordinary = 0.0;
  double max_premium_depth = 0.0;
  double max_ordinary_depth = 0.0;
  std::size_t replans = 0;
  std::size_t degraded_replans = 0;
  std::size_t shed_ticks = 0;
  std::size_t standby_ticks = 0;
  std::size_t degraded_ticks = 0;
};

void save_state(const std::string& path, std::size_t keep_generations,
                std::uint64_t digest, const ServeState& st) {
  util::Journal j(keys::kServeCheckpointMagic, keys::kServeCheckpointVersion);
  j.set_u64(keys::kConfigDigest, digest);
  j.set_size(keys::kServeNextTick, st.next_tick);
  j.set_double_bits(keys::kSpent, st.spent);

  j.set_size(keys::kServeHour, st.hour);
  j.set_double_bits(keys::kServeHourBudget, st.hour_budget);
  j.set_size(keys::kServeHourStale, st.hour_stale ? 1 : 0);
  j.set_size(keys::kServeObservedHour, st.observed_hour);
  for (std::size_t i = 0; i < st.feed.rng.size(); ++i)
    j.set_u64(keys::feed_rng(i), st.feed.rng[i]);
  j.set_size(keys::kFeedRecoveredUntil, st.feed.recovered_until);

  j.set_double_bits(keys::kServePremiumDepth, st.premium_depth);
  j.set_double_bits(keys::kServeOrdinaryDepth, st.ordinary_depth);
  j.set_double_bits(keys::kServeDroppedPremium, st.dropped_premium);
  j.set_double_bits(keys::kServeDroppedOrdinary, st.dropped_ordinary);
  j.set_size(keys::kServeFeedPending, st.feed_pending);
  j.set_size(keys::kServeFeedSeen, st.feed_seen);
  j.set_size(keys::kServeFeedDropped, st.feed_dropped);

  j.set_size(keys::kServeBreakerState,
             static_cast<std::size_t>(st.breaker.state));
  j.set_size(keys::kServeBreakerDegraded, st.breaker.consecutive_degraded);
  j.set_size(keys::kServeBreakerCooldown, st.breaker.cooldown_remaining);
  j.set_size(keys::kServeBreakerWindow, st.breaker.current_cooldown_ticks);
  j.set_size(keys::kServeBreakerTrips, st.breaker.trips);
  j.set_size(keys::kServeAdmissionLevel,
             static_cast<std::size_t>(st.admission));

  j.set_size(keys::kServePlanValid, st.plan.valid ? 1 : 0);
  j.set_size(keys::kServePlanDegraded, st.plan.degraded ? 1 : 0);
  j.set_double_list(keys::kServePlanLambda, st.plan.lambda);
  j.set_double_bits(keys::kServePlanPremiumRate, st.plan.premium_rate);
  j.set_double_bits(keys::kServePlanOrdinaryRate, st.plan.ordinary_rate);
  j.set_double_bits(keys::kServePlanPredictedCost, st.plan.predicted_cost);
  j.set_size(keys::kServePlanTick, st.plan.plan_tick);

  j.set_size(keys::kServeCoupledAnchorValid, st.coupled_anchor_valid ? 1 : 0);
  j.set_double_list(keys::kServeCoupledAnchorLambda, st.coupled_anchor);
  j.set_size(keys::kServeCoupledRefreshes, st.coupled_refreshes);

  j.set_size(keys::kServeHealth, static_cast<std::size_t>(st.health));
  j.set(keys::kServeHealthHistory, st.health_history);
  j.set_size(keys::kServeHealthTransitions, st.health_transitions);
  j.set_size(keys::kServeKillsFired, st.kills_fired);

  j.set_double_bits(keys::kTotalPremiumArrivals, st.total_premium_arrivals);
  j.set_double_bits(keys::kTotalOrdinaryArrivals, st.total_ordinary_arrivals);
  j.set_double_bits(keys::kTotalServedPremium, st.total_served_premium);
  j.set_double_bits(keys::kTotalServedOrdinary, st.total_served_ordinary);
  j.set_double_bits(keys::kServeMaxPremiumDepth, st.max_premium_depth);
  j.set_double_bits(keys::kServeMaxOrdinaryDepth, st.max_ordinary_depth);
  j.set_size(keys::kServeReplans, st.replans);
  j.set_size(keys::kServeDegradedReplans, st.degraded_replans);
  j.set_size(keys::kServeShedTicks, st.shed_ticks);
  j.set_size(keys::kServeStandbyTicks, st.standby_ticks);
  j.set_size(keys::kServeDegradedTicks, st.degraded_ticks);

  util::Journal::rotate_generations(path, keep_generations);
  j.save_atomic(path);
}

BreakerState breaker_state_from(std::size_t value) {
  if (value > static_cast<std::size_t>(BreakerState::kHalfOpen))
    throw std::runtime_error("serve checkpoint: breaker state out of range");
  return static_cast<BreakerState>(value);
}

AdmissionLevel admission_level_from(std::size_t value) {
  if (value > static_cast<std::size_t>(AdmissionLevel::kPremiumOnly))
    throw std::runtime_error("serve checkpoint: admission level out of range");
  return static_cast<AdmissionLevel>(value);
}

ServeHealth health_from(std::size_t value) {
  if (value > static_cast<std::size_t>(ServeHealth::kStandby))
    throw std::runtime_error("serve checkpoint: health word out of range");
  return static_cast<ServeHealth>(value);
}

ServeState decode_state(const util::Journal& j) {
  ServeState st;
  st.next_tick = j.get_size(keys::kServeNextTick);
  st.spent = j.get_double_bits(keys::kSpent);

  st.hour = j.get_size(keys::kServeHour);
  st.hour_budget = j.get_double_bits(keys::kServeHourBudget);
  st.hour_stale = j.get_size(keys::kServeHourStale) != 0;
  st.observed_hour = j.get_size(keys::kServeObservedHour);
  for (std::size_t i = 0; i < st.feed.rng.size(); ++i)
    st.feed.rng[i] = j.get_u64(keys::feed_rng(i));
  st.feed.recovered_until = j.get_size(keys::kFeedRecoveredUntil);

  st.premium_depth = j.get_double_bits(keys::kServePremiumDepth);
  st.ordinary_depth = j.get_double_bits(keys::kServeOrdinaryDepth);
  st.dropped_premium = j.get_double_bits(keys::kServeDroppedPremium);
  st.dropped_ordinary = j.get_double_bits(keys::kServeDroppedOrdinary);
  st.feed_pending = j.get_size(keys::kServeFeedPending);
  st.feed_seen = j.get_size(keys::kServeFeedSeen);
  st.feed_dropped = j.get_size(keys::kServeFeedDropped);

  st.breaker.state = breaker_state_from(j.get_size(keys::kServeBreakerState));
  st.breaker.consecutive_degraded = j.get_size(keys::kServeBreakerDegraded);
  st.breaker.cooldown_remaining = j.get_size(keys::kServeBreakerCooldown);
  st.breaker.current_cooldown_ticks = j.get_size(keys::kServeBreakerWindow);
  st.breaker.trips = j.get_size(keys::kServeBreakerTrips);
  st.admission = admission_level_from(j.get_size(keys::kServeAdmissionLevel));

  st.plan.valid = j.get_size(keys::kServePlanValid) != 0;
  st.plan.degraded = j.get_size(keys::kServePlanDegraded) != 0;
  st.plan.lambda = j.get_double_list(keys::kServePlanLambda);
  st.plan.premium_rate = j.get_double_bits(keys::kServePlanPremiumRate);
  st.plan.ordinary_rate = j.get_double_bits(keys::kServePlanOrdinaryRate);
  st.plan.predicted_cost = j.get_double_bits(keys::kServePlanPredictedCost);
  st.plan.plan_tick = j.get_size(keys::kServePlanTick);

  // Absent on pre-coupler serve checkpoints: loads as open-loop state.
  if (j.has(keys::kServeCoupledAnchorValid)) {
    st.coupled_anchor_valid = j.get_size(keys::kServeCoupledAnchorValid) != 0;
    st.coupled_anchor = j.get_double_list(keys::kServeCoupledAnchorLambda);
    st.coupled_refreshes = j.get_size(keys::kServeCoupledRefreshes);
  }

  st.health = health_from(j.get_size(keys::kServeHealth));
  st.health_history = j.get(keys::kServeHealthHistory);
  st.health_transitions = j.get_size(keys::kServeHealthTransitions);
  st.kills_fired = j.get_size(keys::kServeKillsFired);

  st.total_premium_arrivals = j.get_double_bits(keys::kTotalPremiumArrivals);
  st.total_ordinary_arrivals = j.get_double_bits(keys::kTotalOrdinaryArrivals);
  st.total_served_premium = j.get_double_bits(keys::kTotalServedPremium);
  st.total_served_ordinary = j.get_double_bits(keys::kTotalServedOrdinary);
  st.max_premium_depth = j.get_double_bits(keys::kServeMaxPremiumDepth);
  st.max_ordinary_depth = j.get_double_bits(keys::kServeMaxOrdinaryDepth);
  st.replans = j.get_size(keys::kServeReplans);
  st.degraded_replans = j.get_size(keys::kServeDegradedReplans);
  st.shed_ticks = j.get_size(keys::kServeShedTicks);
  st.standby_ticks = j.get_size(keys::kServeStandbyTicks);
  st.degraded_ticks = j.get_size(keys::kServeDegradedTicks);
  return st;
}

struct ServeLoadReport {
  ServeState state;
  std::size_t generation = 0;
  std::vector<std::string> skipped;
};

/// The serve journal's generation scan: core::load_newest_generation with
/// the digest read before the state is decoded.
ServeLoadReport load_state_fallback(const std::string& path, std::size_t gens,
                                    std::uint64_t expected_digest) {
  ServeLoadReport report;
  report.generation = core::load_newest_generation(
      path, gens, "serve checkpoint", report.skipped,
      [&](const std::string& gen_path) {
        const util::Journal j =
            util::Journal::load(gen_path, keys::kServeCheckpointMagic,
                                keys::kServeCheckpointVersion);
        if (j.get_u64(keys::kConfigDigest) != expected_digest) return false;
        report.state = decode_state(j);
        return true;
      });
  return report;
}

}  // namespace

// ---- ServeReport ----------------------------------------------------------

bool ServeReport::premium_qos_ok() const noexcept {
  // No premium mass turned away at the door, and no stranded premium
  // backlog at the end (a sliver below 5 % of the queue — one tick's
  // natural residue — is in-flight work, not a violation).
  return dropped_premium == 0.0 &&
         (premium_queue_capacity <= 0.0 ||
          final_premium_depth <= 0.05 * premium_queue_capacity);
}

double ServeReport::premium_throughput_ratio() const noexcept {
  if (total_premium_arrivals <= 0.0) return 1.0;
  return total_served_premium / total_premium_arrivals;
}

double ServeReport::ordinary_throughput_ratio() const noexcept {
  if (total_ordinary_arrivals <= 0.0) return 1.0;
  return total_served_ordinary / total_ordinary_arrivals;
}

// ---- ServeLoop ------------------------------------------------------------

ServeLoop::ServeLoop(const core::Simulator& sim, ServeConfig config)
    : sim_(sim), config_(config) {
  if (config_.ticks_per_hour == 0)
    throw std::invalid_argument("ServeLoop: ticks_per_hour must be >= 1");
  if (config_.premium_queue_ticks <= 0.0 || config_.ordinary_queue_ticks <= 0.0)
    throw std::invalid_argument("ServeLoop: queue sizes must be > 0 ticks");
  if (config_.feed_updates_per_tick == 0)
    throw std::invalid_argument(
        "ServeLoop: feed_updates_per_tick must be >= 1");

  const std::size_t hours = sim_.evaluation_trace().hours();
  horizon_hours_ = config_.horizon_hours == 0
                       ? hours
                       : std::min(config_.horizon_hours, hours);
  total_ticks_ = horizon_hours_ * config_.ticks_per_hour;

  const RequestFeed feed(sim_.evaluation_trace(), sim_.fault_injector(),
                         sim_.config().premium_share, config_.ticks_per_hour);
  const workload::PremiumSplit split(sim_.config().premium_share);
  const double mean = feed.mean_tick_arrivals();
  // A degenerate class share (all-premium / all-ordinary configs) still
  // gets a token one-request queue so fill() stays well-defined.
  premium_cap_ =
      std::max(config_.premium_queue_ticks * split.premium(mean), 1.0);
  ordinary_cap_ =
      std::max(config_.ordinary_queue_ticks * split.ordinary(mean), 1.0);

  // The serve digest continues from the batch config digest and folds in
  // every serve knob that changes decisions, so a serve checkpoint can be
  // resumed only under the exact configuration that wrote it.
  util::Fnv1a d(core::checkpoint_digest(sim_.config(),
                                        core::Strategy::kCostCapping));
  d.mix_u64(config_.ticks_per_hour);
  d.mix_u64(horizon_hours_);
  d.mix_double(config_.premium_queue_ticks);
  d.mix_double(config_.ordinary_queue_ticks);
  d.mix_u64(config_.feed_queue_capacity);
  d.mix_u64(config_.feed_updates_per_tick);
  d.mix_double(config_.admission.shed_enter_fill);
  d.mix_double(config_.admission.shed_exit_fill);
  d.mix_double(config_.admission.standby_enter_fill);
  d.mix_double(config_.admission.standby_exit_fill);
  d.mix_u64(config_.admission.stale_ticks_tolerated);
  d.mix_u64(config_.breaker.trip_after);
  d.mix_u64(config_.breaker.cooldown_ticks);
  d.mix_double(config_.breaker.cooldown_multiplier);
  d.mix_u64(config_.breaker.cooldown_max_ticks);
  d.mix_u64(static_cast<std::uint64_t>(config_.replan_node_budget));
  d.mix_double(config_.replan_deadline_ms);
  d.mix_u64(config_.kill_at_ticks.size());
  for (std::size_t k : config_.kill_at_ticks) d.mix_u64(k);
  // `standby` is deliberately NOT mixed: a standby attempt must be able to
  // pick up the primary's checkpoint and vice versa.
  digest_ = d.hash;
}

ServeOutcome ServeLoop::run(
    const std::string& checkpoint_path, bool resume,
    const std::function<void(const TickRecord&)>& on_tick) const {
  return run(checkpoint_path, resume, on_tick, Controls{});
}

ServeOutcome ServeLoop::run(
    const std::string& checkpoint_path, bool resume,
    const std::function<void(const TickRecord&)>& on_tick,
    const Controls& controls) const {
  const bool durable = !checkpoint_path.empty();
  if (!durable && resume)
    throw std::invalid_argument("ServeLoop: resume requires a checkpoint path");
  if (!durable && !config_.kill_at_ticks.empty())
    throw std::invalid_argument(
        "ServeLoop: injected kills require a checkpoint path (an in-memory "
        "run could never recover)");
  const std::size_t gens = std::max<std::size_t>(1, controls.keep_generations);

  std::vector<std::size_t> kills = config_.kill_at_ticks;
  std::sort(kills.begin(), kills.end());

  const std::size_t T = config_.ticks_per_hour;
  const core::SimulationConfig& sim_cfg = sim_.config();
  const auto& sites = sim_.sites();
  const auto& policies = sim_.policies();
  const core::FaultInjector& injector = sim_.fault_injector();
  const std::size_t n = sites.size();
  const std::size_t eval_hours = sim_.evaluation_trace().hours();

  // Closed-loop coupling: planning (re-plans and the water-filling ladder)
  // runs against curves re-derived from the grid at every hour boundary,
  // anchored at the plan the daemon was executing when the hour opened.
  // Ground-truth billing below deliberately stays on the static settlement
  // curves — the daemon prices its decisions against the coupled market but
  // is billed on the tariff it actually signed.
  const bool coupled = sim_cfg.market_coupler.enabled;
  std::vector<market::PricingPolicy> active_policies = policies;
  std::optional<market::CoupledMarket> coupled_market;
  std::vector<double> coupled_caps;
  if (coupled) {
    coupled_market.emplace(market::CoupledMarket::paper());
    if (coupled_market->num_sites() != n)
      throw std::invalid_argument(
          "ServeLoop: closed-loop coupling requires one site per coupled "
          "market bus");
    coupled_caps.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      coupled_caps[i] = sites[i].power_mw(sites[i].max_requests_per_hour());
  }

  const RequestFeed arrivals_feed(sim_.evaluation_trace(), injector,
                                  sim_cfg.premium_share, T);

  ServeOutcome out;
  ServeState st;
  core::MarketFeed feed(&injector, sim_cfg.market_feed,
                        sim_cfg.seed ^ 0x6d6172666565ULL);

  bool resumed = false;
  if (resume && durable &&
      core::any_checkpoint_generation_exists(checkpoint_path, gens)) {
    ServeLoadReport loaded = load_state_fallback(checkpoint_path, gens,
                                                 digest_);
    st = std::move(loaded.state);
    out.resumed_from_tick = st.next_tick;
    out.resumed_generation = loaded.generation;
    out.resume_skipped = std::move(loaded.skipped);
    resumed = true;
  }
  if (resumed) {
    feed.restore(st.feed);
  } else {
    // Record the seeded stream before the first commit so a kill at tick 0
    // resumes the identical RNG trajectory.
    st.feed = feed.state();
  }

  BoundedQueue premium_q(premium_cap_);
  BoundedQueue ordinary_q(ordinary_cap_);
  premium_q.restore(st.premium_depth, st.dropped_premium);
  ordinary_q.restore(st.ordinary_depth, st.dropped_ordinary);
  FeedUpdateQueue updates(config_.feed_queue_capacity);
  updates.restore(st.feed_pending, st.feed_seen, st.feed_dropped);
  AdmissionController admission(config_.admission, config_.standby);
  admission.restore(st.admission);
  ReplanEngine engine(sites, active_policies, sim_cfg.optimizer,
                      config_.replan_node_budget, config_.replan_deadline_ms,
                      config_.breaker);
  engine.breaker().restore(st.breaker);
  engine.restore_counters(st.replans, st.degraded_replans);
  HealthTracker tracker = HealthTracker::decode(st.health,
                                                st.health_transitions,
                                                st.health_history);

  std::size_t ticks_this_attempt = 0;
  std::vector<double> believed(n);
  std::vector<double> truth(n);
  std::vector<std::uint8_t> available(n);

  // Re-derives the hour's coupled planning curves from the persisted
  // anchor. Replacing active_policies' CONTENTS re-points the engine's
  // capper (it holds a reference to the vector, not a copy). A derivation
  // the grid cannot support (OPF infeasible under the hour's faults)
  // falls back to the static curves until the next boundary — and a resume
  // hits the same infeasibility, so the fallback is deterministic too.
  const auto refresh_coupled = [&](std::size_t for_hour) {
    std::vector<double> anchor_power(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double l =
          i < st.coupled_anchor.size() ? st.coupled_anchor[i] : 0.0;
      if (l > 0.0) anchor_power[i] = sites[i].power_mw(l);
    }
    const market::CoupledHourFaults faults = sim_.grid_faults_at(for_hour);
    try {
      active_policies = coupled_market->derive_local_policies(
          anchor_power, believed, believed, coupled_caps,
          sim_cfg.market_coupler.loop, &faults);
      ++st.coupled_refreshes;
    } catch (const std::exception&) {
      active_policies = policies;
    }
  };

  // A mid-hour resume must plan against the same curves the dead attempt
  // did: rebuild the hour's believed demand from the persisted hour
  // context and re-derive from the persisted anchor (not a new refresh —
  // the counter stays what the checkpoint said).
  if (coupled && resumed && st.coupled_anchor_valid) {
    const std::size_t demand_hour = st.hour_stale ? st.observed_hour : st.hour;
    for (std::size_t i = 0; i < n; ++i)
      believed[i] = sim_.background_demand()[i].at(demand_hour) *
                    injector.demand_multiplier(i, demand_hour);
    const std::size_t refreshes = st.coupled_refreshes;
    refresh_coupled(st.hour);
    st.coupled_refreshes = refreshes;
  }

  while (st.next_tick < total_ticks_) {
    if (controls.stop_flag && *controls.stop_flag) {
      out.stopped = true;
      break;
    }
    if (controls.max_ticks > 0 && ticks_this_attempt >= controls.max_ticks) {
      out.stopped = true;
      break;
    }

    const std::size_t tick = st.next_tick;

    // Snap the kill cursor past ticks already committed (a standby attempt
    // or a generation-fallback resume must not re-fire history).
    while (st.kills_fired < kills.size() && kills[st.kills_fired] < tick)
      ++st.kills_fired;

    // Injected daemon death: dies before this tick's checkpoint commits —
    // zero forward progress, only the consumed kill entry is recorded (the
    // kill-storm soak needs each restart to re-earn the tick). Standby
    // attempts bypass the kills: they model defects in the primary path.
    if (!config_.standby && st.kills_fired < kills.size() &&
        kills[st.kills_fired] == tick) {
      ++st.kills_fired;
      save_state(checkpoint_path, gens, digest_, st);
      out.crashed = true;
      out.crash_tick = tick;
      break;
    }

    const std::size_t hour = tick / T;
    bool replan_wanted = false;

    // ---- hour boundary: fresh budget, market-feed poll ------------------
    if (tick % T == 0) {
      st.hour = hour;
      st.hour_budget = sim_cfg.enforce_budget
                           ? sim_.budgeter().hourly_budget(hour, st.spent)
                           : 1e18;
      const core::FeedObservation obs = feed.poll(hour);
      st.hour_stale = obs.stale;
      st.observed_hour = std::min(obs.observed_hour, eval_hours - 1);
      replan_wanted = true;
    }

    // ---- bounded ingest: mid-hour price revisions + arrivals ------------
    updates.push(injector.feed_burst_updates(hour));
    const std::size_t processed = updates.drain(config_.feed_updates_per_tick);
    if (processed > 0) replan_wanted = true;

    const RequestFeed::TickArrivals arr = arrivals_feed.at(tick);
    const double premium_accepted = premium_q.offer(arr.premium);
    const double ordinary_accepted = ordinary_q.offer(arr.ordinary);

    // Pressure and staleness also want a re-plan.
    const std::size_t tolerated = config_.admission.stale_ticks_tolerated;
    if (!st.plan.valid || tick - st.plan.plan_tick > tolerated)
      replan_wanted = true;
    if (ordinary_q.fill() >= config_.admission.shed_enter_fill ||
        premium_q.fill() >= config_.admission.standby_enter_fill)
      replan_wanted = true;

    // ---- world as the daemon believes it --------------------------------
    const std::size_t demand_hour = st.hour_stale ? st.observed_hour : hour;
    for (std::size_t i = 0; i < n; ++i) {
      believed[i] = sim_.background_demand()[i].at(demand_hour) *
                    injector.demand_multiplier(i, demand_hour);
      truth[i] = sim_.background_demand()[i].at(hour) *
                 injector.demand_multiplier(i, hour);
      available[i] = injector.site_available(i, hour) ? 1 : 0;
    }

    // ---- closed-loop coupling: hour-boundary curve refresh --------------
    // Anchored at the plan the daemon carries into the hour; re-plans later
    // in the hour re-decide against these curves but do not re-derive them
    // (one curve derivation per hour, matching the batch coupler's cadence).
    if (coupled && tick % T == 0) {
      st.coupled_anchor =
          st.plan.valid ? st.plan.lambda : std::vector<double>(n, 0.0);
      st.coupled_anchor_valid = true;
      refresh_coupled(hour);
    }

    // ---- breaker clock + re-plan engine ---------------------------------
    engine.breaker().on_tick();
    bool replanned = false;
    bool plan_held = false;
    if (!config_.standby && replan_wanted) {
      ReplanEngine::Request req;
      req.premium_rate =
          arr.premium * static_cast<double>(T) + premium_q.depth();
      req.ordinary_rate =
          arr.ordinary * static_cast<double>(T) + ordinary_q.depth();
      req.demand_mw = believed;
      req.hourly_budget = st.hour_budget;
      req.site_available = available;
      req.tick = tick;
      replanned = engine.replan(req, st.plan);
      plan_held = !replanned;
    }

    // ---- admission ladder -----------------------------------------------
    AdmissionInputs inputs;
    inputs.premium_fill = premium_q.fill();
    inputs.ordinary_fill = ordinary_q.fill();
    inputs.plan_stale_ticks =
        st.plan.valid ? tick - st.plan.plan_tick : tolerated + 1;
    inputs.breaker_open = engine.breaker().state() != BreakerState::kClosed;
    const AdmissionLevel level = admission.update(inputs);

    // ---- service: plan rates or the water-filling ladder ----------------
    const double premium_wanted = premium_q.depth();
    const double ordinary_wanted = ordinary_q.depth();
    double premium_rate = 0.0;   // requests/hour this tick serves at
    double ordinary_rate = 0.0;
    std::span<const double> lambda;
    std::vector<double> ladder_lambda;  // keeps fallback dispatch alive
    if (level == AdmissionLevel::kAdmitAll && st.plan.valid) {
      premium_rate = st.plan.premium_rate;
      ordinary_rate = st.plan.ordinary_rate;
      lambda = st.plan.lambda;
    } else {
      // Shedding (or no plan yet): greedy water-filling over the believed
      // cost curves — the same rung the batch capper bottoms out on. The
      // standby rung serves premium only, budget be damned (the QoS
      // guarantee outranks the cap, Section V-B).
      std::vector<core::SiteModel> models;
      models.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        core::SiteModel m = core::make_site_model(
            sites[i], active_policies[i], believed[i],
            sim_cfg.optimizer.model_cooling_network);
        if (!available[i]) m.lambda_max = 0.0;
        models.push_back(std::move(m));
      }
      core::FallbackRequest request;
      request.lambda_required = premium_wanted * static_cast<double>(T);
      if (level == AdmissionLevel::kPremiumOnly) {
        request.lambda_optional = 0.0;
        request.cost_budget = lp::kInfinity;
      } else {
        request.lambda_optional = ordinary_wanted * static_cast<double>(T);
        request.cost_budget = st.hour_budget;
      }
      const core::AllocationResult ladder =
          core::fallback_allocate(models, request);
      premium_rate = std::min(request.lambda_required, ladder.total_lambda);
      ordinary_rate = ladder.total_lambda - premium_rate;
      ladder_lambda = ladder.lambda_vector();
      lambda = ladder_lambda;
    }

    const double served_premium =
        premium_q.take(premium_rate / static_cast<double>(T));
    const double served_ordinary =
        ordinary_q.take(ordinary_rate / static_cast<double>(T));

    // ---- ground-truth billing -------------------------------------------
    // The allocation is an hourly-rate shape; this tick actually ran it for
    // served/T of an hour's worth. Scale the dispatch to the served mass so
    // an emptier-than-planned queue is not billed for phantom load.
    double planned_total = 0.0;
    for (double v : lambda) planned_total += v;
    const double served_total = (served_premium + served_ordinary) *
                                static_cast<double>(T);
    const double scale =
        planned_total > 0.0 ? std::min(served_total / planned_total, 1.0)
                            : 0.0;
    std::vector<double> dispatch(lambda.size(), 0.0);
    for (std::size_t i = 0; i < lambda.size(); ++i)
      dispatch[i] = lambda[i] * scale;
    const double tick_cost =
        dispatch.empty()
            ? 0.0
            : core::evaluate_allocation(sites, policies, truth, dispatch)
                      .total_cost /
                  static_cast<double>(T);
    st.spent += tick_cost;

    // ---- health word ----------------------------------------------------
    const bool plan_unreliable =
        !st.plan.valid || st.plan.degraded ||
        tick - st.plan.plan_tick > tolerated;
    const ServeHealth health =
        classify_health(level, engine.breaker().state(), plan_unreliable);
    tracker.observe(health, tick);

    // ---- aggregates + commit --------------------------------------------
    st.total_premium_arrivals += arr.premium;
    st.total_ordinary_arrivals += arr.ordinary;
    st.total_served_premium += served_premium;
    st.total_served_ordinary += served_ordinary;
    st.max_premium_depth = std::max(st.max_premium_depth, premium_q.depth());
    st.max_ordinary_depth = std::max(st.max_ordinary_depth, ordinary_q.depth());
    if (level == AdmissionLevel::kShedOrdinary) ++st.shed_ticks;
    if (level == AdmissionLevel::kPremiumOnly) ++st.standby_ticks;
    if (health != ServeHealth::kOk) ++st.degraded_ticks;

    st.premium_depth = premium_q.depth();
    st.ordinary_depth = ordinary_q.depth();
    st.dropped_premium = premium_q.dropped();
    st.dropped_ordinary = ordinary_q.dropped();
    st.feed_pending = updates.pending();
    st.feed_seen = updates.seen();
    st.feed_dropped = updates.dropped();
    st.breaker = engine.breaker().snapshot();
    st.admission = level;
    st.replans = engine.replans();
    st.degraded_replans = engine.degraded_replans();
    st.health = tracker.current();
    st.health_history = tracker.encode_history();
    st.health_transitions = tracker.transitions_total();
    st.feed = feed.state();
    st.next_tick = tick + 1;

    TickRecord rec;
    rec.tick = tick;
    rec.hour = hour;
    rec.premium_arrivals = arr.premium;
    rec.ordinary_arrivals = arr.ordinary;
    rec.dropped_premium = arr.premium - premium_accepted;
    rec.dropped_ordinary = arr.ordinary - ordinary_accepted;
    rec.served_premium = served_premium;
    rec.served_ordinary = served_ordinary;
    rec.premium_depth = premium_q.depth();
    rec.ordinary_depth = ordinary_q.depth();
    rec.cost = tick_cost;
    rec.hour_budget = st.hour_budget;
    rec.crowd_multiplier = arr.crowd_multiplier;
    rec.feed_updates = processed;
    rec.replanned = replanned;
    rec.replan_degraded = replanned && st.plan.degraded;
    rec.plan_held = plan_held;
    rec.stale = st.hour_stale;
    rec.admission = level;
    rec.breaker = engine.breaker().state();
    rec.health = health;
    out.report.ticks_this_attempt.push_back(rec);
    // The observer (the CLI's streamed CSV row) runs BEFORE the tick's
    // checkpoint commits: a death between the two leaves an extra row for
    // an uncommitted tick, which the resume's truncate-to-checkpoint pass
    // rewrites identically. The opposite order would lose the row of a
    // committed tick forever — the checkpoint deliberately stores no
    // per-tick records to back-fill it from.
    if (on_tick) on_tick(rec);
    if (durable) save_state(checkpoint_path, gens, digest_, st);
    ++ticks_this_attempt;
  }

  ServeReport& rep = out.report;
  rep.ticks_committed = st.next_tick;
  rep.ticks_per_hour = T;
  rep.total_premium_arrivals = st.total_premium_arrivals;
  rep.total_ordinary_arrivals = st.total_ordinary_arrivals;
  rep.total_served_premium = st.total_served_premium;
  rep.total_served_ordinary = st.total_served_ordinary;
  rep.dropped_premium = st.dropped_premium;
  rep.dropped_ordinary = st.dropped_ordinary;
  rep.total_cost = st.spent;
  rep.max_premium_depth = st.max_premium_depth;
  rep.max_ordinary_depth = st.max_ordinary_depth;
  rep.final_premium_depth = st.premium_depth;
  rep.final_ordinary_depth = st.ordinary_depth;
  rep.premium_queue_capacity = premium_cap_;
  rep.ordinary_queue_capacity = ordinary_cap_;
  rep.feed_updates_seen = st.feed_seen;
  rep.feed_updates_dropped = st.feed_dropped;
  rep.replans = st.replans;
  rep.degraded_replans = st.degraded_replans;
  rep.coupled_refreshes = st.coupled_refreshes;
  rep.breaker_trips = st.breaker.trips;
  rep.shed_ticks = st.shed_ticks;
  rep.standby_ticks = st.standby_ticks;
  rep.degraded_ticks = st.degraded_ticks;
  rep.final_health = tracker.current();
  rep.health_history = tracker.history();
  rep.health_transitions = tracker.transitions_total();
  return out;
}

}  // namespace billcap::serve
