#include "core/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "core/checkpoint_keys.hpp"
#include "util/fnv1a.hpp"
#include "util/journal.hpp"

namespace billcap::core {

namespace {

// ---- encoding -------------------------------------------------------------

using util::journal_text::append_double_bits;
using util::journal_text::append_u64;
using util::journal_text::kDoubleBitsChars;
using util::journal_text::kMaxU64Chars;
using util::journal_text::write_double_bits;
using util::journal_text::write_u64;

void put_key(std::string& out, std::string_view key) {
  out += key;
  out += '=';
}
void put_u64(std::string& out, std::string_view key, std::uint64_t v) {
  put_key(out, key);
  append_u64(out, v);
  out += '\n';
}
void put_double(std::string& out, std::string_view key, double v) {
  put_key(out, key);
  append_double_bits(out, v);
  out += '\n';
}
/// Space-joined decimals, no trailing space.
template <class Range>
void put_list(std::string& out, std::string_view key, const Range& values) {
  put_key(out, key);
  bool first = true;
  for (const auto v : values) {
    if (!first) out += ' ';
    first = false;
    append_u64(out, static_cast<std::uint64_t>(v));
  }
  out += '\n';
}

/// Hour-record tokens, each followed by one space, written through a
/// cursor into space append_hour_line has reserved: this is the loop a
/// one-shot save runs once per hour.
char* tok_u(char* p, std::uint64_t v) noexcept {
  p = write_u64(p, v);
  *p++ = ' ';
  return p;
}
char* tok_d(char* p, double v) noexcept {
  p = write_double_bits(p, v);
  *p++ = ' ';
  return p;
}

// The fixed tok_u / tok_d calls in append_hour_line, which sizes its
// buffer from them: keep them in step with the record layout.
constexpr std::size_t kHourIntTokens = 17;
constexpr std::size_t kHourDoubleTokens = 9;

void append_hour_line(std::string& out, std::size_t index,
                      const HourRecord& rec) {
  const std::string key = keys::hour(index);
  const std::size_t doubles = kHourDoubleTokens + rec.site_lambda.size() +
                              rec.site_power_mw.size();
  const std::size_t begin = out.size();
  out.resize(begin + key.size() + 2 + kHourIntTokens * (kMaxU64Chars + 1) +
             doubles * (kDoubleBitsChars + 1));
  char* p = out.data() + begin;
  p = std::copy(key.begin(), key.end(), p);
  *p++ = '=';
  p = tok_u(p, rec.hour);
  p = tok_u(p, static_cast<std::uint64_t>(rec.mode));
  p = tok_u(p, static_cast<std::uint64_t>(rec.failure));
  p = tok_u(p, rec.degraded ? 1 : 0);
  p = tok_u(p, rec.used_incumbent ? 1 : 0);
  p = tok_u(p, rec.used_heuristic ? 1 : 0);
  p = tok_u(p, rec.stale_prices ? 1 : 0);
  p = tok_u(p, static_cast<std::uint64_t>(rec.feed_attempts));
  p = tok_u(p, rec.feed_recovered ? 1 : 0);
  p = tok_u(p, rec.sites_down);
  p = tok_u(p, static_cast<std::uint64_t>(rec.nodes));
  p = tok_d(p, rec.arrivals);
  p = tok_d(p, rec.premium_arrivals);
  p = tok_d(p, rec.ordinary_arrivals);
  p = tok_d(p, rec.served_premium);
  p = tok_d(p, rec.served_ordinary);
  p = tok_d(p, rec.hourly_budget);
  p = tok_d(p, rec.cost);
  p = tok_d(p, rec.predicted_cost);
  p = tok_d(p, rec.solve_ms);
  p = tok_u(p, rec.site_lambda.size());
  for (double v : rec.site_lambda) p = tok_d(p, v);
  p = tok_u(p, rec.site_power_mw.size());
  for (double v : rec.site_power_mw) p = tok_d(p, v);
  // Coupler fields: appended AFTER every v1 field so pre-coupler records
  // decode with the (zero) defaults — extend only at the end.
  p = tok_u(p, rec.coupler_iterations);
  p = tok_u(p, rec.coupler_converged ? 1 : 0);
  p = tok_u(p, rec.coupler_fallback ? 1 : 0);
  p = tok_u(p, rec.coupler_rung);
  *p++ = '\n';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

// ---- decoding -------------------------------------------------------------

using util::journal_text::Tokens;

/// Parses the whole token in `base`; false for an empty or malformed token.
bool parse_u64(std::string_view token, std::uint64_t& out, int base = 10) {
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), out, base);
  return !token.empty() && res.ec == std::errc{} &&
         res.ptr == token.data() + token.size();
}

std::uint64_t take_u(Tokens& in) {
  std::uint64_t v = 0;
  if (!parse_u64(in.next(), v))
    throw std::runtime_error("checkpoint: truncated hour record");
  return v;
}
/// EOF-tolerant read for fields appended after the v1 layout: a record from
/// an older writer simply runs out of tokens, which must read as the field's
/// default — only a *malformed* token still throws.
bool take_u_opt(Tokens& in, std::uint64_t& out) {
  const std::string_view token = in.next();
  if (token.empty()) return false;  // clean EOF: pre-extension record
  if (!parse_u64(token, out))
    throw std::runtime_error("checkpoint: malformed hour record");
  return true;
}
double take_d(std::string_view token) {
  std::uint64_t bits = 0;
  if (token.size() != 16 || !parse_u64(token, bits, 16))
    throw std::runtime_error("checkpoint: malformed hour record");
  return std::bit_cast<double>(bits);
}
double take_d(Tokens& in) { return take_d(in.next()); }

HourRecord decode_hour(std::string_view text) {
  Tokens is(text);
  HourRecord rec;
  rec.hour = static_cast<std::size_t>(take_u(is));
  rec.mode = static_cast<CappingOutcome::Mode>(take_u(is));
  rec.failure = static_cast<FailureReason>(take_u(is));
  rec.degraded = take_u(is) != 0;
  rec.used_incumbent = take_u(is) != 0;
  rec.used_heuristic = take_u(is) != 0;
  rec.stale_prices = take_u(is) != 0;
  rec.feed_attempts = static_cast<int>(take_u(is));
  rec.feed_recovered = take_u(is) != 0;
  rec.sites_down = static_cast<std::size_t>(take_u(is));
  rec.nodes = static_cast<long>(take_u(is));
  rec.arrivals = take_d(is);
  rec.premium_arrivals = take_d(is);
  rec.ordinary_arrivals = take_d(is);
  rec.served_premium = take_d(is);
  rec.served_ordinary = take_d(is);
  rec.hourly_budget = take_d(is);
  rec.cost = take_d(is);
  rec.predicted_cost = take_d(is);
  rec.solve_ms = take_d(is);
  const std::size_t n_lambda = static_cast<std::size_t>(take_u(is));
  rec.site_lambda.reserve(n_lambda);
  for (std::size_t i = 0; i < n_lambda; ++i)
    rec.site_lambda.push_back(take_d(is));
  const std::size_t n_power = static_cast<std::size_t>(take_u(is));
  rec.site_power_mw.reserve(n_power);
  for (std::size_t i = 0; i < n_power; ++i)
    rec.site_power_mw.push_back(take_d(is));
  std::uint64_t v = 0;
  if (take_u_opt(is, v)) {
    rec.coupler_iterations = static_cast<std::size_t>(v);
    rec.coupler_converged = take_u(is) != 0;
    rec.coupler_fallback = take_u(is) != 0;
    rec.coupler_rung = static_cast<std::size_t>(take_u(is));
  }
  return rec;
}

/// Reads a decimal tally into `tally`. Tolerant of shorter tallies: a
/// checkpoint written before an entry was added carries fewer values, and
/// the entries it predates necessarily counted zero (`tally` is
/// zero-initialized).
template <std::size_t N>
void read_tally(std::string_view text, std::array<std::size_t, N>& tally) {
  Tokens in(text);
  for (std::size_t& slot : tally) {
    std::uint64_t v = 0;
    if (!parse_u64(in.next(), v)) break;
    slot = static_cast<std::size_t>(v);
  }
}

}  // namespace

std::uint64_t checkpoint_digest(const SimulationConfig& config,
                                Strategy strategy) {
  util::Fnv1a d;
  d.mix_u64(static_cast<std::uint64_t>(strategy));
  d.mix_u64(config.seed);
  d.mix_double(config.monthly_budget);
  d.mix_double(config.premium_share);
  d.mix_u64(static_cast<std::uint64_t>(config.policy_level));
  d.mix_bool(config.enforce_budget);
  d.mix_u64(config.history_weeks);
  d.mix_u64(static_cast<std::uint64_t>(config.budget_weighting));
  d.mix_u64(config.history_seed_offset);

  d.mix_double(config.workload.mean_rate);
  d.mix_double(config.workload.diurnal_amplitude);
  d.mix_double(config.workload.weekend_drop);
  d.mix_double(config.workload.noise_sigma);
  d.mix_double(config.workload.flash_crowd_per_hour);
  d.mix_double(config.workload.flash_crowd_magnitude);
  d.mix_double(config.workload.flash_crowd_decay);

  d.mix_bool(config.optimizer.model_cooling_network);
  d.mix_bool(config.optimizer.warm_hourly_solver);
  d.mix_u64(static_cast<std::uint64_t>(config.optimizer.milp.max_nodes));
  d.mix_double(config.optimizer.milp.integrality_tol);
  d.mix_double(config.optimizer.milp.relative_gap);
  d.mix_double(config.optimizer.milp.absolute_gap);
  d.mix_double(config.optimizer.milp.time_limit_ms);

  const FaultPlan& plan = config.fault_plan;
  d.mix_u64(plan.outages.size());
  for (const auto& o : plan.outages) {
    d.mix_u64(o.site);
    d.mix_u64(o.start_hour);
    d.mix_u64(o.duration_hours);
  }
  d.mix_u64(plan.stale_intervals.size());
  for (const auto& s : plan.stale_intervals) {
    d.mix_u64(s.start_hour);
    d.mix_u64(s.duration_hours);
  }
  d.mix_u64(plan.demand_shocks.size());
  for (const auto& s : plan.demand_shocks) {
    d.mix_u64(s.site);
    d.mix_u64(s.start_hour);
    d.mix_u64(s.duration_hours);
    d.mix_double(s.multiplier);
  }
  d.mix_u64(plan.deadline_squeezes.size());
  for (const auto& s : plan.deadline_squeezes) {
    d.mix_u64(s.start_hour);
    d.mix_u64(s.duration_hours);
    d.mix_double(s.time_limit_ms);
  }
  d.mix_u64(plan.crashes.size());
  for (const auto& c : plan.crashes) {
    d.mix_u64(c.hour);
    d.mix_bool(c.before_checkpoint);
  }
  d.mix_u64(plan.exit_storms.size());
  for (const auto& s : plan.exit_storms) {
    d.mix_u64(s.hour);
    d.mix_u64(s.count);
  }
  d.mix_u64(plan.checkpoint_corruptions.size());
  for (const auto& c : plan.checkpoint_corruptions) d.mix_u64(c.hour);
  d.mix_u64(plan.flash_crowds.size());
  for (const auto& f : plan.flash_crowds) {
    d.mix_u64(f.start_hour);
    d.mix_u64(f.duration_hours);
    d.mix_double(f.multiplier);
  }
  d.mix_u64(plan.feed_bursts.size());
  for (const auto& b : plan.feed_bursts) {
    d.mix_u64(b.start_hour);
    d.mix_u64(b.duration_hours);
    d.mix_u64(b.updates_per_tick);
  }
  // Grid-side fault kinds: mixed only when present so a plan without them
  // keeps its pre-coupler digest (resumability across the format change).
  if (!plan.line_outages.empty()) {
    d.mix_u64(plan.line_outages.size());
    for (const auto& o : plan.line_outages) {
      d.mix_u64(o.line);
      d.mix_u64(o.start_hour);
      d.mix_u64(o.duration_hours);
    }
  }
  if (!plan.grid_demand_shocks.empty()) {
    d.mix_u64(plan.grid_demand_shocks.size());
    for (const auto& s : plan.grid_demand_shocks) {
      d.mix_u64(s.bus);
      d.mix_u64(s.start_hour);
      d.mix_u64(s.duration_hours);
      d.mix_double(s.multiplier);
    }
  }
  if (!plan.congestion_spikes.empty()) {
    d.mix_u64(plan.congestion_spikes.size());
    for (const auto& s : plan.congestion_spikes) {
      d.mix_u64(s.line);
      d.mix_u64(s.start_hour);
      d.mix_u64(s.duration_hours);
      d.mix_double(s.limit_factor);
    }
  }

  d.mix_double(config.fault_rates.outage_rate);
  d.mix_u64(config.fault_rates.outage_mean_hours);
  d.mix_double(config.fault_rates.stale_rate);
  d.mix_u64(config.fault_rates.stale_mean_hours);
  d.mix_double(config.fault_rates.shock_rate);
  d.mix_u64(config.fault_rates.shock_mean_hours);
  d.mix_double(config.fault_rates.shock_multiplier);
  d.mix_double(config.fault_rates.squeeze_rate);
  d.mix_u64(config.fault_rates.squeeze_mean_hours);
  d.mix_double(config.fault_rates.squeeze_ms);
  d.mix_double(config.fault_rates.crash_rate);

  d.mix_double(config.market_feed.retry_success_prob);
  d.mix_u64(static_cast<std::uint64_t>(config.market_feed.max_attempts_per_hour));
  d.mix_double(config.market_feed.base_backoff_ms);
  d.mix_double(config.market_feed.backoff_multiplier);
  d.mix_double(config.market_feed.max_backoff_ms);
  d.mix_double(config.market_feed.jitter_frac);

  // Coupler configuration: mixed only when enabled, so every open-loop
  // config keeps the digest it had before the closed-loop format existed.
  if (config.market_coupler.enabled) {
    const MarketCouplerOptions& mc = config.market_coupler;
    d.mix_bool(mc.enabled);
    d.mix_bool(mc.plan_closed_loop);
    d.mix_double(mc.loop.feedback_gain);
    d.mix_u64(mc.loop.max_iters);
    d.mix_double(mc.loop.epsilon_mw);
    d.mix_double(mc.loop.price_tol);
    d.mix_double(mc.loop.smoothing_alpha);
    d.mix_double(mc.loop.trust_region_mw);
    d.mix_double(mc.loop.hysteresis_frac);
    d.mix_u64(static_cast<std::uint64_t>(mc.damping));
    d.mix_u64(mc.deescalate_after);
    d.mix_u64(mc.breaker_trip_after);
    d.mix_u64(mc.breaker_cooldown_hours);
    d.mix_double(mc.breaker_cooldown_multiplier);
    d.mix_u64(mc.breaker_cooldown_max_hours);
  }

  return d.hash;
}

bool checkpoint_exists(const std::string& path) noexcept {
  const std::ifstream probe(path);
  return probe.good();
}

void CheckpointWriter::sync_hours(const std::vector<HourRecord>& hours) {
  // The cache is reused only while it is still a prefix of `hours`: the
  // vector did not shrink and its last cached record re-encodes to the
  // cached line. One record's encode is the guard's whole cost.
  bool reuse = cached_hours_ > 0 && hours.size() >= cached_hours_;
  if (reuse) {
    probe_.clear();
    append_hour_line(probe_, cached_hours_ - 1, hours[cached_hours_ - 1]);
    reuse = std::string_view(hour_lines_).substr(last_line_begin_) == probe_;
  }
  if (!reuse) {
    hour_lines_.clear();
    cached_hours_ = 0;
  }
  for (; cached_hours_ < hours.size(); ++cached_hours_) {
    last_line_begin_ = hour_lines_.size();
    append_hour_line(hour_lines_, cached_hours_, hours[cached_hours_]);
  }
}

const std::string& CheckpointWriter::encode(const CheckpointState& state) {
  const MonthlyResult& r = state.partial;
  sync_hours(r.hours);

  std::string& out = text_;
  out.clear();
  out.reserve(hour_lines_.size() + 4096);
  util::journal_text::append_header(out, keys::kCheckpointMagic,
                                    keys::kCheckpointVersion);
  put_u64(out, keys::kConfigDigest, state.config_digest);
  put_u64(out, keys::kStrategy, static_cast<std::uint64_t>(state.strategy));
  put_u64(out, keys::kNextHour, state.next_hour);
  put_double(out, keys::kSpent, state.spent);
  put_u64(out, keys::kCrashesFired, state.crashes_fired);
  put_u64(out, keys::kStormsFired, state.storms_fired);
  put_u64(out, keys::kCorruptionsFired, state.corruptions_fired);
  for (std::size_t i = 0; i < state.feed.rng.size(); ++i)
    put_u64(out, keys::feed_rng(i), state.feed.rng[i]);
  put_u64(out, keys::kFeedRecoveredUntil, state.feed.recovered_until);

  const MarketCoupler::State& cp = state.coupler;
  put_u64(out, keys::kCouplerBreakerState, cp.breaker_state);
  put_u64(out, keys::kCouplerConsecTroubled, cp.consecutive_troubled);
  put_u64(out, keys::kCouplerCooldown, cp.cooldown_remaining);
  put_u64(out, keys::kCouplerCurrentCooldown, cp.current_cooldown_hours);
  put_u64(out, keys::kCouplerTrips, cp.trips);
  put_u64(out, keys::kCouplerRung, cp.rung);
  put_u64(out, keys::kCouplerCleanStreak, cp.clean_streak);
  put_u64(out, keys::kCouplerLastValid, cp.last_valid ? 1 : 0);
  put_list(out, keys::kCouplerLastActive, cp.last_active);
  put_key(out, keys::kCouplerLastPower);
  for (double v : cp.last_power_mw) {
    append_double_bits(out, v);
    out += ' ';
  }
  out += '\n';

  put_double(out, keys::kMonthlyBudget, r.monthly_budget);
  put_double(out, keys::kTotalCost, r.total_cost);
  put_double(out, keys::kTotalPremiumArrivals, r.total_premium_arrivals);
  put_double(out, keys::kTotalOrdinaryArrivals, r.total_ordinary_arrivals);
  put_double(out, keys::kTotalServedPremium, r.total_served_premium);
  put_double(out, keys::kTotalServedOrdinary, r.total_served_ordinary);
  put_double(out, keys::kMaxSolveMs, r.max_solve_ms);
  put_u64(out, keys::kDegradedHours, r.degraded_hours);
  put_u64(out, keys::kIncumbentHours, r.incumbent_hours);
  put_u64(out, keys::kHeuristicHours, r.heuristic_hours);
  put_u64(out, keys::kOutageHours, r.outage_hours);
  put_u64(out, keys::kStaleHours, r.stale_hours);
  put_u64(out, keys::kFeedRetryAttempts, r.feed_retry_attempts);
  put_u64(out, keys::kFeedRecoveredHours, r.feed_recovered_hours);
  put_u64(out, keys::kCrashRecoveries, r.crash_recoveries);
  put_u64(out, keys::kClosedLoopHours, r.closed_loop_hours);
  put_u64(out, keys::kCouplerFallbackHours, r.coupler_fallback_hours);
  put_u64(out, keys::kCouplerIterations, r.coupler_iterations);
  put_list(out, keys::kFailureTally, r.failure_tally);
  put_u64(out, keys::kDegradedChunks, r.degraded_chunks);
  put_u64(out, keys::kQuarantinedChunks, r.quarantined_chunks);
  put_u64(out, keys::kRegionDownChunks, r.region_down_chunks);
  put_list(out, keys::kChunkFailureTally, r.chunk_failure_tally);

  put_u64(out, keys::kHours, r.hours.size());
  out += hour_lines_;
  util::journal_text::append_checksum(out);
  return out;
}

void CheckpointWriter::save(const std::string& path,
                            const CheckpointState& state) {
  util::journal_text::write_atomic(path, encode(state));
}

void CheckpointWriter::save_rotated(const std::string& path,
                                    const CheckpointState& state,
                                    std::size_t keep_generations) {
  encode(state);
  util::Journal::rotate_generations(path, keep_generations);
  util::journal_text::write_atomic(path, text_);
}

void save_checkpoint(const std::string& path, const CheckpointState& state) {
  CheckpointWriter().save(path, state);
}

CheckpointState load_checkpoint(const std::string& path) {
  const util::Journal journal = util::Journal::load(
      path, keys::kCheckpointMagic, keys::kCheckpointVersion);

  CheckpointState state;
  state.config_digest = journal.get_u64(keys::kConfigDigest);
  state.strategy = static_cast<Strategy>(journal.get_u64(keys::kStrategy));
  state.next_hour = journal.get_size(keys::kNextHour);
  state.spent = journal.get_double_bits(keys::kSpent);
  state.crashes_fired = journal.get_size(keys::kCrashesFired);
  // Written since the rotated-generations format; absent in checkpoints
  // from before that, which simply had no storms/corruptions to count.
  state.storms_fired =
      journal.has(keys::kStormsFired) ? journal.get_size(keys::kStormsFired) : 0;
  state.corruptions_fired = journal.has(keys::kCorruptionsFired)
                                ? journal.get_size(keys::kCorruptionsFired)
                                : 0;
  for (std::size_t i = 0; i < state.feed.rng.size(); ++i)
    state.feed.rng[i] = journal.get_u64(keys::feed_rng(i));
  state.feed.recovered_until = journal.get_size(keys::kFeedRecoveredUntil);

  // Coupler trajectory: absent in pre-coupler checkpoints, which simply
  // had no coupler state to carry — a fresh (default) coupler is correct.
  if (journal.has(keys::kCouplerBreakerState)) {
    MarketCoupler::State& cp = state.coupler;
    cp.breaker_state = journal.get_u64(keys::kCouplerBreakerState);
    cp.consecutive_troubled = journal.get_size(keys::kCouplerConsecTroubled);
    cp.cooldown_remaining = journal.get_size(keys::kCouplerCooldown);
    cp.current_cooldown_hours =
        journal.get_size(keys::kCouplerCurrentCooldown);
    cp.trips = journal.get_size(keys::kCouplerTrips);
    cp.rung = journal.get_size(keys::kCouplerRung);
    cp.clean_streak = journal.get_size(keys::kCouplerCleanStreak);
    cp.last_valid = journal.get_u64(keys::kCouplerLastValid) != 0;
    Tokens active(journal.get(keys::kCouplerLastActive));
    for (std::uint64_t v = 0; parse_u64(active.next(), v);)
      cp.last_active.push_back(v != 0 ? 1 : 0);
    Tokens power(journal.get(keys::kCouplerLastPower));
    for (std::string_view t = power.next(); !t.empty(); t = power.next())
      cp.last_power_mw.push_back(take_d(t));
  }

  MonthlyResult& r = state.partial;
  r.strategy = state.strategy;
  r.monthly_budget = journal.get_double_bits(keys::kMonthlyBudget);
  r.total_cost = journal.get_double_bits(keys::kTotalCost);
  r.total_premium_arrivals = journal.get_double_bits(keys::kTotalPremiumArrivals);
  r.total_ordinary_arrivals =
      journal.get_double_bits(keys::kTotalOrdinaryArrivals);
  r.total_served_premium = journal.get_double_bits(keys::kTotalServedPremium);
  r.total_served_ordinary = journal.get_double_bits(keys::kTotalServedOrdinary);
  r.max_solve_ms = journal.get_double_bits(keys::kMaxSolveMs);
  r.degraded_hours = journal.get_size(keys::kDegradedHours);
  r.incumbent_hours = journal.get_size(keys::kIncumbentHours);
  r.heuristic_hours = journal.get_size(keys::kHeuristicHours);
  r.outage_hours = journal.get_size(keys::kOutageHours);
  r.stale_hours = journal.get_size(keys::kStaleHours);
  r.feed_retry_attempts = journal.get_size(keys::kFeedRetryAttempts);
  r.feed_recovered_hours = journal.get_size(keys::kFeedRecoveredHours);
  r.crash_recoveries = journal.get_size(keys::kCrashRecoveries);
  // Coupler aggregates: absent before the closed-loop format, zero then.
  r.closed_loop_hours = journal.has(keys::kClosedLoopHours)
                            ? journal.get_size(keys::kClosedLoopHours)
                            : 0;
  r.coupler_fallback_hours =
      journal.has(keys::kCouplerFallbackHours)
          ? journal.get_size(keys::kCouplerFallbackHours)
          : 0;
  r.coupler_iterations = journal.has(keys::kCouplerIterations)
                             ? journal.get_size(keys::kCouplerIterations)
                             : 0;
  // Shorter tallies are tolerated: a checkpoint written before a
  // FailureReason was added carries fewer entries.
  read_tally(journal.get(keys::kFailureTally), r.failure_tally);
  // Written since the fleet-controller format; absent means a pre-fleet
  // checkpoint whose month had no chunk solves to count.
  r.degraded_chunks = journal.has(keys::kDegradedChunks)
                          ? journal.get_size(keys::kDegradedChunks)
                          : 0;
  r.quarantined_chunks = journal.has(keys::kQuarantinedChunks)
                             ? journal.get_size(keys::kQuarantinedChunks)
                             : 0;
  r.region_down_chunks = journal.has(keys::kRegionDownChunks)
                             ? journal.get_size(keys::kRegionDownChunks)
                             : 0;
  if (journal.has(keys::kChunkFailureTally))
    read_tally(journal.get(keys::kChunkFailureTally), r.chunk_failure_tally);

  const std::size_t hours = journal.get_size(keys::kHours);
  if (hours != state.next_hour)
    throw std::runtime_error(
        "checkpoint: hour count does not match next_hour (inconsistent "
        "file)");
  r.hours.reserve(hours);
  for (std::size_t i = 0; i < hours; ++i)
    r.hours.push_back(decode_hour(journal.get(keys::hour(i))));
  return state;
}

void save_checkpoint_rotated(const std::string& path,
                             const CheckpointState& state,
                             std::size_t keep_generations) {
  CheckpointWriter().save_rotated(path, state, keep_generations);
}

bool any_checkpoint_generation_exists(const std::string& path,
                                      std::size_t keep_generations) noexcept {
  const std::size_t gens = keep_generations == 0 ? 1 : keep_generations;
  for (std::size_t g = 0; g < gens; ++g)
    if (checkpoint_exists(util::Journal::generation_path(path, g))) return true;
  return false;
}

std::size_t load_newest_generation(
    const std::string& path, std::size_t keep_generations,
    std::string_view what, std::vector<std::string>& skipped,
    const std::function<bool(const std::string& gen_path)>& try_load) {
  const std::size_t gens = keep_generations == 0 ? 1 : keep_generations;
  for (std::size_t g = 0; g < gens; ++g) {
    const std::string gen_path = util::Journal::generation_path(path, g);
    if (!checkpoint_exists(gen_path)) {
      skipped.push_back(gen_path + ": missing");
      continue;
    }
    try {
      if (try_load(gen_path)) return g;
      skipped.push_back(gen_path + ": config digest mismatch (" +
                        std::string(what) +
                        " from a different configuration)");
    } catch (const std::exception& e) {
      skipped.push_back(gen_path + ": " + e.what());
    }
  }
  std::string detail;
  for (const std::string& s : skipped) detail += "\n  " + s;
  throw std::runtime_error(std::string(what) +
                           ": no viable generation among the newest " +
                           std::to_string(gens) + detail);
}

CheckpointLoadReport load_checkpoint_fallback(const std::string& path,
                                              std::size_t keep_generations,
                                              std::uint64_t expected_digest) {
  CheckpointLoadReport report;
  report.generation = load_newest_generation(
      path, keep_generations, "checkpoint", report.skipped,
      [&](const std::string& gen_path) {
        CheckpointState state = load_checkpoint(gen_path);
        if (state.config_digest != expected_digest) return false;
        report.state = std::move(state);
        return true;
      });
  return report;
}

}  // namespace billcap::core
