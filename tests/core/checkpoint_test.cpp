#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint_keys.hpp"
#include "core/simulator.hpp"
#include "util/journal.hpp"

namespace billcap::core {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A synthetic mid-month state with every field off its default, including
/// awkward doubles, so a save/load round trip exercises the whole format.
CheckpointState sample_state() {
  CheckpointState st;
  st.config_digest = 0xdeadbeefcafef00dULL;
  st.strategy = Strategy::kCostCapping;
  st.next_hour = 2;
  st.spent = 123456.78912345;
  st.crashes_fired = 3;
  st.feed.rng = {1, 0xffffffffffffffffULL, 42, 7};
  st.feed.recovered_until = 29;

  MonthlyResult& r = st.partial;
  r.strategy = st.strategy;
  r.monthly_budget = 1.5e6;
  r.total_cost = st.spent;
  r.total_premium_arrivals = 1000.25;
  r.total_ordinary_arrivals = 9000.125;
  r.total_served_premium = 1000.25;
  r.total_served_ordinary = 8000.0625;
  r.max_solve_ms = 3.14159;
  r.degraded_hours = 1;
  r.incumbent_hours = 1;
  r.outage_hours = 1;
  r.stale_hours = 2;
  r.failure_tally[1] = 1;
  r.feed_retry_attempts = 9;
  r.feed_recovered_hours = 2;
  r.crash_recoveries = 3;
  for (std::size_t h = 0; h < st.next_hour; ++h) {
    HourRecord rec;
    rec.hour = h;
    rec.arrivals = 5000.5 + static_cast<double>(h);
    rec.premium_arrivals = 500.125;
    rec.ordinary_arrivals = rec.arrivals - rec.premium_arrivals;
    rec.served_premium = 500.125;
    rec.served_ordinary = 4000.0 / 3.0;  // non-terminating binary fraction
    rec.hourly_budget = 2083.333333333333;
    rec.cost = 1999.99;
    rec.predicted_cost = 1998.5;
    rec.mode = CappingOutcome::Mode::kCapped;
    rec.site_lambda = {1000.1, 2000.2, 3000.3};
    rec.site_power_mw = {10.5, 20.25, 30.125};
    rec.solve_ms = 2.5;
    rec.nodes = 17;
    rec.degraded = (h == 1);
    rec.failure = (h == 1) ? FailureReason::kInfeasible : FailureReason::kNone;
    rec.used_incumbent = (h == 1);
    rec.sites_down = h;
    rec.stale_prices = true;
    rec.feed_attempts = 4;
    rec.feed_recovered = (h == 0);
    r.hours.push_back(rec);
  }
  return st;
}

void expect_states_bitwise_equal(const CheckpointState& a,
                                 const CheckpointState& b) {
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.next_hour, b.next_hour);
  EXPECT_EQ(a.spent, b.spent);
  EXPECT_EQ(a.crashes_fired, b.crashes_fired);
  EXPECT_EQ(a.feed.rng, b.feed.rng);
  EXPECT_EQ(a.feed.recovered_until, b.feed.recovered_until);

  const MonthlyResult& x = a.partial;
  const MonthlyResult& y = b.partial;
  EXPECT_EQ(x.monthly_budget, y.monthly_budget);
  EXPECT_EQ(x.total_cost, y.total_cost);
  EXPECT_EQ(x.total_premium_arrivals, y.total_premium_arrivals);
  EXPECT_EQ(x.total_ordinary_arrivals, y.total_ordinary_arrivals);
  EXPECT_EQ(x.total_served_premium, y.total_served_premium);
  EXPECT_EQ(x.total_served_ordinary, y.total_served_ordinary);
  EXPECT_EQ(x.max_solve_ms, y.max_solve_ms);
  EXPECT_EQ(x.degraded_hours, y.degraded_hours);
  EXPECT_EQ(x.incumbent_hours, y.incumbent_hours);
  EXPECT_EQ(x.heuristic_hours, y.heuristic_hours);
  EXPECT_EQ(x.outage_hours, y.outage_hours);
  EXPECT_EQ(x.stale_hours, y.stale_hours);
  EXPECT_EQ(x.failure_tally, y.failure_tally);
  EXPECT_EQ(x.feed_retry_attempts, y.feed_retry_attempts);
  EXPECT_EQ(x.feed_recovered_hours, y.feed_recovered_hours);
  EXPECT_EQ(x.crash_recoveries, y.crash_recoveries);
  ASSERT_EQ(x.hours.size(), y.hours.size());
  for (std::size_t h = 0; h < x.hours.size(); ++h) {
    const HourRecord& p = x.hours[h];
    const HourRecord& q = y.hours[h];
    EXPECT_EQ(p.hour, q.hour);
    EXPECT_EQ(p.arrivals, q.arrivals);
    EXPECT_EQ(p.premium_arrivals, q.premium_arrivals);
    EXPECT_EQ(p.ordinary_arrivals, q.ordinary_arrivals);
    EXPECT_EQ(p.served_premium, q.served_premium);
    EXPECT_EQ(p.served_ordinary, q.served_ordinary);
    EXPECT_EQ(p.hourly_budget, q.hourly_budget);
    EXPECT_EQ(p.cost, q.cost);
    EXPECT_EQ(p.predicted_cost, q.predicted_cost);
    EXPECT_EQ(p.mode, q.mode);
    EXPECT_EQ(p.site_lambda, q.site_lambda);
    EXPECT_EQ(p.site_power_mw, q.site_power_mw);
    EXPECT_EQ(p.solve_ms, q.solve_ms);
    EXPECT_EQ(p.nodes, q.nodes);
    EXPECT_EQ(p.degraded, q.degraded);
    EXPECT_EQ(p.failure, q.failure);
    EXPECT_EQ(p.used_incumbent, q.used_incumbent);
    EXPECT_EQ(p.used_heuristic, q.used_heuristic);
    EXPECT_EQ(p.sites_down, q.sites_down);
    EXPECT_EQ(p.stale_prices, q.stale_prices);
    EXPECT_EQ(p.feed_attempts, q.feed_attempts);
    EXPECT_EQ(p.feed_recovered, q.feed_recovered);
    EXPECT_EQ(p.coupler_iterations, q.coupler_iterations);
    EXPECT_EQ(p.coupler_converged, q.coupler_converged);
    EXPECT_EQ(p.coupler_fallback, q.coupler_fallback);
    EXPECT_EQ(p.coupler_rung, q.coupler_rung);
  }

  EXPECT_EQ(x.closed_loop_hours, y.closed_loop_hours);
  EXPECT_EQ(x.coupler_fallback_hours, y.coupler_fallback_hours);
  EXPECT_EQ(x.coupler_iterations, y.coupler_iterations);
  EXPECT_EQ(a.coupler.breaker_state, b.coupler.breaker_state);
  EXPECT_EQ(a.coupler.consecutive_troubled, b.coupler.consecutive_troubled);
  EXPECT_EQ(a.coupler.cooldown_remaining, b.coupler.cooldown_remaining);
  EXPECT_EQ(a.coupler.current_cooldown_hours, b.coupler.current_cooldown_hours);
  EXPECT_EQ(a.coupler.trips, b.coupler.trips);
  EXPECT_EQ(a.coupler.rung, b.coupler.rung);
  EXPECT_EQ(a.coupler.clean_streak, b.coupler.clean_streak);
  EXPECT_EQ(a.coupler.last_valid, b.coupler.last_valid);
  EXPECT_EQ(a.coupler.last_power_mw, b.coupler.last_power_mw);
  EXPECT_EQ(a.coupler.last_active, b.coupler.last_active);
}

TEST(CheckpointTest, SaveLoadRoundTripIsBitwise) {
  const std::string path = temp_path("billcap_checkpoint_test.j");
  const CheckpointState st = sample_state();
  save_checkpoint(path, st);
  EXPECT_TRUE(checkpoint_exists(path));
  const CheckpointState back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  std::remove(path.c_str());
  EXPECT_FALSE(checkpoint_exists(path));
}

TEST(CheckpointTest, RepeatedSavesOverwriteAtomically) {
  const std::string path = temp_path("billcap_checkpoint_overwrite.j");
  CheckpointState st = sample_state();
  for (std::size_t extra = 0; extra < 3; ++extra) {
    save_checkpoint(path, st);
    HourRecord rec;
    rec.hour = st.next_hour++;
    rec.cost = 1000.0 + static_cast<double>(extra);
    st.partial.hours.push_back(rec);
    st.spent += rec.cost;
  }
  save_checkpoint(path, st);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const CheckpointState back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsTruncatedAndCorruptedFiles) {
  const std::string path = temp_path("billcap_checkpoint_damage.j");
  save_checkpoint(path, sample_state());
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }

  // Truncation at any prefix length must be detected, never half-loaded.
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, static_cast<std::size_t>(
                              static_cast<double>(text.size()) * frac));
    out.close();
    EXPECT_THROW(load_checkpoint(path), std::runtime_error)
        << "truncated at " << frac;
  }

  // Single-byte corruption in the payload must be detected.
  {
    std::string corrupted = text;
    const std::size_t pos = corrupted.find("next_hour=");
    ASSERT_NE(pos, std::string::npos);
    corrupted[pos + 10] = corrupted[pos + 10] == '9' ? '8' : '9';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupted;
    out.close();
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  }

  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);  // missing file
}

TEST(CheckpointTest, DigestSeparatesConfigsAndStrategies) {
  SimulationConfig config;
  const std::uint64_t base =
      checkpoint_digest(config, Strategy::kCostCapping);

  EXPECT_EQ(base, checkpoint_digest(config, Strategy::kCostCapping))
      << "digest must be deterministic";
  EXPECT_NE(base, checkpoint_digest(config, Strategy::kMinOnlyAvg));

  SimulationConfig other = config;
  other.seed ^= 1;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.monthly_budget += 1.0;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.fault_rates.stale_rate = 0.01;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.fault_plan.crashes.push_back({10, false});
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.market_feed.retry_success_prob = 0.5;
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));
}

/// Appends one committed hour to `st`, mimicking the simulator's per-hour
/// commit, so successive rotated saves hold distinguishable states.
void commit_one_hour(CheckpointState& st) {
  HourRecord rec;
  rec.hour = st.next_hour++;
  rec.cost = 100.0 + static_cast<double>(rec.hour);
  st.spent += rec.cost;
  st.partial.hours.push_back(rec);
}

void remove_generations(const std::string& path, std::size_t gens) {
  for (std::size_t g = 0; g < gens; ++g)
    std::remove(util::Journal::generation_path(path, g).c_str());
}

TEST(CheckpointTest, RotatedSaveKeepsExactlyKGenerations) {
  const std::string path = temp_path("billcap_checkpoint_rotate.j");
  remove_generations(path, 6);
  CheckpointState st = sample_state();
  for (int saves = 0; saves < 5; ++saves) {
    save_checkpoint_rotated(path, st, 3);
    commit_one_hour(st);
  }
  // Five saves through a K=3 chain: generations 0..2 hold the three
  // newest states, nothing older survives.
  EXPECT_TRUE(any_checkpoint_generation_exists(path, 3));
  const std::size_t newest = st.next_hour - 1;  // last saved next_hour
  for (std::size_t g = 0; g < 3; ++g) {
    const CheckpointState back =
        load_checkpoint(util::Journal::generation_path(path, g));
    EXPECT_EQ(back.next_hour, newest - g) << "generation " << g;
  }
  EXPECT_FALSE(
      std::filesystem::exists(util::Journal::generation_path(path, 3)));
  remove_generations(path, 6);
}

TEST(CheckpointTest, FallbackSkipsCorruptedNewestGeneration) {
  const std::string path = temp_path("billcap_checkpoint_fallback.j");
  remove_generations(path, 3);
  CheckpointState st = sample_state();
  save_checkpoint_rotated(path, st, 3);
  commit_one_hour(st);
  save_checkpoint_rotated(path, st, 3);

  // Pristine chain: the newest generation wins, nothing is skipped.
  CheckpointLoadReport report =
      load_checkpoint_fallback(path, 3, st.config_digest);
  EXPECT_EQ(report.generation, 0u);
  EXPECT_TRUE(report.skipped.empty());
  expect_states_bitwise_equal(st, report.state);

  // Bit rot in the newest file: the scan falls back one generation and
  // reports what it stepped over.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "<<bit-rot>>";
  }
  report = load_checkpoint_fallback(path, 3, st.config_digest);
  EXPECT_EQ(report.generation, 1u);
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_NE(report.skipped[0].find(path), std::string::npos);
  EXPECT_EQ(report.state.next_hour, st.next_hour - 1);
  remove_generations(path, 3);
}

TEST(CheckpointTest, FallbackSkipsDigestMismatchedGeneration) {
  const std::string path = temp_path("billcap_checkpoint_digestfb.j");
  remove_generations(path, 2);
  CheckpointState st = sample_state();
  save_checkpoint_rotated(path, st, 2);
  CheckpointState foreign = st;
  commit_one_hour(foreign);
  foreign.config_digest ^= 1;  // someone else's month landed on top
  save_checkpoint_rotated(path, foreign, 2);

  const CheckpointLoadReport report =
      load_checkpoint_fallback(path, 2, st.config_digest);
  EXPECT_EQ(report.generation, 1u);
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_NE(report.skipped[0].find("digest"), std::string::npos);
  expect_states_bitwise_equal(st, report.state);
  remove_generations(path, 2);
}

TEST(CheckpointTest, FallbackThrowsWhenNoGenerationIsViable) {
  const std::string path = temp_path("billcap_checkpoint_allbad.j");
  remove_generations(path, 3);
  EXPECT_FALSE(any_checkpoint_generation_exists(path, 3));
  EXPECT_THROW(load_checkpoint_fallback(path, 3, 0), std::runtime_error);

  // Present but all corrupted is just as dead — and the error must name
  // every generation it tried.
  const CheckpointState st = sample_state();
  save_checkpoint_rotated(path, st, 2);
  save_checkpoint_rotated(path, st, 2);
  for (std::size_t g = 0; g < 2; ++g) {
    std::ofstream out(util::Journal::generation_path(path, g),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  try {
    load_checkpoint_fallback(path, 2, st.config_digest);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  remove_generations(path, 3);
}

TEST(CheckpointTest, FaultCursorsSurviveTheRoundTrip) {
  const std::string path = temp_path("billcap_checkpoint_cursors.j");
  CheckpointState st = sample_state();
  st.storms_fired = 4;
  st.corruptions_fired = 2;
  save_checkpoint(path, st);
  const CheckpointState back = load_checkpoint(path);
  EXPECT_EQ(back.storms_fired, 4u);
  EXPECT_EQ(back.corruptions_fired, 2u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, DigestSeparatesStormAndCorruptionPlans) {
  SimulationConfig config;
  const std::uint64_t base = checkpoint_digest(config, Strategy::kCostCapping);

  SimulationConfig other = config;
  other.fault_plan.exit_storms.push_back({5, 3});
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  other = config;
  other.fault_plan.checkpoint_corruptions.push_back({9});
  EXPECT_NE(base, checkpoint_digest(other, Strategy::kCostCapping));

  // Standby mode is deliberately digest-neutral: the degraded standby
  // must be able to adopt the primary's checkpoint and hand it back.
  other = config;
  other.standby = true;
  EXPECT_EQ(base, checkpoint_digest(other, Strategy::kCostCapping));
}

/// sample_state() with every coupler-era field off its default: a month
/// that iterated, oscillated once, tripped the breaker and is mid-cooldown.
CheckpointState coupler_sample_state() {
  CheckpointState st = sample_state();
  st.coupler.breaker_state = 1;
  st.coupler.consecutive_troubled = 2;
  st.coupler.cooldown_remaining = 5;
  st.coupler.current_cooldown_hours = 8;
  st.coupler.trips = 3;
  st.coupler.rung = 2;
  st.coupler.clean_streak = 1;
  st.coupler.last_valid = true;
  st.coupler.last_power_mw = {12.5, 0.0, 30.0625};
  st.coupler.last_active = {1, 0, 1};
  st.partial.closed_loop_hours = 1;
  st.partial.coupler_fallback_hours = 1;
  st.partial.coupler_iterations = 11;
  for (std::size_t h = 0; h < st.partial.hours.size(); ++h) {
    HourRecord& rec = st.partial.hours[h];
    rec.coupler_iterations = 3 + h;
    rec.coupler_converged = (h == 0);
    rec.coupler_fallback = (h == 1);
    rec.coupler_rung = h;
    if (h == 1) rec.failure = FailureReason::kPriceOscillation;
  }
  return st;
}

TEST(CheckpointTest, PreCouplerJournalLoadsWithFreshCouplerState) {
  // Regression gate for the ISSUE-9 format extension: a journal written
  // BEFORE the closed-loop coupler existed — no coupler_* keys, hour
  // records ending at the v1 field set — must load cleanly, with the
  // coupler state reading as a fresh (default) coupler. The legacy file
  // is rebuilt from the v1 key registry, which is byte-for-byte what the
  // pre-coupler writer produced.
  const std::string modern_path = temp_path("billcap_checkpoint_modern.j");
  const std::string legacy_path = temp_path("billcap_checkpoint_legacy.j");
  const CheckpointState st = sample_state();  // coupler fields at defaults
  save_checkpoint(modern_path, st);

  const util::Journal modern = util::Journal::load(
      modern_path, keys::kCheckpointMagic, keys::kCheckpointVersion);
  util::Journal legacy(keys::kCheckpointMagic, keys::kCheckpointVersion);
  const char* v1_keys[] = {
      keys::kConfigDigest,        keys::kStrategy,
      keys::kNextHour,            keys::kSpent,
      keys::kCrashesFired,        keys::kStormsFired,
      keys::kCorruptionsFired,    keys::kFeedRecoveredUntil,
      keys::kMonthlyBudget,       keys::kTotalCost,
      keys::kTotalPremiumArrivals, keys::kTotalOrdinaryArrivals,
      keys::kTotalServedPremium,  keys::kTotalServedOrdinary,
      keys::kMaxSolveMs,          keys::kDegradedHours,
      keys::kIncumbentHours,      keys::kHeuristicHours,
      keys::kOutageHours,         keys::kStaleHours,
      keys::kFeedRetryAttempts,   keys::kFeedRecoveredHours,
      keys::kCrashRecoveries,     keys::kFailureTally,
      keys::kDegradedChunks,      keys::kQuarantinedChunks,
      keys::kRegionDownChunks,    keys::kChunkFailureTally,
      keys::kHours,
  };
  for (const char* key : v1_keys) legacy.set(key, modern.get(key));
  for (std::size_t i = 0; i < 4; ++i)
    legacy.set(keys::feed_rng(i), modern.get(keys::feed_rng(i)));
  for (std::size_t h = 0; h < st.partial.hours.size(); ++h) {
    // A v1 hour record is the modern blob minus the appended coupler tail
    // (four zero tokens for a default record).
    std::string blob = modern.get(keys::hour(h));
    ASSERT_TRUE(blob.size() >= 8 && blob.substr(blob.size() - 8) == "0 0 0 0 ")
        << "hour " << h << " blob does not end in the default coupler tail";
    legacy.set(keys::hour(h), blob.substr(0, blob.size() - 8));
  }
  legacy.save_atomic(legacy_path);

  const CheckpointState back = load_checkpoint(legacy_path);
  expect_states_bitwise_equal(st, back);
  EXPECT_EQ(back.coupler.breaker_state, 0u);
  EXPECT_EQ(back.partial.closed_loop_hours, 0u);
  EXPECT_TRUE(back.coupler.last_power_mw.empty());

  std::remove(modern_path.c_str());
  std::remove(legacy_path.c_str());
}

TEST(CheckpointTest, CouplerEraJournalRoundTripsBitwise) {
  // The other direction of the compat contract: a checkpoint carrying a
  // live coupler trajectory (breaker mid-cooldown, per-hour iteration
  // records, an oscillation failure) round-trips with every field intact,
  // and re-saving the loaded state reproduces the file byte-for-byte.
  const std::string path = temp_path("billcap_checkpoint_coupler.j");
  const std::string resaved = temp_path("billcap_checkpoint_coupler2.j");
  const CheckpointState st = coupler_sample_state();
  save_checkpoint(path, st);
  const CheckpointState back = load_checkpoint(path);
  expect_states_bitwise_equal(st, back);
  EXPECT_EQ(back.partial.hours[1].failure, FailureReason::kPriceOscillation);

  save_checkpoint(resaved, back);
  std::ifstream a(path, std::ios::binary), b(resaved, std::ios::binary);
  const std::string text_a(std::istreambuf_iterator<char>(a),
                           std::istreambuf_iterator<char>{});
  const std::string text_b(std::istreambuf_iterator<char>(b),
                           std::istreambuf_iterator<char>{});
  EXPECT_EQ(text_a, text_b) << "re-saved coupler-era journal differs";
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(CheckpointTest, HourCountInconsistencyIsRejected) {
  const std::string path = temp_path("billcap_checkpoint_inconsistent.j");
  CheckpointState st = sample_state();
  st.next_hour = st.partial.hours.size() + 5;  // claims more than it holds
  EXPECT_THROW(
      {
        save_checkpoint(path, st);
        load_checkpoint(path);
      },
      std::runtime_error);
  std::remove(path.c_str());
}

// ---- CheckpointWriter byte identity ---------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string golden_path(const std::string& name) {
  return std::string(BILLCAP_TEST_DATA_DIR) + "/" + name;
}

TEST(CheckpointWriterTest, ReproducesGoldenCouplerSampleJournal) {
  // tests/data/checkpoint_coupler_sample.j was written by the whole-journal
  // Journal::set_* writer that CheckpointWriter replaced (commit 29260e2),
  // from this same coupler_sample_state().
  const std::string golden = slurp(golden_path("checkpoint_coupler_sample.j"));
  ASSERT_FALSE(golden.empty());
  const CheckpointState st = coupler_sample_state();
  EXPECT_EQ(CheckpointWriter().encode(st), golden);

  const std::string path = temp_path("billcap_checkpoint_golden_sample.j");
  save_checkpoint(path, st);
  EXPECT_EQ(slurp(path), golden);
  std::remove(path.c_str());
}

TEST(CheckpointWriterTest, ReproducesGoldenMonthJournalOneShotAndIncrementally) {
  // tests/data/checkpoint_month48.j is the checkpoint the replaced writer
  // (commit 29260e2) left after run_resumable committed 48 hours of a
  // seed-2012 $1.5M month with site outages {1, 6h, 5h} and {0, 30h, 3h},
  // stale feed intervals {12h, 6h} and {40h, 4h} and a retrying feed
  // (success probability 0.1), stopped by ResumeControls::max_hours = 48.
  const std::string path = golden_path("checkpoint_month48.j");
  const std::string golden = slurp(path);
  const CheckpointState st = load_checkpoint(path);
  ASSERT_EQ(st.partial.hours.size(), 48u);
  EXPECT_GT(st.partial.outage_hours, 0u);
  EXPECT_GT(st.partial.stale_hours, 0u);
  EXPECT_EQ(CheckpointWriter().encode(st), golden);

  // The same month committed hour by hour through one writer: every
  // prefix is what a fresh writer encodes, and the last is the golden.
  CheckpointWriter writer;
  CheckpointState prefix = st;
  for (std::size_t h = 0; h <= st.partial.hours.size(); ++h) {
    prefix.partial.hours.assign(st.partial.hours.begin(),
                                st.partial.hours.begin() +
                                    static_cast<std::ptrdiff_t>(h));
    prefix.next_hour = h;
    ASSERT_EQ(writer.encode(prefix), CheckpointWriter().encode(prefix))
        << "prefix of " << h << " hours";
  }
  EXPECT_EQ(writer.encode(st), golden);
}

TEST(CheckpointWriterTest, CacheIsDiscardedWhenHoursShrinkOrDiffer) {
  CheckpointWriter writer;
  CheckpointState st = coupler_sample_state();
  writer.encode(st);

  // Same hour count, different last record (another month's vector).
  CheckpointState other = st;
  other.partial.hours.back().cost += 1.0;
  EXPECT_EQ(writer.encode(other), CheckpointWriter().encode(other));

  // Fewer hours than cached.
  CheckpointState shorter = st;
  shorter.partial.hours.pop_back();
  shorter.next_hour = shorter.partial.hours.size();
  EXPECT_EQ(writer.encode(shorter), CheckpointWriter().encode(shorter));

  // No hours at all, then growth again from a cold cache.
  CheckpointState empty = st;
  empty.partial.hours.clear();
  empty.next_hour = 0;
  EXPECT_EQ(writer.encode(empty), CheckpointWriter().encode(empty));
  EXPECT_EQ(writer.encode(st), CheckpointWriter().encode(st));
}

TEST(CheckpointWriterTest, EveryCommitMatchesOneShotThroughCrashesAndFallback) {
  // A full month under run_resumable with a controller crash every 7 hours
  // (alternating after / before the hour's commit) and one corrupted
  // commit, resumed in-process until it completes. After every commit the
  // newest viable generation must be (a) byte-identical to a one-shot
  // save_checkpoint of its own load_checkpoint, and (b) carry exactly the
  // hour records the month produced — including the commits of writers
  // whose cache was seeded by a resume or a generation fallback.
  constexpr std::size_t kKeep = 2;
  constexpr std::size_t kCorruptHour = 100;  // not a crash hour
  SimulationConfig config;
  config.monthly_budget = 1.5e6;
  config.seed = 2012;
  config.fault_rates.outage_rate = 0.003;
  config.fault_rates.stale_rate = 0.02;
  for (std::size_t h = 7, i = 0; h < 720; h += 7, ++i)
    config.fault_plan.crashes.push_back({h, i % 2 == 1});
  config.fault_plan.checkpoint_corruptions.push_back({kCorruptHour});
  const Simulator sim(config);
  const std::uint64_t digest =
      checkpoint_digest(config, Strategy::kCostCapping);

  const std::string path = temp_path("billcap_checkpoint_writer_prop.j");
  const std::string side = temp_path("billcap_checkpoint_writer_prop_side.j");
  for (std::size_t g = 0; g < kKeep; ++g)
    std::remove(util::Journal::generation_path(path, g).c_str());

  std::vector<HourRecord> produced;  // the month's records, by hour
  std::size_t checks = 0;
  std::size_t fallback_checks = 0;
  const auto check_commit = [&] {
    const CheckpointLoadReport report =
        load_checkpoint_fallback(path, kKeep, digest);
    if (report.generation != 0) ++fallback_checks;
    const std::string file = slurp(
        util::Journal::generation_path(path, report.generation));
    save_checkpoint(side, report.state);
    ASSERT_EQ(slurp(side), file) << "commit at hour " << report.state.next_hour;

    CheckpointState truth = report.state;
    ASSERT_LE(truth.partial.hours.size(), produced.size());
    truth.partial.hours.assign(
        produced.begin(),
        produced.begin() +
            static_cast<std::ptrdiff_t>(truth.partial.hours.size()));
    ASSERT_EQ(CheckpointWriter().encode(truth), file)
        << "hour records differ at hour " << report.state.next_hour;
    ++checks;
  };
  const auto on_hour = [&](const HourRecord& rec) {
    if (rec.hour > 0) check_commit();  // the previous hour's commit
    if (produced.size() <= rec.hour) produced.resize(rec.hour + 1);
    produced[rec.hour] = rec;
  };

  Simulator::ResumeControls controls;
  controls.keep_generations = kKeep;
  Simulator::ResumableOutcome out;
  std::size_t attempts = 0;
  std::size_t resumed_fallbacks = 0;
  do {
    out = sim.run_resumable(Strategy::kCostCapping, path, attempts > 0,
                            on_hour, controls);
    if (out.resumed_generation != 0) ++resumed_fallbacks;
    ++attempts;
    check_commit();
    if (HasFatalFailure()) break;
  } while (out.crashed);

  EXPECT_FALSE(out.crashed);
  EXPECT_EQ(out.result.hours.size(), 720u);
  EXPECT_EQ(attempts, config.fault_plan.crashes.size() + 2);
  EXPECT_EQ(resumed_fallbacks, 1u);
  EXPECT_GE(fallback_checks, 1u);
  EXPECT_GT(checks, 720u);
  for (std::size_t g = 0; g < kKeep; ++g)
    std::remove(util::Journal::generation_path(path, g).c_str());
  std::remove(side.c_str());
}

}  // namespace
}  // namespace billcap::core
