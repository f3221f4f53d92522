// ServeLoop integration: the serving daemon's tick loop must complete a
// short horizon in memory, survive injected kills with a bitwise-identical
// recovery through its durable checkpoint, stop gracefully, pin the ladder
// in standby, and publish a progress counter the supervisor's probe reads.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint_keys.hpp"
#include "core/simulator.hpp"
#include "core/supervisor.hpp"
#include "serve/serve_loop.hpp"
#include "util/fnv1a.hpp"
#include "util/journal.hpp"

namespace billcap::serve {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

core::SimulationConfig small_config() {
  core::SimulationConfig config;
  config.monthly_budget = 1.5e6;
  config.seed = 2012;
  return config;
}

ServeConfig short_serve_config() {
  ServeConfig config;
  config.ticks_per_hour = 4;
  config.horizon_hours = 3;  // 12 ticks: seconds, not minutes
  return config;
}

/// Bitwise equality of two doubles (not EXPECT_DOUBLE_EQ's 4-ULP slack):
/// the checkpoint contract is byte identity, nothing weaker.
void expect_same_bits(double a, double b, const char* what) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

void expect_reports_bitwise_equal(const ServeReport& a, const ServeReport& b) {
  EXPECT_EQ(a.ticks_committed, b.ticks_committed);
  expect_same_bits(a.total_cost, b.total_cost, "total_cost");
  expect_same_bits(a.total_premium_arrivals, b.total_premium_arrivals,
                   "total_premium_arrivals");
  expect_same_bits(a.total_ordinary_arrivals, b.total_ordinary_arrivals,
                   "total_ordinary_arrivals");
  expect_same_bits(a.total_served_premium, b.total_served_premium,
                   "total_served_premium");
  expect_same_bits(a.total_served_ordinary, b.total_served_ordinary,
                   "total_served_ordinary");
  expect_same_bits(a.dropped_premium, b.dropped_premium, "dropped_premium");
  expect_same_bits(a.dropped_ordinary, b.dropped_ordinary, "dropped_ordinary");
  expect_same_bits(a.final_premium_depth, b.final_premium_depth,
                   "final_premium_depth");
  expect_same_bits(a.final_ordinary_depth, b.final_ordinary_depth,
                   "final_ordinary_depth");
  EXPECT_EQ(a.feed_updates_seen, b.feed_updates_seen);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.degraded_replans, b.degraded_replans);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.shed_ticks, b.shed_ticks);
  EXPECT_EQ(a.health_transitions, b.health_transitions);
  EXPECT_EQ(a.final_health, b.final_health);
  ASSERT_EQ(a.health_history.size(), b.health_history.size());
  for (std::size_t i = 0; i < a.health_history.size(); ++i) {
    EXPECT_EQ(a.health_history[i].tick, b.health_history[i].tick);
    EXPECT_EQ(a.health_history[i].from, b.health_history[i].from);
    EXPECT_EQ(a.health_history[i].to, b.health_history[i].to);
  }
}

void remove_generations(const std::string& path, std::size_t gens) {
  for (std::size_t g = 0; g < gens; ++g)
    std::remove(util::Journal::generation_path(path, g).c_str());
}

TEST(ServeLoopTest, InMemoryRunCompletesTheHorizon) {
  const core::Simulator sim(small_config());
  const ServeConfig cfg = short_serve_config();
  const ServeLoop loop(sim, cfg);
  ASSERT_EQ(loop.total_ticks(), 12u);

  std::size_t on_tick_calls = 0;
  const ServeOutcome outcome =
      loop.run("", /*resume=*/false,
               [&](const TickRecord& rec) {
                 EXPECT_EQ(rec.tick, on_tick_calls);
                 ++on_tick_calls;
               });
  EXPECT_FALSE(outcome.crashed);
  EXPECT_FALSE(outcome.stopped);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  EXPECT_EQ(on_tick_calls, 12u);
  EXPECT_EQ(outcome.report.ticks_this_attempt.size(), 12u);
  // A calm month never violates the premium contract.
  EXPECT_TRUE(outcome.report.premium_qos_ok());
  // Backlog always respects the hard capacity ceiling.
  EXPECT_LE(outcome.report.max_premium_depth, loop.premium_queue_capacity());
  EXPECT_LE(outcome.report.max_ordinary_depth, loop.ordinary_queue_capacity());
}

TEST(ServeLoopTest, InMemoryRunRejectsResumeAndInjectedKills) {
  const core::Simulator sim(small_config());
  EXPECT_THROW(ServeLoop(sim, short_serve_config()).run("", /*resume=*/true),
               std::invalid_argument);
  ServeConfig cfg = short_serve_config();
  cfg.kill_at_ticks = {3};
  EXPECT_THROW(ServeLoop(sim, cfg).run("", /*resume=*/false),
               std::invalid_argument);
}

TEST(ServeLoopTest, KillAndResumeReproducesTheCleanRunBitwise) {
  const core::Simulator sim(small_config());
  const ServeConfig clean_cfg = short_serve_config();
  const ServeLoop clean_loop(sim, clean_cfg);
  const std::string clean_path = temp_path("billcap_serve_clean.j");
  std::remove(clean_path.c_str());
  const ServeOutcome want = clean_loop.run(clean_path, false);
  ASSERT_FALSE(want.crashed);
  std::remove(clean_path.c_str());

  // Same daemon, three deaths — including two at the same tick (the second
  // restart must die again at tick 6 before finally passing it).
  ServeConfig cfg = short_serve_config();
  cfg.kill_at_ticks = {2, 6, 6};
  const ServeLoop loop(sim, cfg);
  const std::string path = temp_path("billcap_serve_kills.j");
  std::remove(path.c_str());

  ServeOutcome outcome = loop.run(path, /*resume=*/false);
  std::size_t deaths = 0;
  while (outcome.crashed) {
    ++deaths;
    ASSERT_LE(deaths, 3u);
    outcome = loop.run(path, /*resume=*/true);
  }
  EXPECT_EQ(deaths, 3u);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  expect_reports_bitwise_equal(want.report, outcome.report);
  std::remove(path.c_str());
}

TEST(ServeLoopTest, GracefulStopLeavesAResumableCheckpoint) {
  const core::Simulator sim(small_config());
  const ServeConfig cfg = short_serve_config();
  const ServeLoop loop(sim, cfg);
  const std::string clean_path = temp_path("billcap_serve_stop_ref.j");
  std::remove(clean_path.c_str());
  const ServeOutcome want = loop.run(clean_path, false);
  std::remove(clean_path.c_str());

  const std::string path = temp_path("billcap_serve_stop.j");
  std::remove(path.c_str());
  ServeLoop::Controls controls;
  controls.max_ticks = 5;
  ServeOutcome outcome = loop.run(path, /*resume=*/false, {}, controls);
  EXPECT_TRUE(outcome.stopped);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.report.ticks_committed, 5u);

  // Resuming without the limit finishes the horizon bit-identically.
  outcome = loop.run(path, /*resume=*/true);
  EXPECT_FALSE(outcome.stopped);
  EXPECT_EQ(outcome.resumed_from_tick, 5u);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  expect_reports_bitwise_equal(want.report, outcome.report);
  std::remove(path.c_str());
}

TEST(ServeLoopTest, StandbyPinsPremiumOnlyAndBypassesKills) {
  const core::Simulator sim(small_config());
  ServeConfig cfg = short_serve_config();
  cfg.standby = true;
  cfg.kill_at_ticks = {1, 4};  // must NOT fire on a standby attempt
  const ServeLoop loop(sim, cfg);
  const std::string path = temp_path("billcap_serve_standby.j");
  std::remove(path.c_str());

  const ServeOutcome outcome = loop.run(path, /*resume=*/false);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  EXPECT_EQ(outcome.report.standby_ticks, 12u);
  for (const TickRecord& rec : outcome.report.ticks_this_attempt) {
    EXPECT_EQ(rec.admission, AdmissionLevel::kPremiumOnly);
    EXPECT_EQ(rec.health, ServeHealth::kStandby);
    EXPECT_FALSE(rec.replanned);  // no MILP on the standby rung
  }
  std::remove(path.c_str());
}

TEST(ServeLoopTest, StandbyResumesThePrimarysCheckpoint) {
  // The digest must not mix `standby` (or the kill plan): the escalated
  // standby attempt picks up exactly where the dying primary stopped.
  const core::Simulator sim(small_config());
  ServeConfig primary_cfg = short_serve_config();
  primary_cfg.kill_at_ticks = {7};
  const ServeLoop primary(sim, primary_cfg);
  const std::string path = temp_path("billcap_serve_handoff.j");
  std::remove(path.c_str());

  ServeOutcome outcome = primary.run(path, /*resume=*/false);
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash_tick, 7u);

  // Same config (kill_at_ticks IS digested; `standby` alone is not), so
  // the standby attempt loads the primary's checkpoint cleanly.
  ServeConfig standby_cfg = primary_cfg;
  standby_cfg.standby = true;
  const ServeLoop standby(sim, standby_cfg);
  ServeLoop::Controls controls;
  controls.max_ticks = 2;  // a bounded standby chunk, like the supervisor's
  outcome = standby.run(path, /*resume=*/true, {}, controls);
  EXPECT_TRUE(outcome.stopped);
  EXPECT_EQ(outcome.resumed_from_tick, 7u);
  EXPECT_EQ(outcome.report.ticks_committed, 9u);

  // Handing back to the primary: the kill at tick 7 was consumed by the
  // crash, the standby walked past it, and the primary finishes.
  outcome = primary.run(path, /*resume=*/true);
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.report.ticks_committed, 12u);
  std::remove(path.c_str());
}

TEST(ServeLoopTest, SupervisorProbeReadsServeCheckpointProgress) {
  const core::Simulator sim(small_config());
  const ServeLoop loop(sim, short_serve_config());
  const std::string path = temp_path("billcap_serve_probe.j");
  remove_generations(path, 2);

  // Stop after 5 committed ticks: generation 0 holds next_tick 5 and the
  // previous commit (next_tick 4) survives as generation 1.
  ServeLoop::Controls controls;
  controls.keep_generations = 2;
  controls.max_ticks = 5;
  const ServeOutcome outcome = loop.run(path, false, {}, controls);
  ASSERT_TRUE(outcome.stopped);

  // The probe reads next_tick from the serve journal — the supervisor's
  // restart policy only compares deltas, so any monotone counter works.
  EXPECT_EQ(core::probe_checkpoint_hour(path, 2), 5u);

  // A stomped newest generation: the probe falls back to the older one.
  {
    std::ofstream stomp(path, std::ios::binary | std::ios::trunc);
    stomp << "garbage";
  }
  EXPECT_EQ(core::probe_checkpoint_hour(path, 2), 4u);
  remove_generations(path, 2);
}

TEST(ServeLoopTest, SupervisorProbeReplaysTheServeCommitLog) {
  // One generation: the snapshot holds the attempt's first tick and the
  // log every tick after it; the probe reports the last committed tick.
  const core::Simulator sim(small_config());
  const ServeLoop loop(sim, short_serve_config());
  const std::string path = temp_path("billcap_serve_probe_log.j");
  std::remove(path.c_str());
  ServeLoop::Controls controls;
  controls.max_ticks = 5;
  const ServeOutcome outcome = loop.run(path, false, {}, controls);
  ASSERT_TRUE(outcome.stopped);
  EXPECT_EQ(outcome.durability.snapshots, 1u);
  EXPECT_EQ(outcome.durability.appends, 4u);
  EXPECT_EQ(core::probe_checkpoint_hour(path, 1), 5u);
  std::remove(path.c_str());
  std::remove(util::JournalCommitter::log_path(path).c_str());
}

std::uint64_t hash_of(const std::string& text) {
  util::Fnv1a fnv;
  fnv.mix_bytes(text);
  return fnv.hash;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(ServeLoopTest, ReplayedStateMatchesEveryCommittedTickThroughAKillStorm) {
  // The same kill storm run twice: with two generations every tick commits
  // a whole snapshot, with one most ticks append a frame to the log. After
  // every tick (observed from the next tick's hook and after each attempt)
  // the one-generation journal, loaded through its log, must re-serialize
  // to exactly the snapshot the two-generation run had on disk. The last
  // attempt runs long enough to restart its log once.
  const core::Simulator sim(small_config());
  ServeConfig cfg;
  cfg.ticks_per_hour = 4;
  cfg.horizon_hours = 200;
  cfg.kill_at_ticks = {0, 3, 3, 10, 60};
  const ServeLoop loop(sim, cfg);

  const auto run = [&](const std::string& path, std::size_t keep,
                       const auto& observe, util::DurabilityStats& last) {
    remove_generations(path, keep);
    std::remove(util::JournalCommitter::log_path(path).c_str());
    std::vector<std::uint64_t> seen;
    const auto on_tick = [&](const TickRecord&) {
      if (std::filesystem::exists(path)) seen.push_back(hash_of(observe(path)));
    };
    ServeLoop::Controls controls;
    controls.keep_generations = keep;
    ServeOutcome out;
    std::size_t attempts = 0;
    do {
      out = loop.run(path, attempts > 0, on_tick, controls);
      ++attempts;
      seen.push_back(hash_of(observe(path)));
    } while (out.crashed);
    EXPECT_EQ(attempts, cfg.kill_at_ticks.size() + 1);
    EXPECT_EQ(out.report.ticks_committed, loop.total_ticks());
    last = out.durability;
    remove_generations(path, keep);
    std::remove(util::JournalCommitter::log_path(path).c_str());
    return seen;
  };

  util::DurabilityStats rotated;
  const std::vector<std::uint64_t> want = run(
      temp_path("billcap_serve_replay_k2.j"), 2,
      [](const std::string& path) { return slurp(path); }, rotated);
  util::DurabilityStats logged;
  const std::vector<std::uint64_t> got = run(
      temp_path("billcap_serve_replay_k1.j"), 1,
      [](const std::string& path) {
        return util::Journal::load(path, core::keys::kServeCheckpointMagic,
                                   core::keys::kServeCheckpointVersion)
            .serialize();
      },
      logged);

  EXPECT_EQ(rotated.appends, 0u);
  EXPECT_EQ(logged.snapshots, 2u);  // the attempt's first tick, one restart
  EXPECT_EQ(logged.snapshots + logged.appends,
            loop.total_ticks() - cfg.kill_at_ticks.back());
  ASSERT_EQ(want.size(), got.size());
  EXPECT_GT(want.size(), loop.total_ticks());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(want[i], got[i]) << "observation " << i;
}

}  // namespace
}  // namespace billcap::serve
