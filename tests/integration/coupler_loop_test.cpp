// Closed-loop market coupler integration: the ISSUE-9 acceptance gates
// that need a whole simulated month rather than a unit.
//
//   - coupling off is format- and digest-neutral: a config that never
//     enables the coupler keeps the checkpoint digest it had before the
//     closed-loop machinery existed, so old resume files stay adoptable;
//   - the damped paper-gain loop is deterministic run-to-run, bitwise;
//   - a destabilized month (high gain, no damping) killed and resumed
//     every few hours reproduces the uninterrupted month bitwise — the
//     breaker clock, damping rung and oscillation tally all live in the
//     checkpoint, so recovery cannot fork the trajectory — while the
//     premium QoS guarantee survives the whole episode.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/checkpoint.hpp"
#include "core/simulator.hpp"
#include "util/journal.hpp"

namespace billcap::core {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Removes a one-generation checkpoint: the snapshot and its commit log.
void remove_checkpoint(const std::string& path) {
  std::remove(path.c_str());
  std::remove(util::JournalCommitter::log_path(path).c_str());
}

/// Bitwise equality over everything deterministic, including the coupler
/// trajectory. Wall-clock fields (solve_ms, max_solve_ms) and the
/// crash-recovery counter are excluded, as in crash_resume_test.
void expect_months_bitwise_equal(const MonthlyResult& a,
                                 const MonthlyResult& b) {
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.total_served_premium, b.total_served_premium);
  EXPECT_EQ(a.total_served_ordinary, b.total_served_ordinary);
  EXPECT_EQ(a.degraded_hours, b.degraded_hours);
  EXPECT_EQ(a.failure_tally, b.failure_tally);
  EXPECT_EQ(a.closed_loop_hours, b.closed_loop_hours);
  EXPECT_EQ(a.coupler_fallback_hours, b.coupler_fallback_hours);
  EXPECT_EQ(a.coupler_iterations, b.coupler_iterations);
  ASSERT_EQ(a.hours.size(), b.hours.size());
  for (std::size_t h = 0; h < a.hours.size(); ++h) {
    const HourRecord& p = a.hours[h];
    const HourRecord& q = b.hours[h];
    EXPECT_EQ(p.cost, q.cost) << "hour " << h;
    EXPECT_EQ(p.predicted_cost, q.predicted_cost) << "hour " << h;
    EXPECT_EQ(p.served_premium, q.served_premium) << "hour " << h;
    EXPECT_EQ(p.served_ordinary, q.served_ordinary) << "hour " << h;
    EXPECT_EQ(p.site_lambda, q.site_lambda) << "hour " << h;
    EXPECT_EQ(p.site_power_mw, q.site_power_mw) << "hour " << h;
    EXPECT_EQ(p.failure, q.failure) << "hour " << h;
    EXPECT_EQ(p.coupler_iterations, q.coupler_iterations) << "hour " << h;
    EXPECT_EQ(p.coupler_converged, q.coupler_converged) << "hour " << h;
    EXPECT_EQ(p.coupler_fallback, q.coupler_fallback) << "hour " << h;
    EXPECT_EQ(p.coupler_rung, q.coupler_rung) << "hour " << h;
  }
}

TEST(CouplerLoopTest, DisabledCouplerIsDigestNeutral) {
  // Turning coupler knobs while leaving the loop DISABLED must not move
  // the checkpoint digest: every open-loop month keeps the digest it had
  // before the closed-loop format existed, so pre-coupler resume files
  // remain adoptable. Enabling the loop (or changing a knob while
  // enabled) must separate digests like any other config change.
  SimulationConfig config;
  const std::uint64_t base = checkpoint_digest(config, Strategy::kCostCapping);

  SimulationConfig tuned = config;
  tuned.market_coupler.loop.feedback_gain = 4.0;
  tuned.market_coupler.damping = DampingMode::kOff;
  EXPECT_EQ(base, checkpoint_digest(tuned, Strategy::kCostCapping));

  SimulationConfig enabled = config;
  enabled.market_coupler.enabled = true;
  const std::uint64_t closed =
      checkpoint_digest(enabled, Strategy::kCostCapping);
  EXPECT_NE(base, closed);

  SimulationConfig retuned = enabled;
  retuned.market_coupler.loop.feedback_gain = 4.0;
  EXPECT_NE(closed, checkpoint_digest(retuned, Strategy::kCostCapping));
}

TEST(CouplerLoopTest, DampedClosedLoopMonthIsDeterministic) {
  SimulationConfig config;
  config.market_coupler.enabled = true;
  config.market_coupler.damping = DampingMode::kFull;

  const MonthlyResult first = Simulator(config).run(Strategy::kCostCapping);
  const MonthlyResult second = Simulator(config).run(Strategy::kCostCapping);
  expect_months_bitwise_equal(first, second);

  // The damped paper-gain loop closes every hour of the month.
  EXPECT_EQ(first.closed_loop_hours, first.hours.size());
  EXPECT_EQ(first.coupler_fallback_hours, 0u);
  EXPECT_EQ(first.failure_tally[static_cast<std::size_t>(
                FailureReason::kPriceOscillation)],
            0u);
  EXPECT_EQ(first.failure_tally[static_cast<std::size_t>(
                FailureReason::kCouplerDiverged)],
            0u);
  EXPECT_GE(first.premium_throughput_ratio(), 1.0 - 1e-9);
}

TEST(CouplerLoopTest, DestabilizedMonthKillResumeIsBitwise) {
  // High gain, no damping: the month oscillates, trips the divergence
  // breaker and spends stretches in open-loop fallback. A crash planned
  // every fourth hour — alternating before/after the checkpoint commit —
  // must still reproduce the uninterrupted month bitwise, because the
  // breaker clock and detector verdicts are part of the checkpoint.
  SimulationConfig config;
  config.market_coupler.enabled = true;
  config.market_coupler.loop.feedback_gain = 4.0;
  config.market_coupler.damping = DampingMode::kOff;

  const MonthlyResult want = Simulator(config).run(Strategy::kCostCapping);
  EXPECT_GT(want.failure_tally[static_cast<std::size_t>(
                FailureReason::kPriceOscillation)],
            0u)
      << "destabilizing config no longer oscillates; the resume test "
         "would not cover the breaker path";
  EXPECT_GT(want.coupler_fallback_hours, 0u);
  EXPECT_GE(want.premium_throughput_ratio(), 1.0 - 1e-9);

  for (std::size_t h = 0; h < want.hours.size(); h += 4)
    config.fault_plan.crashes.push_back({h, /*before_checkpoint=*/h % 8 == 0});
  const Simulator sim(config);
  const std::string path = temp_path("billcap_coupler_resume.j");
  remove_checkpoint(path);

  Simulator::ResumableOutcome outcome =
      sim.run_resumable(Strategy::kCostCapping, path, /*resume=*/false);
  std::size_t restarts = 0;
  while (outcome.crashed) {
    ++restarts;
    outcome = sim.run_resumable(Strategy::kCostCapping, path, /*resume=*/true);
  }
  remove_checkpoint(path);

  EXPECT_EQ(restarts, (want.hours.size() + 3) / 4);
  expect_months_bitwise_equal(want, outcome.result);
}

}  // namespace
}  // namespace billcap::core
