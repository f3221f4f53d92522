// Process-level supervision: `billcap supervise` forks the real CLI binary
// (path injected via BILLCAP_CLI_PATH), the injected faults SIGKILL the
// child at scripted hours, and the watchdog restarts it from the rotated
// checkpoint until the month completes. The completed month must be
// bit-identical to an uninterrupted run of the same seed — crash recovery
// may cost wall-clock time but never a different answer.
//
// These tests spawn real processes and each child pays the simulator's
// construction cost, so the crash scripts are kept short; the
// kill-at-EVERY-hour storm is covered in-process by crash_resume_test.

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/supervisor.hpp"
#include "util/journal.hpp"

namespace billcap::core {
namespace {

// Suffixed with the pid: ctest runs each test in its own process, with
// several in flight at once, and two tests writing one fixed path (the
// shared reference checkpoint especially) corrupt each other's files.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

std::string cli_path() { return BILLCAP_CLI_PATH; }

/// Runs the CLI with the given args and returns its plain exit code
/// (gtest-fails if the process was signalled instead of exiting).
int run_cli(std::vector<std::string> args) {
  const int status = run_child({cli_path(), std::move(args)});
  EXPECT_TRUE(WIFEXITED(status)) << "CLI killed by signal";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Removes every file a checkpoint at `path` can leave behind: `gens`
/// rotated generations plus the one-generation commit log.
void remove_generations(const std::string& path, std::size_t gens) {
  for (std::size_t g = 0; g < gens; ++g)
    std::remove(util::Journal::generation_path(path, g).c_str());
  std::remove(util::JournalCommitter::log_path(path).c_str());
}

/// The uninterrupted reference month, produced once by the real binary
/// with the same default flags the supervised children receive.
const CheckpointState& reference_state() {
  static const CheckpointState state = [] {
    const std::string path = temp_path("billcap_supervise_ref.j");
    remove_generations(path, 1);
    EXPECT_EQ(run_cli({"simulate", "--checkpoint", path}), kExitSuccess);
    CheckpointState st = load_checkpoint(path);
    remove_generations(path, 1);
    return st;
  }();
  return state;
}

/// Bitwise equality of two monthly results, except wall-clock measurements
/// (solve_ms, max_solve_ms) and the crash-recovery counter (which differs
/// by design between an interrupted and an uninterrupted run).
void expect_results_bitwise_equal(const MonthlyResult& a,
                                  const MonthlyResult& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.monthly_budget, b.monthly_budget);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.total_premium_arrivals, b.total_premium_arrivals);
  EXPECT_EQ(a.total_ordinary_arrivals, b.total_ordinary_arrivals);
  EXPECT_EQ(a.total_served_premium, b.total_served_premium);
  EXPECT_EQ(a.total_served_ordinary, b.total_served_ordinary);
  EXPECT_EQ(a.degraded_hours, b.degraded_hours);
  EXPECT_EQ(a.incumbent_hours, b.incumbent_hours);
  EXPECT_EQ(a.heuristic_hours, b.heuristic_hours);
  EXPECT_EQ(a.outage_hours, b.outage_hours);
  EXPECT_EQ(a.stale_hours, b.stale_hours);
  EXPECT_EQ(a.failure_tally, b.failure_tally);
  EXPECT_EQ(a.feed_retry_attempts, b.feed_retry_attempts);
  EXPECT_EQ(a.feed_recovered_hours, b.feed_recovered_hours);
  ASSERT_EQ(a.hours.size(), b.hours.size());
  for (std::size_t h = 0; h < a.hours.size(); ++h) {
    const HourRecord& p = a.hours[h];
    const HourRecord& q = b.hours[h];
    EXPECT_EQ(p.hour, q.hour) << "hour " << h;
    EXPECT_EQ(p.arrivals, q.arrivals) << "hour " << h;
    EXPECT_EQ(p.served_premium, q.served_premium) << "hour " << h;
    EXPECT_EQ(p.served_ordinary, q.served_ordinary) << "hour " << h;
    EXPECT_EQ(p.hourly_budget, q.hourly_budget) << "hour " << h;
    EXPECT_EQ(p.cost, q.cost) << "hour " << h;
    EXPECT_EQ(p.predicted_cost, q.predicted_cost) << "hour " << h;
    EXPECT_EQ(p.mode, q.mode) << "hour " << h;
    EXPECT_EQ(p.site_lambda, q.site_lambda) << "hour " << h;
    EXPECT_EQ(p.site_power_mw, q.site_power_mw) << "hour " << h;
    EXPECT_EQ(p.degraded, q.degraded) << "hour " << h;
    EXPECT_EQ(p.failure, q.failure) << "hour " << h;
    EXPECT_EQ(p.sites_down, q.sites_down) << "hour " << h;
    EXPECT_EQ(p.stale_prices, q.stale_prices) << "hour " << h;
  }
}

TEST(SuperviseTest, KillStormCompletesBitIdenticalToUninterruptedRun) {
  const std::string path = temp_path("billcap_supervise_storm.j");
  remove_generations(path, 3);

  // The child SIGKILLs itself (via --die-on-crash, forced by supervise)
  // at hours spread across the month, including the first and last hour;
  // the watchdog must restart it through every death.
  const int code = run_cli({"supervise", "--checkpoint", path,
                            "--crash-at", "0,3,300,650,719",
                            "--backoff-ms", "1", "--backoff-max-ms", "5"});
  EXPECT_EQ(code, kExitSuccess);

  const CheckpointState final_state = load_checkpoint(path);
  EXPECT_EQ(final_state.next_hour, reference_state().next_hour);
  EXPECT_EQ(final_state.crashes_fired, 5u);
  EXPECT_EQ(final_state.partial.crash_recoveries, 5u);
  expect_results_bitwise_equal(reference_state().partial,
                               final_state.partial);
  remove_generations(path, 3);
}

TEST(SuperviseTest, CorruptedNewestGenerationIsFallenBackOver) {
  const std::string path = temp_path("billcap_supervise_corrupt.j");
  remove_generations(path, 3);

  // At hour 10 the child stomps its freshly written generation 0 and
  // dies. The restarted child must fall back to generation 1 (the
  // pre-corruption state carrying the advanced fault cursor), replay
  // exactly one hour, and still finish the month bit-identically.
  const int code = run_cli({"supervise", "--checkpoint", path,
                            "--corrupt-checkpoint-at", "10",
                            "--keep-generations", "3", "--backoff-ms", "1"});
  EXPECT_EQ(code, kExitSuccess);

  const CheckpointState final_state = load_checkpoint(path);
  EXPECT_EQ(final_state.next_hour, reference_state().next_hour);
  EXPECT_EQ(final_state.corruptions_fired, 1u);
  expect_results_bitwise_equal(reference_state().partial,
                               final_state.partial);
  remove_generations(path, 3);
}

TEST(SuperviseTest, ExitStormEscalatesToStandbyAndStillCompletes) {
  const std::string path = temp_path("billcap_supervise_escalate.j");
  remove_generations(path, 3);

  // Three no-progress deaths in a row at hour 5 trip the escalation
  // threshold of 2; the standby child commits a 2-hour premium-only chunk
  // past the poisoned hour, after which the primary finishes the month.
  const int code = run_cli({"supervise", "--checkpoint", path,
                            "--exit-storm", "5:3", "--escalate-after", "2",
                            "--standby-hours", "2", "--backoff-ms", "1"});
  EXPECT_EQ(code, kExitSuccess);

  const CheckpointState final_state = load_checkpoint(path);
  EXPECT_EQ(final_state.next_hour, reference_state().next_hour);
  EXPECT_GE(final_state.storms_fired, 3u);
  // The standby chunk decided hours 5..6 with the greedy premium-only
  // fallback, so exactly those hours differ from the reference month.
  std::size_t heuristic_hours = 0;
  for (const HourRecord& h : final_state.partial.hours)
    if (h.used_heuristic) ++heuristic_hours;
  EXPECT_EQ(heuristic_hours, 2u);
  EXPECT_TRUE(final_state.partial.hours.at(5).used_heuristic);
  EXPECT_TRUE(final_state.partial.hours.at(6).used_heuristic);
  remove_generations(path, 3);
}

TEST(SuperviseTest, RestartBudgetExhaustionExitsGaveUp) {
  const std::string path = temp_path("billcap_supervise_gaveup.j");
  remove_generations(path, 3);

  // An endless storm at hour 0 with a tiny budget and no escalation: the
  // supervisor must stop hammering the machine and exit kExitGaveUp, with
  // a consistent checkpoint left behind for a later manual resume.
  const int code = run_cli({"supervise", "--checkpoint", path,
                            "--exit-storm", "0:99", "--restart-budget", "2",
                            "--escalate-after", "1000", "--backoff-ms", "1",
                            "--backoff-max-ms", "5"});
  EXPECT_EQ(code, kExitGaveUp);
  EXPECT_EQ(load_checkpoint(path).next_hour, 0u);
  remove_generations(path, 3);
}

TEST(SuperviseTest, UsageErrorsAreNotRetried) {
  // A config the child rejects (the bad flag is forwarded verbatim) must
  // surface as kExitGaveUp after exactly one attempt, not loop through
  // the restart budget.
  const std::string path = temp_path("billcap_supervise_usage.j");
  remove_generations(path, 3);
  const int code = run_cli({"supervise", "--checkpoint", path,
                            "--crash-at", "nonsense"});
  EXPECT_EQ(code, kExitGaveUp);
  // A supervise invocation without a checkpoint is its own usage error.
  EXPECT_EQ(run_cli({"supervise"}), kExitUsage);
  remove_generations(path, 3);
}

TEST(SuperviseTest, UnknownFlagsAreUsageErrorsBeforeAnyWork) {
  // A misspelled flag must not silently run the defaults: every command
  // rejects it up front, and supervise checks against the tables of the
  // child it would start (a serve-only flag is unknown to simulate).
  const std::string path = temp_path("billcap_supervise_unknown.j");
  remove_generations(path, 3);
  EXPECT_EQ(run_cli({"simulate", "--budget", "2500000", "--checkpint", path}),
            kExitUsage);
  EXPECT_EQ(run_cli({"serve", "--hours", "1", "--die-on-crash"}), kExitUsage);
  EXPECT_EQ(run_cli({"supervise", "--checkpoint", path, "--backof-ms", "1"}),
            kExitUsage);
  EXPECT_EQ(run_cli({"supervise", "--checkpoint", path, "--ticks-per-hour",
                     "2"}),
            kExitUsage);
  EXPECT_FALSE(any_checkpoint_generation_exists(path, 3))
      << "a rejected command line started a month";
  remove_generations(path, 3);
}

}  // namespace
}  // namespace billcap::core

#endif  // POSIX-only: supervision requires fork/exec

#if !defined(__unix__) && !defined(__APPLE__)
TEST(SuperviseTest, SkippedOnNonPosixPlatforms) { GTEST_SKIP(); }
#endif
