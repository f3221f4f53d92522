// billcap — command-line front end to the library.
//
//   billcap simulate   [--budget $] [--policy 0..3] [--strategy name]
//                      [--seed N] [--no-cap] [--csv path]
//                      [--outages s:start:dur,...] [--stale start:dur,...]
//                      [--shocks s:start:dur:mult,...]
//                      [--squeezes start:dur:ms,...] [--deadline-ms X]
//                      [--fault-outage-rate p] [--fault-stale-rate p]
//                      [--fault-shock-rate p] [--fault-squeeze-rate p]
//                      [--fault-*-mean H] [--crash-rate p] [--crash-at h,..]
//                      [--feed-retry-prob p] [--feed-max-retries N]
//                      [--checkpoint path] [--resume]
//                      [--keep-generations K] [--die-on-crash]
//                      [--exit-storm h:n,...] [--corrupt-checkpoint-at h,..]
//                      [--standby [--standby-hours N]]
//                      [--min-premium r]
//                      [--closed-loop [--coupler-max-iters N]
//                       [--coupler-gain G] [--damping off|ladder|full]
//                       [--coupler-open-plan]]
//                      [--line-outage l:start:dur,...]
//                      [--bg-shock bus:start:dur:mult,...]
//                      [--congestion-spike l:start:dur:factor,...]
//   billcap serve      [simulate config/fault flags...]
//                      [--flash-crowds start:dur:mult,...]
//                      [--feed-bursts start:dur:updates,...]
//                      [--ticks-per-hour T] [--hours H]
//                      [--premium-queue-ticks Q] [--ordinary-queue-ticks Q]
//                      [--feed-queue N] [--feed-drain N] [--stale-ticks N]
//                      [--breaker-trip N] [--breaker-cooldown N]
//                      [--replan-nodes N] [--replan-deadline-ms X]
//                      [--kill-at-ticks t,...] [--die-on-kill]
//                      [--checkpoint path] [--resume]
//                      [--keep-generations K] [--csv path]
//                      [--standby [--standby-hours N]]
//   billcap supervise  --checkpoint path [--serve] [child flags...]
//                      [--restart-budget N] [--restart-window-s S]
//                      [--backoff-ms B] [--backoff-multiplier M]
//                      [--backoff-max-ms X] [--backoff-jitter J]
//                      [--escalate-after N] [--standby-hours H]
//                      [--keep-generations K]
//   billcap sweep      [--budgets a,b,c] [--policy 0..3] [--seed N]
//   billcap opf        [--load MW]
//   billcap trace      [--seed N]
//   billcap help
//
// Every command prints human-readable tables; `simulate --csv` dumps the
// hourly records for plotting.
//
// Exit codes:
//   0  success
//   1  runtime error (I/O failure, no viable checkpoint, internal error)
//   2  usage error (unknown command or flag, unparseable or out-of-range
//      flag value)
//   3  unrecoverable degradation (the premium QoS guarantee was broken)
//   4  graceful stop (SIGTERM/SIGINT, or a standby attempt's chunk done)
//   5  the supervisor gave up (restart budget exhausted)

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/checkpoint.hpp"
#include "core/exit_codes.hpp"
#include "core/simulator.hpp"
#include "core/supervisor.hpp"
#include "serve/serve_loop.hpp"
#include "market/dcopf.hpp"
#include "market/pjm5.hpp"
#include "market/policy_derivation.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/trace_stats.hpp"
#include "workload/wiki_synth.hpp"

namespace {

using namespace billcap;

// ---- flag tables ----------------------------------------------------------
// Each command accepts exactly the flags its tables list (anything else is
// a usage error), and supervise forwards to its child exactly the flags
// the child's tables list.

/// The simulation config, fault schedule, coupler and durability flags
/// that simulate and serve share.
constexpr std::string_view kMonthFlags[] = {
    "budget", "policy", "seed", "no-cap", "min-premium", "csv",
    "checkpoint", "resume", "keep-generations", "standby", "standby-hours",
    // parse_faults
    "outages", "stale", "shocks", "squeezes", "crash-at", "exit-storm",
    "corrupt-checkpoint-at", "flash-crowds", "feed-bursts", "line-outage",
    "bg-shock", "congestion-spike", "fault-outage-rate", "fault-stale-rate",
    "fault-shock-rate", "fault-squeeze-rate", "crash-rate",
    "fault-outage-mean", "fault-stale-mean", "fault-shock-mean",
    "fault-squeeze-mean", "feed-retry-prob", "feed-max-retries",
    "feed-backoff-ms", "deadline-ms", "warm-solver",
    // parse_coupler
    "closed-loop", "coupler-max-iters", "coupler-gain", "damping",
    "coupler-open-plan"};
constexpr std::string_view kSimulateFlags[] = {"strategy", "months",
                                               "die-on-crash"};
constexpr std::string_view kServeFlags[] = {
    "ticks-per-hour", "hours", "premium-queue-ticks", "ordinary-queue-ticks",
    "feed-queue", "feed-drain", "stale-ticks", "breaker-trip",
    "breaker-cooldown", "replan-nodes", "replan-deadline-ms", "kill-at-ticks",
    "die-on-kill"};
/// Flags supervise consumes or sets on the child itself; never forwarded.
constexpr std::string_view kSupervisorFlags[] = {
    "restart-budget", "restart-window-s", "backoff-ms", "backoff-multiplier",
    "backoff-max-ms", "backoff-jitter", "escalate-after", "standby-hours",
    "keep-generations", "resume", "die-on-crash", "die-on-kill", "standby",
    "serve"};
constexpr std::string_view kSweepFlags[] = {"budgets", "policy", "seed"};
constexpr std::string_view kOpfFlags[] = {"load"};
constexpr std::string_view kTraceFlags[] = {"seed"};

core::Strategy parse_strategy(const std::string& name) {
  if (name == "costcapping") return core::Strategy::kCostCapping;
  if (name == "minonly-avg") return core::Strategy::kMinOnlyAvg;
  if (name == "minonly-low") return core::Strategy::kMinOnlyLow;
  throw util::UsageError(
      "--strategy: expected costcapping | minonly-avg | minonly-low");
}

/// Splits "a:b:c,d:e:f" into rows of numeric fields; every row must have
/// exactly `fields` entries, all finite and non-negative (fault schedules
/// have no meaningful negative field). Malformed specs are usage errors.
std::vector<std::vector<double>> parse_tuples(const std::string& spec,
                                              std::size_t fields,
                                              const std::string& flag) {
  std::vector<std::vector<double>> rows;
  std::stringstream list(spec);
  std::string item;
  while (std::getline(list, item, ',')) {
    if (item.empty()) continue;
    std::vector<double> row;
    std::stringstream tuple(item);
    std::string field;
    while (std::getline(tuple, field, ':')) {
      try {
        row.push_back(std::stod(field));
      } catch (const std::exception&) {
        throw util::UsageError("--" + flag + ": bad number '" + field +
                               "' in '" + item + "'");
      }
    }
    if (row.size() != fields)
      throw util::UsageError("--" + flag + ": expected " +
                             std::to_string(fields) +
                             " colon-separated fields, got '" + item + "'");
    for (double v : row)
      if (!std::isfinite(v) || v < 0.0)
        throw util::UsageError("--" + flag +
                               ": fields must be finite and >= 0, got '" +
                               item + "'");
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A fault interval of zero hours is almost always a typo that silently
/// injects nothing; reject it loudly.
void require_duration(double hours, const std::string& flag,
                      const std::string& item_desc) {
  if (hours < 1.0)
    throw util::UsageError("--" + flag + ": duration must be >= 1 hour" +
                           item_desc);
}

/// Builds the fault schedule from the CLI flags: explicit interval flags
/// populate a FaultPlan, rate flags populate FaultRates (the simulator
/// draws the plan from the seed). Degenerate values — negative or NaN
/// rates, zero mean durations, non-positive deadlines — are rejected with
/// a UsageError (exit 2) instead of generating a broken plan.
void parse_faults(const util::CliArgs& args, core::SimulationConfig& config) {
  for (const auto& t :
       parse_tuples(args.get("outages"), 3, "outages")) {
    require_duration(t[2], "outages", "");
    config.fault_plan.outages.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         static_cast<std::size_t>(t[2])});
  }
  for (const auto& t : parse_tuples(args.get("stale"), 2, "stale")) {
    require_duration(t[1], "stale", "");
    config.fault_plan.stale_intervals.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1])});
  }
  for (const auto& t : parse_tuples(args.get("shocks"), 4, "shocks")) {
    require_duration(t[2], "shocks", "");
    if (t[3] <= 0.0)
      throw util::UsageError("--shocks: multiplier must be > 0");
    config.fault_plan.demand_shocks.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         static_cast<std::size_t>(t[2]), t[3]});
  }
  for (const auto& t : parse_tuples(args.get("squeezes"), 3, "squeezes")) {
    require_duration(t[1], "squeezes", "");
    if (t[2] <= 0.0)
      throw util::UsageError("--squeezes: time limit must be > 0 ms");
    config.fault_plan.deadline_squeezes.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         t[2]});
  }
  for (const auto& t : parse_tuples(args.get("crash-at"), 1, "crash-at"))
    config.fault_plan.crashes.push_back(
        {static_cast<std::size_t>(t[0]), false});
  for (const auto& t : parse_tuples(args.get("exit-storm"), 2, "exit-storm")) {
    if (t[1] < 1.0)
      throw util::UsageError("--exit-storm: death count must be >= 1");
    config.fault_plan.exit_storms.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1])});
  }
  for (const auto& t : parse_tuples(args.get("corrupt-checkpoint-at"), 1,
                                    "corrupt-checkpoint-at"))
    config.fault_plan.checkpoint_corruptions.push_back(
        {static_cast<std::size_t>(t[0])});
  for (const auto& t :
       parse_tuples(args.get("flash-crowds"), 3, "flash-crowds")) {
    require_duration(t[1], "flash-crowds", "");
    if (t[2] <= 0.0)
      throw util::UsageError("--flash-crowds: multiplier must be > 0");
    config.fault_plan.flash_crowds.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         t[2]});
  }
  for (const auto& t :
       parse_tuples(args.get("feed-bursts"), 3, "feed-bursts")) {
    require_duration(t[1], "feed-bursts", "");
    if (t[2] < 1.0)
      throw util::UsageError("--feed-bursts: updates per tick must be >= 1");
    config.fault_plan.feed_bursts.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         static_cast<std::size_t>(t[2])});
  }
  // Grid-side hazards (bite the closed-loop coupler; legacy static-curve
  // months ignore them by construction since their prices are fixed).
  for (const auto& t :
       parse_tuples(args.get("line-outage"), 3, "line-outage")) {
    require_duration(t[2], "line-outage", "");
    config.fault_plan.line_outages.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         static_cast<std::size_t>(t[2])});
  }
  for (const auto& t : parse_tuples(args.get("bg-shock"), 4, "bg-shock")) {
    require_duration(t[2], "bg-shock", "");
    if (t[3] <= 0.0)
      throw util::UsageError("--bg-shock: multiplier must be > 0");
    config.fault_plan.grid_demand_shocks.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         static_cast<std::size_t>(t[2]), t[3]});
  }
  for (const auto& t :
       parse_tuples(args.get("congestion-spike"), 4, "congestion-spike")) {
    require_duration(t[2], "congestion-spike", "");
    if (t[3] <= 0.0 || t[3] > 1.0)
      throw util::UsageError(
          "--congestion-spike: limit factor must be in (0, 1]");
    config.fault_plan.congestion_spikes.push_back(
        {static_cast<std::size_t>(t[0]), static_cast<std::size_t>(t[1]),
         static_cast<std::size_t>(t[2]), t[3]});
  }

  config.fault_rates.outage_rate = args.get_prob("fault-outage-rate", 0.0);
  config.fault_rates.stale_rate = args.get_prob("fault-stale-rate", 0.0);
  config.fault_rates.shock_rate = args.get_prob("fault-shock-rate", 0.0);
  config.fault_rates.squeeze_rate = args.get_prob("fault-squeeze-rate", 0.0);
  config.fault_rates.crash_rate = args.get_prob("crash-rate", 0.0);
  config.fault_rates.outage_mean_hours = static_cast<std::size_t>(
      args.get_positive_long("fault-outage-mean", 6));
  config.fault_rates.stale_mean_hours = static_cast<std::size_t>(
      args.get_positive_long("fault-stale-mean", 4));
  config.fault_rates.shock_mean_hours = static_cast<std::size_t>(
      args.get_positive_long("fault-shock-mean", 3));
  config.fault_rates.squeeze_mean_hours = static_cast<std::size_t>(
      args.get_positive_long("fault-squeeze-mean", 2));

  // Market-feed retry policy (0 = legacy frozen feed).
  config.market_feed.retry_success_prob =
      args.get_prob("feed-retry-prob", 0.0);
  config.market_feed.max_attempts_per_hour = static_cast<int>(
      args.get_positive_long("feed-max-retries", 5));
  config.market_feed.base_backoff_ms =
      args.get_positive_double("feed-backoff-ms", 100.0);

  // A solver deadline for every hour of the month (absent = unlimited; an
  // explicit non-positive deadline is degenerate, not "unlimited").
  if (args.has("deadline-ms"))
    config.optimizer.milp.time_limit_ms =
        args.get_positive_double("deadline-ms", 0.0);

  // Hour-over-hour solver warm starts. Like --replan-deadline-ms this
  // trades bitwise kill/resume reproducibility for speed (a resumed run
  // starts with empty solver arenas); within one process results stay
  // deterministic. The flag is mixed into the checkpoint digest so warm
  // and cold trajectories cannot be silently mixed across a resume.
  config.optimizer.warm_hourly_solver = args.get_bool("warm-solver", false);
}

/// Parses the closed-loop coupler flags. --closed-loop turns the coupler
/// on; the other --coupler-* / --damping flags refine it and are usage
/// errors without it (a silent no-op here would fake a closed-loop run).
void parse_coupler(const util::CliArgs& args, core::SimulationConfig& config) {
  config.market_coupler.enabled = args.get_bool("closed-loop", false);
  if (!config.market_coupler.enabled) {
    for (const char* flag :
         {"coupler-max-iters", "coupler-gain", "damping", "coupler-open-plan"})
      if (args.has(flag))
        throw util::UsageError(std::string("--") + flag +
                               " requires --closed-loop");
    return;
  }
  config.market_coupler.loop.max_iters = static_cast<std::size_t>(
      args.get_positive_long("coupler-max-iters", 12));
  config.market_coupler.loop.feedback_gain =
      args.get_positive_double("coupler-gain", 1.0);
  const std::string damping = args.get("damping", "ladder");
  if (damping == "off")
    config.market_coupler.damping = core::DampingMode::kOff;
  else if (damping == "ladder")
    config.market_coupler.damping = core::DampingMode::kLadder;
  else if (damping == "full")
    config.market_coupler.damping = core::DampingMode::kFull;
  else
    throw util::UsageError("--damping: expected off | ladder | full");
  // The open-loop arm of the resilience comparison: coupled billing, but
  // planning stays on the static curves (no feedback iteration).
  config.market_coupler.plan_closed_loop =
      !args.get_bool("coupler-open-plan", false);
}

/// Column set of the per-hour CSV (written whole for plain runs, streamed
/// row-by-row for checkpointed ones). The coupler columns appear only for
/// closed-loop runs, so legacy CSVs stay byte-for-byte identical.
std::vector<std::string> hour_csv_header(bool coupled) {
  std::vector<std::string> cols = {
      "hour", "arrivals", "served_premium", "served_ordinary",
      "hourly_budget", "cost", "mode", "degraded", "failure",
      "sites_down", "stale", "feed_retries", "feed_recovered"};
  if (coupled) {
    cols.insert(cols.end(), {"coupler_iters", "coupler_converged",
                             "coupler_fallback", "coupler_rung"});
  }
  return cols;
}

std::vector<std::string> hour_csv_row(const core::HourRecord& h,
                                      bool coupled) {
  std::vector<std::string> row = {
      std::to_string(h.hour), util::format_double(h.arrivals),
      util::format_double(h.served_premium),
      util::format_double(h.served_ordinary),
      util::format_double(h.hourly_budget),
      util::format_double(h.cost), core::to_string(h.mode),
      h.degraded ? "1" : "0", core::to_string(h.failure),
      std::to_string(h.sites_down), h.stale_prices ? "1" : "0",
      std::to_string(h.feed_attempts), h.feed_recovered ? "1" : "0"};
  if (coupled) {
    row.push_back(std::to_string(h.coupler_iterations));
    row.push_back(h.coupler_converged ? "1" : "0");
    row.push_back(h.coupler_fallback ? "1" : "0");
    row.push_back(std::to_string(h.coupler_rung));
  }
  return row;
}

/// SIGTERM/SIGINT land here during a checkpointed run: the hourly loop
/// finishes the in-flight hour, commits its checkpoint and exits with
/// core::kExitStopped — the supervisor reads that as "do not restart".
volatile std::sig_atomic_t g_stop_requested = 0;
void request_stop(int) { g_stop_requested = 1; }

int cmd_simulate(const util::CliArgs& args) {
  args.require_known({kMonthFlags, kSimulateFlags});
  core::SimulationConfig config;
  config.monthly_budget = args.get_positive_double("budget", 1.5e6);
  config.policy_level = static_cast<int>(args.get_long("policy", 1));
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 2012));
  config.enforce_budget = !args.get_bool("no-cap", false);
  config.standby = args.get_bool("standby", false);
  parse_faults(args, config);
  parse_coupler(args, config);
  const core::Strategy strategy =
      parse_strategy(args.get("strategy", "costcapping"));
  if (config.market_coupler.enabled &&
      strategy != core::Strategy::kCostCapping)
    throw util::UsageError("--closed-loop is CostCapping only");
  const bool coupled = config.market_coupler.enabled;
  // Below this premium throughput the run counts as an unrecoverable
  // failure: the QoS guarantee was broken (exit code 3).
  const double min_premium = args.get_prob("min-premium", 0.995);

  const std::string checkpoint_path = args.get("checkpoint");
  const bool resume = args.get_bool("resume", false);
  const bool die_on_crash = args.get_bool("die-on-crash", false);
  const auto keep_generations = static_cast<std::size_t>(
      args.get_positive_long("keep-generations", 1));
  if (resume && checkpoint_path.empty())
    throw util::UsageError("--resume requires --checkpoint <path>");
  if (checkpoint_path.empty() && !config.fault_plan.crashes.empty())
    throw util::UsageError("--crash-at requires --checkpoint <path>");
  if (checkpoint_path.empty() && config.fault_rates.crash_rate > 0.0)
    throw util::UsageError("--crash-rate requires --checkpoint <path>");
  if (checkpoint_path.empty() && !config.fault_plan.exit_storms.empty())
    throw util::UsageError("--exit-storm requires --checkpoint <path>");
  if (checkpoint_path.empty() &&
      !config.fault_plan.checkpoint_corruptions.empty())
    throw util::UsageError(
        "--corrupt-checkpoint-at requires --checkpoint <path>");
  if (die_on_crash && checkpoint_path.empty())
    throw util::UsageError("--die-on-crash requires --checkpoint <path>");
  if (args.has("standby-hours") && !config.standby)
    throw util::UsageError("--standby-hours requires --standby");

  const core::Simulator sim(config);

  const long months = args.get_positive_long("months", 1);
  if (months > 1) {
    if (strategy != core::Strategy::kCostCapping)
      throw util::UsageError("--months: multi-month runs are CostCapping only");
    if (!checkpoint_path.empty())
      throw util::UsageError(
          "--checkpoint supports single-month runs only (--months 1)");
    const auto results =
        sim.run_months(static_cast<std::size_t>(months));
    util::Table table({"month", "cost $", "cost/budget", "premium",
                       "ordinary", "degraded h"});
    bool qos_broken = false;
    for (std::size_t m = 0; m < results.size(); ++m) {
      const auto& r = results[m];
      table.add_row({std::to_string(m), util::format_fixed(r.total_cost, 0),
                     util::format_fixed(r.budget_utilization(), 3),
                     util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
                     util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%",
                     std::to_string(r.degraded_hours)});
      qos_broken = qos_broken || r.premium_throughput_ratio() < min_premium;
    }
    table.print(std::cout);
    if (qos_broken) {
      std::fprintf(stderr,
                   "unrecoverable: premium throughput below %.3f in at "
                   "least one month\n",
                   min_premium);
      return core::kExitQosBroken;
    }
    return core::kExitSuccess;
  }

  const std::string csv_path = args.get("csv");
  core::MonthlyResult r;
  if (!checkpoint_path.empty()) {
    // Crash-tolerant month: every hour is durably checkpointed, the CSV is
    // streamed (and flushed) in lockstep with the checkpoint, and injected
    // controller crashes are survived by resuming in-process.
    std::unique_ptr<util::CsvWriter> writer;
    const auto on_hour = [&](const core::HourRecord& h) {
      if (csv_path.empty()) return;
      // First committed hour of this attempt: keep only the CSV rows the
      // checkpoint vouches for, so a resumed run appends without
      // duplicating hours.
      if (!writer)
        writer = std::make_unique<util::CsvWriter>(
            csv_path, hour_csv_header(coupled), h.hour);
      writer->add_row(hour_csv_row(h, coupled));
    };

    // Honour SIGTERM/SIGINT as a graceful stop: finish the hour, commit
    // the checkpoint, exit with the "do not restart" code.
    g_stop_requested = 0;
    std::signal(SIGTERM, request_stop);
    std::signal(SIGINT, request_stop);

    core::Simulator::ResumeControls controls;
    controls.keep_generations = keep_generations;
    controls.stop_flag = &g_stop_requested;
    if (config.standby)
      controls.max_hours = static_cast<std::size_t>(
          args.get_positive_long("standby-hours", 4));

    const auto report_resume = [&](const core::Simulator::ResumableOutcome& o) {
      for (const auto& skipped : o.resume_skipped)
        std::fprintf(stderr, "checkpoint generation skipped: %s\n",
                     skipped.c_str());
      if (o.resumed_generation > 0)
        std::fprintf(stderr,
                     "resumed from checkpoint generation %zu at hour %zu "
                     "(newer generations unusable)\n",
                     o.resumed_generation, o.resumed_from);
    };

    core::Simulator::ResumableOutcome outcome = sim.run_resumable(
        strategy, checkpoint_path, resume, on_hour, controls);
    report_resume(outcome);
    std::size_t restarts = 0;
    while (outcome.crashed) {
      if (die_on_crash) {
        // Supervised mode: the injected fault must kill the real process
        // (the cursor-advanced checkpoint is already on disk), so the
        // watchdog sees a genuine abnormal death.
        std::fprintf(stderr, "controller crashed at hour %zu; dying\n",
                     outcome.crash_hour);
        std::fflush(nullptr);
#if defined(__unix__) || defined(__APPLE__)
        std::raise(SIGKILL);
#endif
        std::abort();
      }
      ++restarts;
      std::fprintf(stderr,
                   "controller crashed at hour %zu; resuming from %s\n",
                   outcome.crash_hour, checkpoint_path.c_str());
      writer.reset();  // reopen against the post-crash checkpoint state
      outcome = sim.run_resumable(strategy, checkpoint_path, true, on_hour,
                                  controls);
      report_resume(outcome);
    }
    if (outcome.stopped) {
      std::printf("stopped gracefully at hour %zu (checkpoint consistent; "
                  "resume with --resume)\n",
                  outcome.result.hours.size());
      return core::kExitStopped;
    }
    r = std::move(outcome.result);
    if (restarts > 0)
      std::printf("recovered from %zu controller crash(es)\n", restarts);
    if (csv_path.empty()) {
      // nothing streamed
    } else if (writer) {
      std::printf("wrote %s (%zu rows)\n", csv_path.c_str(),
                  writer->num_rows());
    }
  } else {
    r = sim.run(strategy);
  }

  std::printf("strategy %s | policy %d | budget $%.2fM | seed %llu\n",
              core::to_string(strategy), config.policy_level,
              config.monthly_budget / 1e6,
              static_cast<unsigned long long>(config.seed));
  util::Table table({"metric", "value"});
  table.add_row({"monthly cost", "$" + util::format_fixed(r.total_cost, 0)});
  table.add_row({"budget utilization",
                 util::format_fixed(100.0 * r.budget_utilization(), 1) + "%"});
  table.add_row({"premium throughput",
                 util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%"});
  table.add_row({"ordinary throughput",
                 util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%"});
  table.add_row({"max solve time",
                 util::format_fixed(r.max_solve_ms, 2) + " ms"});
  if (sim.fault_injector().enabled() || r.degraded_hours > 0 ||
      config.optimizer.milp.time_limit_ms > 0.0) {
    table.add_row({"degraded hours", std::to_string(r.degraded_hours)});
    table.add_row({"  via incumbent", std::to_string(r.incumbent_hours)});
    table.add_row({"  via heuristic", std::to_string(r.heuristic_hours)});
    table.add_row({"outage hours", std::to_string(r.outage_hours)});
    table.add_row({"stale-feed hours", std::to_string(r.stale_hours)});
  }
  if (config.market_feed.enabled() || r.feed_retry_attempts > 0) {
    table.add_row({"feed retries", std::to_string(r.feed_retry_attempts)});
    table.add_row(
        {"feed recoveries", std::to_string(r.feed_recovered_hours)});
  }
  if (r.crash_recoveries > 0)
    table.add_row({"crash recoveries", std::to_string(r.crash_recoveries)});
  if (coupled) {
    table.add_row({"closed-loop hours", std::to_string(r.closed_loop_hours)});
    table.add_row(
        {"coupler fallback hours", std::to_string(r.coupler_fallback_hours)});
    table.add_row(
        {"oscillation hours",
         std::to_string(r.failure_tally[static_cast<std::size_t>(
             core::FailureReason::kPriceOscillation)])});
    table.add_row({"diverged hours",
                   std::to_string(r.failure_tally[static_cast<std::size_t>(
                       core::FailureReason::kCouplerDiverged)])});
    table.add_row(
        {"coupler iterations", std::to_string(r.coupler_iterations)});
  }
  table.print(std::cout);

  if (!csv_path.empty() && checkpoint_path.empty()) {
    util::Csv csv(hour_csv_header(coupled));
    for (const auto& h : r.hours) csv.add_row(hour_csv_row(h, coupled));
    csv.save(csv_path);
    std::printf("wrote %s (%zu rows)\n", csv_path.c_str(), csv.num_rows());
  }
  if (r.premium_throughput_ratio() < min_premium) {
    std::fprintf(stderr,
                 "unrecoverable: premium throughput %.4f below the %.3f "
                 "guarantee\n",
                 r.premium_throughput_ratio(), min_premium);
    return core::kExitQosBroken;
  }
  return core::kExitSuccess;
}

/// Column set of the per-tick CSV the serving daemon streams (flushed in
/// lockstep with the tick checkpoint, like simulate's hourly CSV).
std::vector<std::string> tick_csv_header() {
  return {"tick", "hour", "premium_arrivals", "ordinary_arrivals",
          "dropped_premium", "dropped_ordinary", "served_premium",
          "served_ordinary", "premium_depth", "ordinary_depth", "cost",
          "hour_budget", "crowd", "feed_updates", "replanned", "plan_held",
          "stale", "admission", "breaker", "health"};
}

std::vector<std::string> tick_csv_row(const serve::TickRecord& t) {
  return {std::to_string(t.tick), std::to_string(t.hour),
          util::format_double(t.premium_arrivals),
          util::format_double(t.ordinary_arrivals),
          util::format_double(t.dropped_premium),
          util::format_double(t.dropped_ordinary),
          util::format_double(t.served_premium),
          util::format_double(t.served_ordinary),
          util::format_double(t.premium_depth),
          util::format_double(t.ordinary_depth), util::format_double(t.cost),
          util::format_double(t.hour_budget),
          util::format_double(t.crowd_multiplier),
          std::to_string(t.feed_updates), t.replanned ? "1" : "0",
          t.plan_held ? "1" : "0", t.stale ? "1" : "0",
          serve::to_string(t.admission), serve::to_string(t.breaker),
          serve::to_string(t.health)};
}

/// billcap serve: the overload-safe serving daemon — the batch month run
/// at sub-hour tick granularity through the bounded ingest plane, the
/// admission ladder and the breaker-guarded re-plan engine, with a durable
/// per-tick checkpoint. Reuses simulate's config and fault flags.
int cmd_serve(const util::CliArgs& args) {
  args.require_known({kMonthFlags, kServeFlags});
  core::SimulationConfig config;
  config.monthly_budget = args.get_positive_double("budget", 1.5e6);
  config.policy_level = static_cast<int>(args.get_long("policy", 1));
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 2012));
  config.enforce_budget = !args.get_bool("no-cap", false);
  parse_faults(args, config);
  parse_coupler(args, config);

  serve::ServeConfig serve_config;
  serve_config.ticks_per_hour =
      static_cast<std::size_t>(args.get_positive_long("ticks-per-hour", 6));
  const long hours = args.get_long("hours", 0);
  if (hours < 0) throw util::UsageError("--hours: must be >= 0 (0 = month)");
  serve_config.horizon_hours = static_cast<std::size_t>(hours);
  serve_config.premium_queue_ticks =
      args.get_positive_double("premium-queue-ticks", 4.0);
  serve_config.ordinary_queue_ticks =
      args.get_positive_double("ordinary-queue-ticks", 4.0);
  serve_config.feed_queue_capacity =
      static_cast<std::size_t>(args.get_positive_long("feed-queue", 16));
  serve_config.feed_updates_per_tick =
      static_cast<std::size_t>(args.get_positive_long("feed-drain", 1));
  serve_config.admission.stale_ticks_tolerated =
      static_cast<std::size_t>(args.get_positive_long("stale-ticks", 12));
  serve_config.breaker.trip_after =
      static_cast<std::size_t>(args.get_positive_long("breaker-trip", 3));
  serve_config.breaker.cooldown_ticks =
      static_cast<std::size_t>(args.get_positive_long("breaker-cooldown", 4));
  serve_config.replan_node_budget = args.get_long("replan-nodes", 20000);
  if (args.has("replan-deadline-ms"))
    serve_config.replan_deadline_ms =
        args.get_positive_double("replan-deadline-ms", 0.0);
  serve_config.standby = args.get_bool("standby", false);
  for (const auto& t :
       parse_tuples(args.get("kill-at-ticks"), 1, "kill-at-ticks"))
    serve_config.kill_at_ticks.push_back(static_cast<std::size_t>(t[0]));

  const double min_premium = args.get_prob("min-premium", 0.995);
  const std::string checkpoint_path = args.get("checkpoint");
  const bool resume = args.get_bool("resume", false);
  const bool die_on_kill = args.get_bool("die-on-kill", false);
  const auto keep_generations = static_cast<std::size_t>(
      args.get_positive_long("keep-generations", 1));
  if (resume && checkpoint_path.empty())
    throw util::UsageError("--resume requires --checkpoint <path>");
  if (checkpoint_path.empty() && !serve_config.kill_at_ticks.empty())
    throw util::UsageError("--kill-at-ticks requires --checkpoint <path>");
  if (die_on_kill && checkpoint_path.empty())
    throw util::UsageError("--die-on-kill requires --checkpoint <path>");
  if (args.has("standby-hours") && !serve_config.standby)
    throw util::UsageError("--standby-hours requires --standby");

  const core::Simulator sim(config);
  const serve::ServeLoop loop(sim, serve_config);

  const std::string csv_path = args.get("csv");
  std::unique_ptr<util::CsvWriter> writer;
  const auto on_tick = [&](const serve::TickRecord& t) {
    if (csv_path.empty()) return;
    // First committed tick of this attempt: keep only the CSV rows the
    // serve checkpoint vouches for.
    if (!writer)
      writer = std::make_unique<util::CsvWriter>(csv_path, tick_csv_header(),
                                                 t.tick);
    writer->add_row(tick_csv_row(t));
  };

  g_stop_requested = 0;
  std::signal(SIGTERM, request_stop);
  std::signal(SIGINT, request_stop);

  serve::ServeLoop::Controls controls;
  controls.keep_generations = keep_generations;
  controls.stop_flag = &g_stop_requested;
  if (serve_config.standby)
    controls.max_ticks =
        static_cast<std::size_t>(args.get_positive_long("standby-hours", 4)) *
        serve_config.ticks_per_hour;

  const auto report_resume = [&](const serve::ServeOutcome& o) {
    for (const auto& skipped : o.resume_skipped)
      std::fprintf(stderr, "serve checkpoint generation skipped: %s\n",
                   skipped.c_str());
    if (o.resumed_generation > 0)
      std::fprintf(stderr,
                   "resumed from serve checkpoint generation %zu at tick %zu "
                   "(newer generations unusable)\n",
                   o.resumed_generation, o.resumed_from_tick);
  };

  serve::ServeOutcome outcome =
      loop.run(checkpoint_path, resume, on_tick, controls);
  report_resume(outcome);
  std::size_t restarts = 0;
  while (outcome.crashed) {
    if (die_on_kill) {
      // Supervised mode: the injected kill must take down the real process
      // (the kill-cursor-advanced checkpoint is already on disk), so the
      // watchdog sees a genuine abnormal death.
      std::fprintf(stderr, "serve daemon killed at tick %zu; dying\n",
                   outcome.crash_tick);
      std::fflush(nullptr);
#if defined(__unix__) || defined(__APPLE__)
      std::raise(SIGKILL);
#endif
      std::abort();
    }
    ++restarts;
    std::fprintf(stderr, "serve daemon killed at tick %zu; resuming from %s\n",
                 outcome.crash_tick, checkpoint_path.c_str());
    writer.reset();  // reopen against the post-kill checkpoint state
    outcome = loop.run(checkpoint_path, true, on_tick, controls);
    report_resume(outcome);
  }
  if (outcome.stopped) {
    std::printf("stopped gracefully at tick %zu (serve checkpoint "
                "consistent; resume with --resume)\n",
                outcome.report.ticks_committed);
    return core::kExitStopped;
  }

  const serve::ServeReport& r = outcome.report;
  std::printf("serve | policy %d | budget $%.2fM | seed %llu | %zu ticks "
              "(%zu per hour)\n",
              config.policy_level, config.monthly_budget / 1e6,
              static_cast<unsigned long long>(config.seed), r.ticks_committed,
              r.ticks_per_hour);
  util::Table table({"metric", "value"});
  table.add_row({"total cost", "$" + util::format_fixed(r.total_cost, 0)});
  table.add_row({"premium throughput",
                 util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) +
                     "%"});
  table.add_row({"ordinary throughput",
                 util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) +
                     "%"});
  table.add_row({"premium dropped", util::format_double(r.dropped_premium)});
  table.add_row({"ordinary dropped", util::format_double(r.dropped_ordinary)});
  table.add_row({"max premium queue fill",
                 util::format_fixed(
                     100.0 * r.max_premium_depth /
                         std::max(r.premium_queue_capacity, 1.0), 1) + "%"});
  table.add_row({"max ordinary queue fill",
                 util::format_fixed(
                     100.0 * r.max_ordinary_depth /
                         std::max(r.ordinary_queue_capacity, 1.0), 1) + "%"});
  table.add_row({"feed updates seen", std::to_string(r.feed_updates_seen)});
  table.add_row(
      {"feed updates dropped", std::to_string(r.feed_updates_dropped)});
  table.add_row({"re-plans", std::to_string(r.replans) + " (" +
                                 std::to_string(r.degraded_replans) +
                                 " degraded)"});
  table.add_row({"breaker trips", std::to_string(r.breaker_trips)});
  if (config.market_coupler.enabled)
    table.add_row(
        {"coupled curve refreshes", std::to_string(r.coupled_refreshes)});
  table.add_row({"shed ticks", std::to_string(r.shed_ticks)});
  table.add_row({"standby ticks", std::to_string(r.standby_ticks)});
  table.add_row({"final health", serve::to_string(r.final_health)});
  table.print(std::cout);

  if (!r.health_history.empty()) {
    std::printf("health transitions (%zu total%s):\n", r.health_transitions,
                r.health_transitions > r.health_history.size()
                    ? ", newest shown"
                    : "");
    for (const auto& t : r.health_history)
      std::printf("  tick %6zu  %s -> %s\n", t.tick, serve::to_string(t.from),
                  serve::to_string(t.to));
  }
  if (restarts > 0)
    std::printf("recovered from %zu daemon kill(s)\n", restarts);
  if (writer)
    std::printf("wrote %s (%zu rows)\n", csv_path.c_str(), writer->num_rows());

  if (!r.premium_qos_ok() || r.premium_throughput_ratio() < min_premium) {
    std::fprintf(stderr,
                 "unrecoverable: premium QoS contract broken (dropped %.0f "
                 "at the door, final backlog %.0f, throughput %.4f)\n",
                 r.dropped_premium, r.final_premium_depth,
                 r.premium_throughput_ratio());
    return core::kExitQosBroken;
  }
  return core::kExitSuccess;
}

int cmd_sweep(const util::CliArgs& args) {
  args.require_known({kSweepFlags});
  const auto budgets =
      args.get_double_list("budgets", {0.5e6, 1.0e6, 1.5e6, 2.0e6, 2.5e6});
  util::Table table({"budget", "cost / budget", "premium", "ordinary"});
  for (double budget : budgets) {
    core::SimulationConfig config;
    config.monthly_budget = budget;
    config.policy_level = static_cast<int>(args.get_long("policy", 1));
    config.seed = static_cast<std::uint64_t>(args.get_long("seed", 2012));
    const core::MonthlyResult r =
        core::Simulator(config).run(core::Strategy::kCostCapping);
    table.add_row({"$" + util::format_fixed(budget / 1e6, 2) + "M",
                   util::format_fixed(r.budget_utilization(), 3),
                   util::format_fixed(100.0 * r.premium_throughput_ratio(), 2) + "%",
                   util::format_fixed(100.0 * r.ordinary_throughput_ratio(), 2) + "%"});
  }
  table.print(std::cout);
  return core::kExitSuccess;
}

int cmd_opf(const util::CliArgs& args) {
  args.require_known({kOpfFlags});
  const double load = args.get_double("load", 900.0);
  const market::Grid grid = market::pjm5_grid();
  const market::DcOpfResult r =
      market::solve_dcopf(grid, market::pjm5_loads(load));
  if (!r.ok()) {
    std::printf("OPF %s at %.1f MW system load\n", lp::to_string(r.status),
                load);
    return core::kExitRuntimeError;
  }
  const market::DcOpfReport report = market::analyze_opf(grid, r);
  std::printf("system load %.1f MW | dispatch cost $%.2f/h | reference "
              "price %.2f $/MWh\n\n",
              load, r.total_cost, report.reference_price);
  util::Table buses({"bus", "LMP $/MWh", "congestion $/MWh"});
  for (int b = 0; b < grid.num_buses(); ++b) {
    buses.add_row({grid.bus_name(b),
                   util::format_fixed(r.lmp[static_cast<std::size_t>(b)], 2),
                   util::format_fixed(
                       report.congestion_component[static_cast<std::size_t>(b)], 2)});
  }
  buses.print(std::cout);
  if (!report.binding.empty()) {
    std::printf("\nbinding constraints:\n");
    for (const auto& b : report.binding) {
      if (b.kind == market::BindingConstraint::Kind::kGeneratorLimit)
        std::printf("  generator %s at %.1f MW\n",
                    grid.generator(b.index).name.c_str(), b.value);
      else
        std::printf("  line %s at %.1f MW\n", grid.line(b.index).name.c_str(),
                    b.value);
    }
  }
  return core::kExitSuccess;
}

int cmd_trace(const util::CliArgs& args) {
  args.require_known({kTraceFlags});
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 2012));
  const workload::TwoMonthTrace both = workload::paper_two_month_trace(seed);
  workload::TraceStatsOptions options;
  options.spike_threshold = 1.12;
  const workload::TraceStats history = analyze_trace(both.history, options);
  options.phase_offset_hours = both.history.hours();
  const workload::TraceStats eval = analyze_trace(both.evaluation, options);

  util::Table table({"metric", "history month", "evaluation month"});
  auto row = [&table](const char* label, double a, double b, int precision) {
    table.add_row({label, util::format_fixed(a, precision),
                   util::format_fixed(b, precision)});
  };
  row("mean Greq/h", history.mean / 1e9, eval.mean / 1e9, 1);
  row("peak Greq/h", history.peak / 1e9, eval.peak / 1e9, 1);
  row("peak/mean", history.peak_to_mean, eval.peak_to_mean, 3);
  row("hourly CV^2", history.hourly_cv2, eval.hourly_cv2, 4);
  row("weekly pattern", history.weekly_pattern_strength,
      eval.weekly_pattern_strength, 3);
  row("spike hours", static_cast<double>(history.spike_hours),
      static_cast<double>(eval.spike_hours), 0);
  table.print(std::cout);
  return core::kExitSuccess;
}

/// Absolute path of this binary, for spawning supervised children. Falls
/// back to argv[0] when /proc/self/exe is unavailable.
std::string self_path(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
#endif
  return std::string(argv0);
}

/// billcap supervise: a watchdog around `billcap simulate`. Forks the
/// controller as a child, restarts it (with budget + backoff) when it dies
/// abnormally, escalates to the degraded premium-only standby after
/// repeated zero-progress deaths, and stops cleanly on SIGTERM/SIGINT or a
/// graceful child exit. Needs raw argv so the child's flags can be
/// forwarded to it verbatim.
int cmd_supervise(int argc, char** argv, const util::CliArgs& args) {
  // --serve supervises the serving daemon instead of the batch controller.
  const bool serve_child = args.get_bool("serve", false);
  const util::CliArgs::FlagTable child_flags =
      serve_child ? util::CliArgs::FlagTable(kServeFlags)
                  : util::CliArgs::FlagTable(kSimulateFlags);
  args.require_known({kSupervisorFlags, kMonthFlags, child_flags});
  const std::string checkpoint_path = args.get("checkpoint");
  if (checkpoint_path.empty())
    throw util::UsageError("supervise requires --checkpoint <path>");

  core::SupervisorOptions options;
  options.restart_budget =
      static_cast<std::size_t>(args.get_positive_long("restart-budget", 100));
  options.restart_window_s =
      args.get_positive_double("restart-window-s", 3600.0);
  options.backoff_base_ms = args.get_positive_double("backoff-ms", 50.0);
  options.backoff_multiplier =
      args.get_positive_double("backoff-multiplier", 2.0);
  options.backoff_max_ms = args.get_positive_double("backoff-max-ms", 5000.0);
  options.backoff_jitter_frac = args.get_prob("backoff-jitter", 0.2);
  options.seed = static_cast<std::uint64_t>(args.get_long("seed", 2012));
  options.escalate_after =
      static_cast<std::size_t>(args.get_positive_long("escalate-after", 3));
  options.standby_hours =
      static_cast<std::size_t>(args.get_positive_long("standby-hours", 4));
  const auto keep_generations = static_cast<std::size_t>(
      args.get_positive_long("keep-generations", 3));

  // Forward the child's own flags verbatim (after require_known, every flag
  // the supervisor does not keep is one the child's tables list).
  std::vector<std::string> forwarded;
  bool command_seen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.size() >= 3 && token[0] == '-' && token[1] == '-') {
      const std::size_t eq = token.find('=');
      const std::string name =
          eq == std::string::npos ? token.substr(2) : token.substr(2, eq - 2);
      const bool separate_value =
          eq == std::string::npos && i + 1 < argc &&
          !(std::string(argv[i + 1]).rfind("--", 0) == 0);
      if (util::CliArgs::listed(name, {kSupervisorFlags})) {
        if (separate_value) ++i;
        continue;
      }
      forwarded.push_back(token);
      if (separate_value) forwarded.emplace_back(argv[++i]);
    } else if (!command_seen) {
      command_seen = true;  // the "supervise" command word
    } else {
      throw util::UsageError("supervise: unexpected positional '" + token +
                             "'");
    }
  }

  // Both children always resume from the rotated checkpoint chain and let
  // injected crashes (or serve kill-ticks) kill the real process so the
  // watchdog sees them.
  core::ChildSpec primary;
  primary.program = self_path(argv[0]);
  primary.args.emplace_back(serve_child ? "serve" : "simulate");
  primary.args.insert(primary.args.end(), forwarded.begin(), forwarded.end());
  primary.args.emplace_back("--resume");
  primary.args.emplace_back(serve_child ? "--die-on-kill" : "--die-on-crash");
  primary.args.emplace_back("--keep-generations");
  primary.args.push_back(std::to_string(keep_generations));

  core::ChildSpec standby = primary;
  standby.args.emplace_back("--standby");
  standby.args.emplace_back("--standby-hours");
  standby.args.push_back(std::to_string(options.standby_hours));

  core::Supervisor supervisor(options, std::move(primary), std::move(standby),
                              checkpoint_path, keep_generations);
  const core::SuperviseReport report = supervisor.run();

  std::printf(
      "supervise: %zu primary run(s), %zu standby run(s), %zu restart(s)%s\n",
      report.primary_runs, report.standby_runs, report.restarts,
      report.escalated ? " [escalated to standby]" : "");
  if (report.gave_up)
    std::fprintf(stderr, "supervise: gave up (restart budget exhausted)\n");
  return report.exit_code;
}

int cmd_help() {
  std::printf(
      "billcap — electricity bill capping for cloud-scale data centers\n\n"
      "commands:\n"
      "  simulate  run one month (--budget --policy --strategy --seed\n"
      "            --no-cap --csv out.csv --months N)\n"
      "            fault injection: --outages site:start:dur,...\n"
      "              --stale start:dur,...  --shocks site:start:dur:mult,...\n"
      "              --squeezes start:dur:ms,...  or random via\n"
      "              --fault-outage-rate --fault-stale-rate\n"
      "              --fault-shock-rate --fault-squeeze-rate (per hour)\n"
      "              with mean interval lengths --fault-outage-mean\n"
      "              --fault-stale-mean --fault-shock-mean\n"
      "              --fault-squeeze-mean (hours, >= 1)\n"
      "            market-feed retry: --feed-retry-prob p (per attempt)\n"
      "              --feed-max-retries N --feed-backoff-ms B\n"
      "            crash tolerance: --checkpoint path (durable per-hour\n"
      "              checkpoint) --resume (continue from it)\n"
      "              --crash-at h1,h2,...  --crash-rate p (injected\n"
      "              controller deaths, survived via the checkpoint)\n"
      "              --exit-storm hour:count,...  (repeated no-progress\n"
      "              deaths) --corrupt-checkpoint-at h,... (bit rot in the\n"
      "              newest checkpoint generation)\n"
      "              --keep-generations K  rotated checkpoint generations\n"
      "              --die-on-crash  injected crashes SIGKILL the process\n"
      "              --standby [--standby-hours N]  degraded premium-only\n"
      "              mode (no MILP), N committed hours per attempt\n"
      "            closed market loop: --closed-loop (plan against curves\n"
      "              re-derived from the fleet's own price impact, billed at\n"
      "              realized LMPs) --coupler-max-iters N --coupler-gain G\n"
      "              --damping off|ladder|full --coupler-open-plan (static\n"
      "              planning, coupled billing). Grid hazards:\n"
      "              --line-outage line:start:dur,...\n"
      "              --bg-shock bus:start:dur:mult,...\n"
      "              --congestion-spike line:start:dur:factor,...\n"
      "              An oscillating or diverging hour falls back open-loop\n"
      "              (breaker), counts degraded, and exits 0 unless the\n"
      "              premium guarantee itself breaks (exit 3).\n"
      "            --deadline-ms M   hard wall-clock limit per solve\n"
      "            --warm-solver     hour-over-hour solver warm starts\n"
      "                              (faster; costs bitwise kill/resume)\n"
      "            --min-premium r   exit 3 if premium throughput < r\n"
      "  serve     overload-safe serving daemon: the month at sub-hour ticks\n"
      "            through a bounded ingest plane, an admission ladder and a\n"
      "            breaker-guarded re-plan engine. Takes simulate's config\n"
      "            and fault flags, plus: --ticks-per-hour N  --hours H\n"
      "            --premium-queue-ticks --ordinary-queue-ticks (capacity in\n"
      "            mean tick arrivals) --feed-queue N --feed-drain N\n"
      "            --stale-ticks N (re-plan staleness tolerance)\n"
      "            --breaker-trip N --breaker-cooldown T (circuit breaker)\n"
      "            --replan-nodes N --replan-deadline-ms M (per-tick\n"
      "            re-plan budget; node budget keeps resume bitwise)\n"
      "            --kill-at-ticks t1,t2,... --die-on-kill (injected daemon\n"
      "            deaths) --checkpoint --resume --keep-generations --csv\n"
      "            --standby [--standby-hours N] --min-premium r\n"
      "            overload drills: --flash-crowds start:dur:mult,...\n"
      "            (fleet-wide arrival surge) --feed-bursts\n"
      "            start:dur:updates,... (mid-hour price updates per tick);\n"
      "            simulate accepts both and its hourly loop ignores them\n"
      "  supervise watchdog around simulate (or the serving daemon with\n"
      "            --serve): forks the controller, restarts\n"
      "            abnormal exits with a budget (--restart-budget\n"
      "            --restart-window-s) and exponential backoff (--backoff-ms\n"
      "            --backoff-multiplier --backoff-max-ms --backoff-jitter),\n"
      "            escalates to standby after --escalate-after zero-progress\n"
      "            deaths, keeps --keep-generations rotated checkpoints.\n"
      "            The child's own flags are forwarded to it.\n"
      "  sweep     budget sweep (--budgets 0.5e6,1e6,... --policy --seed)\n"
      "  opf       PJM 5-bus optimal power flow (--load MW)\n"
      "  trace     synthetic workload statistics (--seed)\n"
      "  help      this text\n\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  runtime error (I/O failure, no viable checkpoint generation)\n"
      "  2  usage error (unknown command or flag, bad or out-of-range\n"
      "     flag value)\n"
      "  3  unrecoverable degradation (premium QoS guarantee broken)\n"
      "  4  graceful stop (SIGTERM/SIGINT honoured, or a standby attempt\n"
      "     that committed its chunk) — resume with --resume\n"
      "  5  supervisor gave up (restart budget exhausted)\n");
  return billcap::core::kExitSuccess;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  try {
    if (args.command() == "simulate") return cmd_simulate(args);
    if (args.command() == "serve") return cmd_serve(args);
    if (args.command() == "supervise") return cmd_supervise(argc, argv, args);
    if (args.command() == "sweep") return cmd_sweep(args);
    if (args.command() == "opf") return cmd_opf(args);
    if (args.command() == "trace") return cmd_trace(args);
    if (args.command().empty() || args.command() == "help") return cmd_help();
    std::fprintf(stderr, "unknown command '%s' (try: billcap help)\n",
                 args.command().c_str());
    return billcap::core::kExitUsage;
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "usage error: %s (try: billcap help)\n", e.what());
    return billcap::core::kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return billcap::core::kExitRuntimeError;
  }
}
