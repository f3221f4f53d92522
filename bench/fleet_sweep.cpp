// Fleet sweep — the 100-site scale-out benchmark for FleetController.
//
// Runs a Monte-Carlo batch of scenario-months (default 1000) over a
// 100-site / 20-region fleet, twice: once serially (no thread pool) and
// once with chunk solves sharded across a util::ThreadPool. Every month
// carries a rotating fault ladder — a RegionOutage, a ChunkSolverStall,
// a ChunkArenaSqueeze and a site Outage, each walking across the fleet
// with the month index — so the whole quarantine/degradation surface is
// exercised, not just the happy path.
//
// The sweep reports months/sec for both passes and asserts the fleet
// contract:
//
//   1. zero fleet-hour aborts — no month ever throws out of run_month;
//      chunk trouble degrades locally, it never poisons the hour;
//   2. the serial and threaded passes are bitwise identical — the FNV
//      digest over every month's fleet_month_csv must match exactly;
//   3. (when --min-speedup is given) the threaded pass beats the serial
//      pass by at least that factor.
//
// Results land in BENCH_fleet.json next to the binary (archived at the
// repo root by tools/ci.sh). Flags: --months N, --hours H, --threads T,
// --shard months|chunks (which axis the threaded pass fans out: whole
// scenario-months as independent pool tasks, or each month's 20 region
// chunks via the FleetController's own dispatch), --min-speedup X,
// --smoke for the small ctest soak configuration, and --help.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/exit_codes.hpp"
#include "core/fleet.hpp"
#include "datacenter/catalog.hpp"
#include "market/pricing_policy.hpp"
#include "util/cli.hpp"
#include "util/fnv1a.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace billcap;

constexpr std::size_t kSites = 100;
constexpr std::size_t kSitesPerRegion = 5;  // 20 regions

struct Fleet {
  std::vector<datacenter::DataCenter> sites;
  std::vector<market::PricingPolicy> policies;
  std::vector<core::Region> regions;
};

Fleet build_fleet() {
  Fleet fleet;
  const auto base_sites = datacenter::paper_datacenters();
  const auto base_policies = market::paper_policies(1);
  while (fleet.sites.size() < kSites) {
    const std::size_t i = fleet.sites.size() % base_sites.size();
    fleet.sites.push_back(base_sites[i]);
    fleet.policies.push_back(base_policies[i]);
  }
  fleet.regions = core::contiguous_regions(kSites, kSitesPerRegion);
  return fleet;
}

/// The month's scenario: seed and fault ladder are pure functions of the
/// month index, so the serial and threaded passes see identical inputs.
core::FleetMonthConfig month_config(std::size_t month, std::size_t hours,
                                    std::size_t num_regions) {
  core::FleetMonthConfig config;
  config.hours = hours;
  config.seed = 0xb111ca9f1ee7ULL ^ (month * 0x9e3779b97f4a7c15ULL);
  config.base_premium = 1.2e13;
  config.base_ordinary = 3e12;
  config.base_demand_mw = 180.0;
  config.hourly_budget = 2e8;
  // The rotating ladder: each fault kind walks across the fleet with the
  // month index so every region eventually sees every envelope.
  const std::size_t quarter = hours / 4 + 1;
  config.faults.region_outages.push_back(
      {month % num_regions, quarter, quarter / 2 + 1});
  config.faults.chunk_stalls.push_back(
      {(month * 7 + 3) % num_regions, quarter / 2, quarter, /*node_budget=*/1});
  config.faults.chunk_squeezes.push_back(
      {(month * 13 + 5) % num_regions, 2 * quarter, quarter,
       /*arena_bytes=*/64});
  config.faults.outages.push_back(
      {(month * 11 + 1) % kSites, 1, quarter});
  return config;
}

/// Which axis the threaded pass shards across the pool. Months is the
/// scalable default: each scenario-month is one task running its chunks
/// inline (independent samples, near-linear in cores, and no nested pool
/// to deadlock on). Chunks runs months sequentially with each month's 20
/// region solves fanned out — the FleetController's own parallelism.
enum class Shard { kMonths, kChunks };

struct MonthSummary {
  bool ok = false;
  std::string error;
  std::string csv;
  std::size_t degraded_chunks = 0;
  std::size_t quarantined_chunks = 0;
  std::size_t region_down_chunks = 0;
  std::array<std::size_t, core::kFailureReasonCount> tally{};
};

/// One scenario-month end to end. A fresh controller per month: quarantine
/// state and warm arenas never leak between months, so each month is an
/// independent sample and every pass sees identical inputs.
MonthSummary run_one_month(const Fleet& fleet, std::size_t month,
                           std::size_t hours, util::ThreadPool* chunk_pool) {
  MonthSummary summary;
  core::FleetController controller(fleet.sites, fleet.policies, fleet.regions,
                                   {}, chunk_pool);
  try {
    const core::MonthlyResult result =
        controller.run_month(month_config(month, hours, fleet.regions.size()));
    summary.csv = core::fleet_month_csv(result);
    summary.degraded_chunks = result.degraded_chunks;
    summary.quarantined_chunks = result.quarantined_chunks;
    summary.region_down_chunks = result.region_down_chunks;
    summary.tally = result.chunk_failure_tally;
    summary.ok = true;
  } catch (const std::exception& e) {
    summary.error = e.what();
  }
  return summary;
}

struct PassResult {
  double seconds = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a over the completed months' CSVs
  std::size_t aborts = 0;  ///< months that threw out of run_month
  std::size_t degraded_chunks = 0;
  std::size_t quarantined_chunks = 0;
  std::size_t region_down_chunks = 0;
  std::array<std::size_t, core::kFailureReasonCount> tally{};
};

PassResult run_pass(const Fleet& fleet, std::size_t months, std::size_t hours,
                    util::ThreadPool* pool, Shard shard) {
  PassResult result;
  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
  const auto start = std::chrono::steady_clock::now();
  // Every path folds summaries serially in month order — the digest is a
  // pure function of the configs, never of scheduling.
  std::vector<MonthSummary> summaries(months);
  if (pool != nullptr && shard == Shard::kMonths) {
    std::vector<std::future<util::TaskResult<MonthSummary>>> futures;
    futures.reserve(months);
    for (std::size_t m = 0; m < months; ++m)
      futures.push_back(pool->submit_noexcept([&fleet, m, hours] {
        return run_one_month(fleet, m, hours, nullptr);
      }));
    for (std::size_t m = 0; m < months; ++m) {
      util::TaskResult<MonthSummary> task = futures[m].get();
      summaries[m] = task.ok ? std::move(task.value)
                             : MonthSummary{false, task.error, {}, 0, 0, 0, {}};
    }
  } else {
    for (std::size_t m = 0; m < months; ++m)
      summaries[m] = run_one_month(fleet, m, hours, pool);
  }
  util::Fnv1a digest;
  for (std::size_t m = 0; m < months; ++m) {
    const MonthSummary& s = summaries[m];
    if (!s.ok) {
      ++result.aborts;
      std::fprintf(stderr, "fleet_sweep: month %zu ABORTED: %s\n", m,
                   s.error.c_str());
      continue;
    }
    digest.mix_bytes(s.csv);
    result.degraded_chunks += s.degraded_chunks;
    result.quarantined_chunks += s.quarantined_chunks;
    result.region_down_chunks += s.region_down_chunks;
    for (std::size_t i = 0; i < result.tally.size(); ++i)
      result.tally[i] += s.tally[i];
  }
  result.digest = digest.hash;
  result.seconds = std::chrono::duration<double>(
                       // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

constexpr std::string_view kFlags[] = {"months",      "hours", "threads",
                                       "min-speedup", "shard", "smoke"};

void print_usage() {
  std::printf(
      "usage: fleet_sweep [--months N] [--hours H] [--threads T]\n"
      "                   [--shard months|chunks] [--min-speedup X] "
      "[--smoke]\n\n"
      "Runs N scenario-months (default 1000) of the 100-site fleet serially\n"
      "and threaded, checks zero aborts and equal digests, and writes\n"
      "BENCH_fleet.json. --smoke is the small soak configuration.\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.has("help")) {
    print_usage();
    return core::kExitSuccess;
  }
  std::size_t months = 1000;
  std::size_t hours = 24;
  std::size_t threads = std::max(2u, std::thread::hardware_concurrency());
  double min_speedup = 0.0;  // 0 = report only, don't gate
  try {
    args.require_known({kFlags});
    if (args.get_bool("smoke")) {
      months = 6;
      hours = 8;
      threads = 4;
    }
    months = static_cast<std::size_t>(
        args.get_positive_long("months", static_cast<long>(months)));
    hours = static_cast<std::size_t>(
        args.get_positive_long("hours", static_cast<long>(hours)));
    threads = static_cast<std::size_t>(
        args.get_positive_long("threads", static_cast<long>(threads)));
    min_speedup = args.get_double("min-speedup", min_speedup);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_sweep: %s\n", e.what());
    return core::kExitUsage;
  }
  Shard shard = Shard::kMonths;
  const std::string shard_name = args.get("shard", "months");
  if (shard_name == "chunks") {
    shard = Shard::kChunks;
  } else if (shard_name != "months") {
    std::fprintf(stderr, "fleet_sweep: --shard must be months or chunks\n");
    return core::kExitUsage;
  }

  const Fleet fleet = build_fleet();
  std::printf("fleet_sweep: %zu months x %zu h, %zu sites / %zu regions, "
              "%zu threads, shard=%s\n",
              months, hours, kSites, fleet.regions.size(), threads,
              shard_name.c_str());

  const PassResult serial = run_pass(fleet, months, hours, nullptr, shard);
  util::ThreadPool pool(threads);
  const PassResult threaded = run_pass(fleet, months, hours, &pool, shard);

  const double serial_rate =
      static_cast<double>(months) / std::max(serial.seconds, 1e-9);
  const double threaded_rate =
      static_cast<double>(months) / std::max(threaded.seconds, 1e-9);
  // The threaded pass can only beat serial when the host has cores to
  // spare: with 20 regions the sweep scales to ~20 cores, and on a 1-core
  // host the two passes tie. host_cores lands in the JSON so archived
  // numbers stay interpretable.
  const double speedup = serial.seconds / std::max(threaded.seconds, 1e-9);

  util::Table table({"pass", "seconds", "months/sec", "degraded", "quarantined",
                     "region-down", "aborts"});
  const auto row = [&table](const char* name, const PassResult& pass,
                            double rate) {
    char sec_s[32], rate_s[32], deg_s[32], qua_s[32], down_s[32], ab_s[32];
    std::snprintf(sec_s, sizeof sec_s, "%.2f", pass.seconds);
    std::snprintf(rate_s, sizeof rate_s, "%.2f", rate);
    std::snprintf(deg_s, sizeof deg_s, "%zu", pass.degraded_chunks);
    std::snprintf(qua_s, sizeof qua_s, "%zu", pass.quarantined_chunks);
    std::snprintf(down_s, sizeof down_s, "%zu", pass.region_down_chunks);
    std::snprintf(ab_s, sizeof ab_s, "%zu", pass.aborts);
    table.add_row({name, sec_s, rate_s, deg_s, qua_s, down_s, ab_s});
  };
  row("serial", serial, serial_rate);
  row("threaded", threaded, threaded_rate);
  table.print(std::cout);

  const bool digests_match = serial.digest == threaded.digest;
  std::printf("speedup: %.2fx  digest: %016llx %s\n", speedup,
              static_cast<unsigned long long>(serial.digest),
              digests_match ? "(serial == threaded)" : "MISMATCH");
  std::printf("failure tally:");
  for (std::size_t i = 0; i < serial.tally.size(); ++i)
    if (serial.tally[i] > 0)
      std::printf(" %s=%zu",
                  core::to_string(static_cast<core::FailureReason>(i)),
                  serial.tally[i]);
  std::printf("\n");

  const std::string path = "BENCH_fleet.json";
  // billcap-lint: allow(raw-write): bench artifact, regenerated every run; no resume path reads it
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "fleet_sweep: cannot write %s\n", path.c_str());
    return core::kExitRuntimeError;
  }
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"bench\": \"fleet_sweep\",\n"
      "  \"shape\": {\"sites\": %zu, \"regions\": %zu, \"months\": %zu,"
      " \"hours_per_month\": %zu, \"threads\": %zu, \"host_cores\": %u,"
      " \"shard\": \"%s\"},\n"
      "  \"serial\": {\"seconds\": %.3f, \"months_per_sec\": %.3f},\n"
      "  \"threaded\": {\"seconds\": %.3f, \"months_per_sec\": %.3f},\n"
      "  \"speedup\": %.3f,\n"
      "  \"digest\": \"%016llx\",\n"
      "  \"digests_match\": %s,\n"
      "  \"fleet_hour_aborts\": %zu,\n"
      "  \"degraded_chunks\": %zu,\n"
      "  \"quarantined_chunks\": %zu,\n"
      "  \"region_down_chunks\": %zu,\n"
      "  \"failure_tally\": {\"node_limit\": %zu, \"time_limit\": %zu,"
      " \"infeasible\": %zu, \"arena_exhausted\": %zu, \"thrown\": %zu}\n"
      "}\n",
      kSites, fleet.regions.size(), months, hours, threads,
      std::thread::hardware_concurrency(), shard_name.c_str(), serial.seconds,
      serial_rate, threaded.seconds, threaded_rate, speedup,
      static_cast<unsigned long long>(serial.digest),
      digests_match ? "true" : "false", serial.aborts + threaded.aborts,
      serial.degraded_chunks, serial.quarantined_chunks,
      serial.region_down_chunks,
      serial.tally[static_cast<std::size_t>(core::FailureReason::kNodeLimit)],
      serial.tally[static_cast<std::size_t>(core::FailureReason::kTimeLimit)],
      serial.tally[static_cast<std::size_t>(core::FailureReason::kInfeasible)],
      serial.tally[static_cast<std::size_t>(
          core::FailureReason::kArenaExhausted)],
      serial.tally[static_cast<std::size_t>(core::FailureReason::kThrown)]);
  out << buf;
  out.close();
  std::printf("[data] %s\n", std::filesystem::absolute(path).string().c_str());

  if (serial.aborts + threaded.aborts > 0) {
    std::fprintf(stderr, "fleet_sweep: FAIL — %zu fleet-hour aborts\n",
                 serial.aborts + threaded.aborts);
    return core::kExitRuntimeError;
  }
  if (!digests_match) {
    std::fprintf(stderr,
                 "fleet_sweep: FAIL — serial and threaded digests differ\n");
    return core::kExitRuntimeError;
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "fleet_sweep: FAIL — speedup %.2fx below %.2fx\n",
                 speedup, min_speedup);
    return core::kExitRuntimeError;
  }
  return core::kExitSuccess;
}
