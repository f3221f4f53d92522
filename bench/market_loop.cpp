// Market loop sweep — the closed-loop coupler's stability envelope.
//
// Runs the evaluation month with the price-load feedback loop closed, over
// a grid of feedback gains x damping policies, and asserts the coupler's
// safety contract:
//
//   1. the destabilizing configuration (high gain, no damping) actually
//      destabilizes — oscillating hours are detected, the divergence
//      breaker opens (open-loop fallback hours appear) — and yet premium
//      QoS is never violated (the fallback plans on the static curves);
//   2. the damped configuration (paper gain, full ladder) converges within
//      the iteration cap on EVERY hour of the month — no oscillation, no
//      divergence, no fallback;
//   3. the damped month is deterministic: two runs produce bitwise
//      identical hour series (FNV digest over every hour's cost, dispatch
//      and coupler trajectory).
//
// Results land in BENCH_market.json next to the binary (archived at the
// repo root by tools/ci.sh). Flags: --gains a,b,c --dampings off,ladder,full
// to reshape the sweep, --smoke for the contract-only ctest configuration
// (the three configurations the gates need, nothing more). Any other flag
// is a usage error (exit 2).

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
#include <vector>

#include "core/exit_codes.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fnv1a.hpp"
#include "util/table.hpp"

namespace {

using namespace billcap;

/// Bitwise digest of the month's full decision trajectory: any
/// nondeterminism in the coupler (iteration order, curve derivation,
/// breaker clock) shows up as a digest mismatch between identical runs.
std::uint64_t month_digest(const core::MonthlyResult& result) {
  util::Fnv1a d;
  for (const core::HourRecord& h : result.hours) {
    d.mix_double(h.cost);
    d.mix_double(h.predicted_cost);
    for (const double l : h.site_lambda) d.mix_double(l);
    d.mix_u64(h.coupler_iterations);
    d.mix_bool(h.coupler_converged);
    d.mix_bool(h.coupler_fallback);
    d.mix_u64(h.coupler_rung);
    d.mix_u64(static_cast<std::uint64_t>(h.failure));
  }
  return d.hash;
}

struct ConfigResult {
  double gain = 0.0;
  core::DampingMode damping = core::DampingMode::kLadder;
  std::size_t hours = 0;
  std::size_t closed_loop_hours = 0;
  std::size_t fallback_hours = 0;
  std::size_t oscillation_hours = 0;
  std::size_t diverged_hours = 0;
  std::size_t iterations = 0;
  std::size_t max_hour_iterations = 0;
  double premium_throughput = 0.0;
  double total_cost = 0.0;
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

ConfigResult run_config(double gain, core::DampingMode damping) {
  core::SimulationConfig config;
  config.market_coupler.enabled = true;
  config.market_coupler.loop.feedback_gain = gain;
  config.market_coupler.damping = damping;

  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
  const auto start = std::chrono::steady_clock::now();
  const core::MonthlyResult result =
      core::Simulator(config).run(core::Strategy::kCostCapping);

  ConfigResult r;
  r.gain = gain;
  r.damping = damping;
  r.hours = result.hours.size();
  r.closed_loop_hours = result.closed_loop_hours;
  r.fallback_hours = result.coupler_fallback_hours;
  r.oscillation_hours = result.failure_tally[static_cast<std::size_t>(
      core::FailureReason::kPriceOscillation)];
  r.diverged_hours = result.failure_tally[static_cast<std::size_t>(
      core::FailureReason::kCouplerDiverged)];
  r.iterations = result.coupler_iterations;
  for (const core::HourRecord& h : result.hours)
    r.max_hour_iterations = std::max(r.max_hour_iterations,
                                     h.coupler_iterations);
  r.premium_throughput = result.premium_throughput_ratio();
  r.total_cost = result.total_cost;
  r.digest = month_digest(result);
  r.seconds = std::chrono::duration<double>(
                  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
                  std::chrono::steady_clock::now() - start)
                  .count();
  return r;
}

core::DampingMode damping_from(const std::string& name) {
  if (name == "off") return core::DampingMode::kOff;
  if (name == "ladder") return core::DampingMode::kLadder;
  if (name == "full") return core::DampingMode::kFull;
  throw std::runtime_error("--dampings: unknown mode '" + name +
                           "' (off|ladder|full)");
}

constexpr std::string_view kFlags[] = {"smoke", "gains", "dampings"};

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  std::vector<double> gains;
  std::vector<core::DampingMode> dampings;
  bool smoke = false;
  try {
    args.require_known({kFlags});
    smoke = args.get_bool("smoke");
    gains = args.get_double_list("gains", {1.0, 2.5, 4.0});
    const std::string damping_csv = args.get("dampings", "off,ladder,full");
    for (std::size_t pos = 0; pos <= damping_csv.size();) {
      const std::size_t comma = damping_csv.find(',', pos);
      const std::size_t end =
          comma == std::string::npos ? damping_csv.size() : comma;
      if (end > pos)
        dampings.push_back(damping_from(damping_csv.substr(pos, end - pos)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "market_loop: %s\n", e.what());
    return core::kExitUsage;
  }

  // The two configurations the contract gates on, plus (full sweep only)
  // every other point of the grid.
  constexpr double kPaperGain = 1.0;
  constexpr double kHighGain = 4.0;
  std::vector<std::pair<double, core::DampingMode>> grid;
  if (smoke) {
    grid = {{kHighGain, core::DampingMode::kOff},
            {kPaperGain, core::DampingMode::kFull},
            {kPaperGain, core::DampingMode::kLadder}};
  } else {
    for (const double g : gains)
      for (const core::DampingMode d : dampings) grid.emplace_back(g, d);
    // The contract's corner points ride along even if the user reshaped
    // the sweep away from them.
    for (const auto& corner :
         {std::pair{kHighGain, core::DampingMode::kOff},
          std::pair{kPaperGain, core::DampingMode::kFull}})
      if (std::find(grid.begin(), grid.end(), corner) == grid.end())
        grid.push_back(corner);
  }

  std::printf("market_loop: %zu configurations x 1 month, closed loop\n",
              grid.size());

  std::vector<ConfigResult> results;
  results.reserve(grid.size());
  for (const auto& [gain, damping] : grid)
    results.push_back(run_config(gain, damping));

  util::Table table({"gain", "damping", "closed", "fallback", "oscill",
                     "diverged", "iters", "max/h", "premium", "seconds"});
  for (const ConfigResult& r : results) {
    char g_s[32], cl_s[32], fb_s[32], os_s[32], dv_s[32], it_s[32], mx_s[32],
        pr_s[32], sec_s[32];
    std::snprintf(g_s, sizeof g_s, "%.1f", r.gain);
    std::snprintf(cl_s, sizeof cl_s, "%zu/%zu", r.closed_loop_hours, r.hours);
    std::snprintf(fb_s, sizeof fb_s, "%zu", r.fallback_hours);
    std::snprintf(os_s, sizeof os_s, "%zu", r.oscillation_hours);
    std::snprintf(dv_s, sizeof dv_s, "%zu", r.diverged_hours);
    std::snprintf(it_s, sizeof it_s, "%zu", r.iterations);
    std::snprintf(mx_s, sizeof mx_s, "%zu", r.max_hour_iterations);
    std::snprintf(pr_s, sizeof pr_s, "%.4f", r.premium_throughput);
    std::snprintf(sec_s, sizeof sec_s, "%.2f", r.seconds);
    table.add_row({g_s, core::to_string(r.damping), cl_s, fb_s, os_s, dv_s,
                   it_s, mx_s, pr_s, sec_s});
  }
  table.print(std::cout);

  const auto find = [&](double gain,
                        core::DampingMode damping) -> const ConfigResult* {
    for (const ConfigResult& r : results)
      if (r.gain == gain && r.damping == damping) return &r;
    return nullptr;
  };
  const ConfigResult* destab = find(kHighGain, core::DampingMode::kOff);
  const ConfigResult* damped = find(kPaperGain, core::DampingMode::kFull);

  std::vector<std::string> failures;
  if (destab == nullptr || damped == nullptr) {
    failures.push_back("contract corner configurations missing from sweep");
  } else {
    // Gate 1: high gain undamped destabilizes, the machinery catches it,
    // and the premium guarantee survives the whole episode.
    if (destab->oscillation_hours == 0)
      failures.push_back("destabilizing config: no oscillation detected");
    if (destab->fallback_hours == 0)
      failures.push_back(
          "destabilizing config: breaker never opened (no fallback hours)");
    if (destab->premium_throughput < 1.0 - 1e-9)
      failures.push_back("destabilizing config: premium QoS violated");
    // Gate 2: the damped paper-gain loop converges within the cap on every
    // single hour of the month.
    if (damped->closed_loop_hours != damped->hours ||
        damped->oscillation_hours != 0 || damped->diverged_hours != 0 ||
        damped->fallback_hours != 0)
      failures.push_back("damped config: not every hour converged closed-loop");
    if (damped->premium_throughput < 1.0 - 1e-9)
      failures.push_back("damped config: premium QoS violated");
    // Gate 3: the damped month is deterministic run-to-run.
    const ConfigResult rerun =
        run_config(kPaperGain, core::DampingMode::kFull);
    if (rerun.digest != damped->digest)
      failures.push_back("damped config: rerun digest mismatch");
  }

  const std::string path = "BENCH_market.json";
  // billcap-lint: allow(raw-write): bench artifact, regenerated every run; no resume path reads it
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "market_loop: cannot write %s\n", path.c_str());
    return core::kExitRuntimeError;
  }
  out << "{\n  \"bench\": \"market_loop\",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"gain\": %.2f, \"damping\": \"%s\", \"hours\": %zu,"
        " \"closed_loop_hours\": %zu, \"fallback_hours\": %zu,"
        " \"oscillation_hours\": %zu, \"diverged_hours\": %zu,"
        " \"iterations\": %zu, \"max_hour_iterations\": %zu,"
        " \"premium_throughput\": %.6f, \"total_cost\": %.2f,"
        " \"seconds\": %.3f, \"digest\": \"%016llx\"}%s\n",
        r.gain, core::to_string(r.damping), r.hours, r.closed_loop_hours,
        r.fallback_hours, r.oscillation_hours, r.diverged_hours, r.iterations,
        r.max_hour_iterations, r.premium_throughput, r.total_cost, r.seconds,
        static_cast<unsigned long long>(r.digest),
        i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"contract_ok\": " << (failures.empty() ? "true" : "false")
      << ",\n  \"contract_failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    out << (i > 0 ? ", " : "") << '"' << failures[i] << '"';
  out << "]\n}\n";
  out.close();
  std::printf("[data] %s\n", std::filesystem::absolute(path).string().c_str());

  if (!failures.empty()) {
    for (const std::string& f : failures)
      std::fprintf(stderr, "market_loop: FAIL — %s\n", f.c_str());
    return core::kExitRuntimeError;
  }
  std::printf("market_loop: contract OK (oscillation caught, breaker "
              "fallback engaged, damped loop converged every hour, "
              "deterministic)\n");
  return core::kExitSuccess;
}
