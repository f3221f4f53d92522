// Section IV-C claim — "for a large system with 3 data centers and 5
// different pricing levels, lp_solve consumes at most 2 millisecond in an
// invocation period ... to determine the optimal workload allocations with
// up to 1e8 requests."
//
// Two parts. The custom main first runs the solver-engine comparison — a
// month of hourly min-cost MILPs on exactly that problem shape, solved by
// the legacy reference engine (from the test oracle library in
// tests/oracle/), by the arena (a fresh ArenaSolver per hour) and by the
// segment allocator the controller runs for step 1
// (core::allocate_min_cost, exact without an LP) — verifies all three
// agree on every objective, and drops the numbers with the host they were
// taken on as BENCH_solver.json (archived by tools/ci.sh). The
// branch-and-bound rows are the ones faithful to the paper's lp_solve.
// Then the google-benchmark micro benches below time the production entry
// points across workload magnitudes; pass --benchmark_filter=^$ to skip
// them.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/bill_capper.hpp"
#include "core/cost_minimizer.hpp"
#include "core/formulation.hpp"
#include "core/segment_allocator.hpp"
#include "core/throughput_maximizer.hpp"
#include "datacenter/catalog.hpp"
#include "lp/arena_solver.hpp"
#include "lp/milp.hpp"
#include "market/pricing_policy.hpp"
#include "oracle/milp_reference.hpp"

namespace {

using namespace billcap;

struct Fixture {
  std::vector<datacenter::DataCenter> sites =
      datacenter::paper_datacenters();
  std::vector<market::PricingPolicy> policies = market::paper_policies(1);
  std::vector<double> demand = {228.0, 182.0, 172.0};
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// ---- BENCH_solver.json: engine comparison ----------------------------------

/// The hourly min-cost MILP at a given total arrival rate — the same
/// formulation BillCapper's step 1 solves every invocation period.
lp::Problem min_cost_problem(const std::vector<core::SiteModel>& models,
                             double lambda_total) {
  core::AllocationFormulation f = core::build_allocation_formulation(models);
  f.problem.set_sense(lp::Sense::kMinimize);
  std::vector<lp::Term> terms;
  terms.reserve(f.vars.size());
  for (const core::SiteVars& v : f.vars) terms.push_back({v.lambda, 1.0});
  f.problem.add_constraint("demand", std::move(terms), lp::Relation::kEqual,
                           lambda_total / core::kLambdaScale);
  return f.problem;
}

// billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
double microseconds_since(std::chrono::steady_clock::time_point start) {
  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(now - start).count();
}

/// Runs the month-long engine comparison and writes BENCH_solver.json into
/// the working directory. Returns false (and reports) when any engine
/// disagrees with the reference — the benchmark numbers are only worth
/// publishing at equal objectives.
bool write_solver_bench_json() {
  bench::heading("solver engines: reference vs arena vs allocator");
  const Fixture& f = fixture();
  std::vector<core::SiteModel> models;
  models.reserve(f.sites.size());
  for (std::size_t i = 0; i < f.sites.size(); ++i)
    models.push_back(
        core::make_site_model(f.sites[i], f.policies[i], f.demand[i]));

  // A month of hourly problems on a diurnal arrival curve, built up front
  // so problem construction never pollutes the solve timings.
  constexpr int kHours = 720;
  std::vector<double> lambdas;
  std::vector<lp::Problem> problems;
  lambdas.reserve(kHours);
  problems.reserve(kHours);
  for (int h = 0; h < kHours; ++h) {
    lambdas.push_back(5e11 + 3.5e11 * std::sin(2.0 * 3.14159265358979323846 *
                                               h / 24.0));
    problems.push_back(min_cost_problem(models, lambdas.back()));
  }

  std::vector<double> ref_obj(kHours, 0.0);
  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
  const auto t_ref = std::chrono::steady_clock::now();
  for (int h = 0; h < kHours; ++h) {
    const lp::Solution s = lp::solve_milp_reference(problems[h]);
    if (s.status != lp::SolveStatus::kOptimal) {
      std::fprintf(stderr, "reference engine: hour %d not optimal (%s)\n", h,
                   lp::to_string(s.status));
      return false;
    }
    ref_obj[static_cast<std::size_t>(h)] = s.objective;
  }
  const double ref_us = microseconds_since(t_ref) / kHours;

  double max_rel_diff = 0.0;
  const auto check = [&](int h, const lp::Solution& s, const char* engine) {
    if (s.status != lp::SolveStatus::kOptimal) {
      std::fprintf(stderr, "%s: hour %d not optimal (%s)\n", engine, h,
                   lp::to_string(s.status));
      return false;
    }
    const double want = ref_obj[static_cast<std::size_t>(h)];
    const double scale = std::max(1.0, std::abs(want));
    const double diff = std::abs(s.objective - want) / scale;
    max_rel_diff = std::max(max_rel_diff, diff);
    if (diff > 1e-9) {
      std::fprintf(stderr, "%s: hour %d objective diverges (%.12g vs %.12g)\n",
                   engine, h, s.objective, want);
      return false;
    }
    return true;
  };

  lp::ArenaStats cold_stats;
  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
  const auto t_cold = std::chrono::steady_clock::now();
  for (int h = 0; h < kHours; ++h) {
    lp::ArenaSolver solver;  // fresh arena: pure cold path
    if (!check(h, solver.solve(problems[h]), "arena cold")) return false;
    const lp::ArenaStats& s = solver.stats();
    cold_stats.primal_iterations += s.primal_iterations;
    cold_stats.dual_iterations += s.dual_iterations;
    cold_stats.nodes_explored += s.nodes_explored;
  }
  const double cold_us = microseconds_since(t_cold) / kHours;

  // The segment allocator on the same hours, checked like an engine.
  long allocator_nodes = 0;
  // billcap-lint: allow(wall-clock): bench harness measures real solver latency, not simulated time
  const auto t_alloc = std::chrono::steady_clock::now();
  for (int h = 0; h < kHours; ++h) {
    const core::AllocationResult r =
        core::allocate_min_cost(models, lambdas[static_cast<std::size_t>(h)]);
    lp::Solution s;
    s.status = r.status;
    s.objective = r.predicted_cost;
    if (!check(h, s, "segment allocator")) return false;
    allocator_nodes += r.nodes;
  }
  const double alloc_us = microseconds_since(t_alloc) / kHours;

  util::Table table({"engine", "us/solve", "pivots/solve", "nodes/solve"});
  const auto row = [&](const char* name, double us, long pivots, long nodes) {
    char us_s[32], piv_s[32], nod_s[32];
    std::snprintf(us_s, sizeof us_s, "%.1f", us);
    std::snprintf(piv_s, sizeof piv_s, "%.1f",
                  static_cast<double>(pivots) / kHours);
    std::snprintf(nod_s, sizeof nod_s, "%.1f",
                  static_cast<double>(nodes) / kHours);
    table.add_row({name, us_s, piv_s, nod_s});
  };
  row("cold (legacy, from scratch)", ref_us, 0, 0);
  row("arena cold", cold_us,
      cold_stats.primal_iterations + cold_stats.dual_iterations,
      cold_stats.nodes_explored);
  row("segment allocator (controller)", alloc_us, 0, allocator_nodes);
  table.print(std::cout);
  std::printf("arena cold vs cold (from-scratch): %.1fx  allocator vs "
              "arena cold: %.1fx  max |obj diff|: %.3g\n",
              ref_us / cold_us, cold_us / alloc_us, max_rel_diff);

  const std::string path = "BENCH_solver.json";
  // billcap-lint: allow(raw-write): bench artifact, regenerated every run; no resume path reads it
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"bench\": \"tab_solver_time\",\n"
      "  \"host\": %s,\n"
      "  \"shape\": {\"sites\": %zu, \"price_levels\": 5, \"hours\": %d},\n"
      "  \"cold\": {\"engine\": \"legacy two-phase from scratch per node\","
      " \"us_per_solve\": %.3f},\n"
      "  \"arena_cold\": {\"engine\": \"arena + dual warm-started children,"
      " fresh per hour\", \"us_per_solve\": %.3f, \"pivots_per_solve\": %.3f,"
      " \"nodes_per_solve\": %.3f},\n"
      "  \"allocator\": {\"engine\": \"exact segment enumeration, no LP\","
      " \"us_per_solve\": %.3f, \"nodes_per_solve\": %.3f},\n"
      "  \"speedup_allocator_vs_arena_cold\": %.3f,\n"
      "  \"max_objective_rel_diff\": %.3g\n"
      "}\n",
      bench::host_json().c_str(), f.sites.size(), kHours, ref_us, cold_us,
      static_cast<double>(cold_stats.primal_iterations +
                          cold_stats.dual_iterations) /
          kHours,
      static_cast<double>(cold_stats.nodes_explored) / kHours, alloc_us,
      static_cast<double>(allocator_nodes) / kHours, cold_us / alloc_us,
      max_rel_diff);
  out << buf;
  out.close();
  std::printf("[data] %s\n", std::filesystem::absolute(path).string().c_str());
  return true;
}

// ---- google-benchmark micro benches ----------------------------------------

void BM_CostMinimization(benchmark::State& state) {
  const Fixture& f = fixture();
  const double lambda = static_cast<double>(state.range(0)) * 1e9;
  for (auto _ : state) {
    const core::AllocationResult r =
        core::minimize_cost(f.sites, f.policies, f.demand, lambda);
    benchmark::DoNotOptimize(r.predicted_cost);
  }
}
BENCHMARK(BM_CostMinimization)->Arg(1)->Arg(100)->Arg(600)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_ThroughputMaximization(benchmark::State& state) {
  const Fixture& f = fixture();
  const double lambda = static_cast<double>(state.range(0)) * 1e9;
  for (auto _ : state) {
    const core::AllocationResult r = core::maximize_throughput(
        f.sites, f.policies, f.demand, lambda, /*cost_budget=*/1200.0);
    benchmark::DoNotOptimize(r.total_lambda);
  }
}
BENCHMARK(BM_ThroughputMaximization)->Arg(600)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_BillCapperDecide(benchmark::State& state) {
  const Fixture& f = fixture();
  const core::BillCapper capper(f.sites, f.policies);
  const double budget = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const core::CappingOutcome outcome =
        capper.decide(8e11, 2e11, f.demand, budget);
    benchmark::DoNotOptimize(outcome.served_ordinary);
  }
}
// Ample budget = step 1 only; tight = both steps; punishing = all three
// solves (min, max-throughput, premium-only min).
BENCHMARK(BM_BillCapperDecide)->Arg(10'000)->Arg(1'500)->Arg(300)
    ->Unit(benchmark::kMillisecond);

void BM_MoreSitesScaling(benchmark::State& state) {
  // Complexity is exponential in the binaries (sites x price levels);
  // replicate the catalog to grow the instance.
  const auto base = datacenter::paper_datacenters();
  const auto base_policies = market::paper_policies(1);
  std::vector<datacenter::DataCenter> sites;
  std::vector<market::PricingPolicy> policies;
  std::vector<double> demand;
  const int replicas = static_cast<int>(state.range(0));
  for (int rep = 0; rep < replicas; ++rep) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      sites.push_back(base[i]);
      policies.push_back(base_policies[i]);
      demand.push_back(170.0 + 20.0 * static_cast<double>(rep));
    }
  }
  const double lambda = 4e11 * replicas;
  for (auto _ : state) {
    const core::AllocationResult r =
        core::minimize_cost(sites, policies, demand, lambda);
    benchmark::DoNotOptimize(r.predicted_cost);
  }
  state.counters["sites"] = static_cast<double>(sites.size());
}
BENCHMARK(BM_MoreSitesScaling)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (!write_solver_bench_json()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
