// Micro-benchmarks of the substrates: simplex/MILP kernels, the DC-OPF,
// queueing-based server sizing, power models and trace generation. These
// are the per-call costs underneath every figure bench.

#include <benchmark/benchmark.h>

#include <vector>

#include "datacenter/catalog.hpp"
#include "lp/milp.hpp"
#include "lp/piecewise.hpp"
#include "market/dcopf.hpp"
#include "market/pjm5.hpp"
#include "market/pricing_policy.hpp"
#include "queueing/ggm.hpp"
#include "queueing/mmm.hpp"
#include "util/rng.hpp"
#include "workload/wiki_synth.hpp"

namespace {

using namespace billcap;

void BM_SimplexDense(benchmark::State& state) {
  // Random dense feasible LP with n variables and n constraints.
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(42);
  lp::Problem p;
  for (int j = 0; j < n; ++j)
    p.add_variable("x" + std::to_string(j), 0.0, 10.0,
                   rng.uniform(-1.0, 1.0));
  for (int i = 0; i < n; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, rng.uniform(0.0, 1.0)});
    p.add_constraint("r" + std::to_string(i), std::move(terms),
                     lp::Relation::kLessEqual, rng.uniform(5.0, 50.0));
  }
  // The shipped engine on a pure LP: solve_milp runs a fresh ArenaSolver,
  // which solves a problem without integer marks at the root.
  for (auto _ : state) {
    const lp::Solution s = lp::solve_milp(p);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(10)->Arg(40)->Arg(80)
    ->Unit(benchmark::kMicrosecond);

void BM_MilpKnapsack(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  util::Rng rng(7);
  lp::Problem p;
  p.set_sense(lp::Sense::kMaximize);
  std::vector<lp::Term> terms;
  for (int j = 0; j < bits; ++j) {
    const int z = p.add_binary("z" + std::to_string(j), rng.uniform(1.0, 9.0));
    terms.push_back({z, rng.uniform(1.0, 5.0)});
  }
  p.add_constraint("cap", std::move(terms), lp::Relation::kLessEqual,
                   static_cast<double>(bits));
  for (auto _ : state) {
    const lp::Solution s = lp::solve_milp(p);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(10)->Arg(16)->Arg(22)
    ->Unit(benchmark::kMicrosecond);

void BM_DcOpfPjm5(benchmark::State& state) {
  const market::Grid grid = market::pjm5_grid();
  const auto loads = market::pjm5_loads(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    const market::DcOpfResult r = market::solve_dcopf(grid, loads);
    benchmark::DoNotOptimize(r.total_cost);
  }
}
BENCHMARK(BM_DcOpfPjm5)->Arg(300)->Arg(900)->Unit(benchmark::kMicrosecond);

void BM_ServerSizing(benchmark::State& state) {
  const queueing::GgmParams params{1.8e6, 1.0, 1.0};
  double lambda = 1e9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queueing::min_servers_for_response_time(params, lambda, 2.0 / 1.8e6));
    lambda += 1.0;  // defeat caching
  }
}
BENCHMARK(BM_ServerSizing);

void BM_ErlangCLargeM(benchmark::State& state) {
  const auto m = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queueing::erlang_c(m, 0.8 * static_cast<double>(m), 1.0));
  }
}
BENCHMARK(BM_ErlangCLargeM)->Arg(1'000)->Arg(100'000)->Arg(300'000)
    ->Unit(benchmark::kMicrosecond);

void BM_SitePowerBreakdown(benchmark::State& state) {
  const auto sites = datacenter::paper_datacenters();
  double lambda = 3e11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sites[0].power_breakdown(lambda));
    lambda += 1.0;
  }
}
BENCHMARK(BM_SitePowerBreakdown);

void BM_PiecewiseEncode(benchmark::State& state) {
  const auto policies = market::paper_policies(1);
  for (auto _ : state) {
    lp::Problem p;
    const lp::PiecewiseVars vars = lp::add_piecewise_cost(
        p, policies[0].dc_cost_curve(200.0, 42.0), "c");
    benchmark::DoNotOptimize(vars.x);
  }
}
BENCHMARK(BM_PiecewiseEncode)->Unit(benchmark::kMicrosecond);

void BM_WikiTraceMonth(benchmark::State& state) {
  const workload::WikiSynthParams params;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const workload::Trace t = workload::generate_wiki_trace(params, 720, seed++);
    benchmark::DoNotOptimize(t.total());
  }
}
BENCHMARK(BM_WikiTraceMonth)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
