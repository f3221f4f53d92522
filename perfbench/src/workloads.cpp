#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/cost_minimizer.hpp"
#include "core/cost_model.hpp"
#include "core/formulation.hpp"
#include "core/market_coupler.hpp"
#include "core/simulator.hpp"
#include "market/closed_loop.hpp"
#include "serve/serve_loop.hpp"
#include "stats.hpp"
#include "util/calendar.hpp"
#include "workload/predictor.hpp"
#include "workload/trace.hpp"
#include "workload/wiki_synth.hpp"

namespace perfbench {
namespace {

using namespace billcap;
namespace fs = std::filesystem;

// Set-ups before the first batch and before every further one: one is well
// under a millisecond, and spreading them over the run samples the host's
// quiet moments the way BestTimes does for the batches.
constexpr int kSetupReps = 10;
// Resumes from the durable month's final checkpoint per batch.
constexpr int kResumesPerBatch = 9;
// A p99 needs ten samples beyond it.
constexpr std::size_t kMinIntervalSamples = 1000;
constexpr double kExact = 1e-9;

// The coupled bills are pinned loosely: the local step curves come from a
// 2 MW own-draw sweep, and exact LMP breakpoints (ranging) would move
// thresholds by up to one sweep step. Re-deriving with 1 MW and 0.5 MW
// sweeps moved the month's bill by -0.15 % / +0.13 % (seed 2012) and
// -0.32 % / +0.08 % (seed 7), and the first week's by +0.51 % / +0.88 % and
// +0.02 % / +1.26 %. The tolerances keep twice to three times that margin
// and still catch a wrong controller: the default damping ladder bills
// 3.5 % more over the month (5.5 % over the week), planning on the static
// curves 11.7 % (22.8 %) more.
constexpr double kCoupledMonthTol = 0.01;
constexpr double kCoupledWeekTol = 0.03;
// The coupled month takes ~7 s, so a 30 s run would time each hour only
// three or four times; the untraced batches replay its first week instead
// (~19 times), the traced run and its checks the whole month.
constexpr std::size_t kCoupledTimedHours = 168;

// ---------------------------------------------------------------- pins

struct Pin {
  const char* workload;
  std::uint64_t seed;
  const char* name;
  double value;
  double rel_tol;
};

// Outputs at the default and the held-out seed, checked by every run at
// those seeds. Only decisions and bills are pinned: work counters (pivots,
// nodes, checkpoint bytes) are what an optimization changes, so they are
// checked to repeat within a run instead.
const std::vector<Pin> kPins = {
    {"open_stringent", 2012, "capped_hours", 591, kExact},
    {"open_stringent", 2012, "cost", 1017656.00286961, kExact},
    {"open_stringent", 2012, "served_ordinary", 52918807643779.781, kExact},
    {"open_stringent", 2012, "served_premium", 700624434990327.25, kExact},
    {"coupled_month", 2012, "cost", 1577618.5360728069, kCoupledMonthTol},
    {"coupled_month", 2012, "week_cost", 372326.72360443091, kCoupledWeekTol},
    {"durable_month", 2012, "capped_hours", 169, kExact},
    {"durable_month", 2012, "cost", 1382479.1386369953, kExact},
    {"durable_month", 2012, "served_ordinary", 158789431387015.31, kExact},
    {"durable_month", 2012, "served_premium", 700624434990327.25, kExact},
    {"serve_durable", 2012, "cost", 1448358.4202721245, kExact},
    {"serve_durable", 2012, "health_transitions", 90, kExact},
    {"serve_durable", 2012, "replans", 1678, kExact},
    {"serve_durable", 2012, "served_ordinary", 158483335956834.56, kExact},
    {"serve_durable", 2012, "served_premium", 700624434990330.88, kExact},
    {"serve_durable", 2012, "shed_ticks", 1680, kExact},
    {"open_stringent", 7, "capped_hours", 600, kExact},
    {"open_stringent", 7, "cost", 1020220.9706028618, kExact},
    {"open_stringent", 7, "served_ordinary", 52217821369431.109, kExact},
    {"open_stringent", 7, "served_premium", 700604442106652.88, kExact},
    {"coupled_month", 7, "cost", 1581737.6281706784, kCoupledMonthTol},
    {"coupled_month", 7, "week_cost", 368642.17071817984, kCoupledWeekTol},
    {"durable_month", 7, "capped_hours", 167, kExact},
    {"durable_month", 7, "cost", 1389992.5116020953, kExact},
    {"durable_month", 7, "served_ordinary", 158045922670870.41, kExact},
    {"durable_month", 7, "served_premium", 700604442106652.88, kExact},
    {"serve_durable", 7, "cost", 1452495.453599565, kExact},
    {"serve_durable", 7, "health_transitions", 90, kExact},
    {"serve_durable", 7, "replans", 1725, kExact},
    {"serve_durable", 7, "served_ordinary", 157205713269443.5, kExact},
    {"serve_durable", 7, "served_premium", 700604442106652.25, kExact},
    {"serve_durable", 7, "shed_ticks", 1641, kExact},
};

using Observed = std::map<std::string, double>;

class Checker {
 public:
  explicit Checker(RunResult& result) : result_(result) {}

  void require(bool ok, const std::string& what) {
    if (ok) return;
    result_.correct = false;
    result_.errors.push_back(what);
  }

  void near(double got, double want, double rel_tol, const std::string& what) {
    const bool ok =
        got == want || std::abs(got - want) <= rel_tol * std::abs(want);
    char buf[160];
    std::snprintf(buf, sizeof buf, ": got %.17g, want %.17g (rel tol %g)",
                  got, want, rel_tol);
    require(ok, what + buf);
  }

  void pins(const std::string& workload, std::uint64_t seed,
            const Observed& observed) {
    std::string line;
    for (const auto& [name, value] : observed) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s=%.17g", name.c_str(), value);
      line += buf;
    }
    std::fprintf(stderr, "perfbench: outputs%s\n", line.c_str());
    for (const Pin& pin : kPins) {
      if (workload != pin.workload || seed != pin.seed) continue;
      const auto it = observed.find(pin.name);
      if (it == observed.end()) continue;
      near(it->second, pin.value, pin.rel_tol,
           workload + " pinned " + pin.name);
    }
  }

 private:
  RunResult& result_;
};

// ---------------------------------------------------------------- helpers

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv(std::uint64_t hash, double value) {
  return fnv(hash, std::bit_cast<std::uint64_t>(value));
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Bitwise digest of a month's decisions and bills (timing fields excluded).
std::uint64_t month_digest(const core::MonthlyResult& month) {
  std::uint64_t h = kFnvBasis;
  for (const core::HourRecord& r : month.hours) {
    h = fnv(h, r.cost);
    h = fnv(h, r.served_premium);
    h = fnv(h, r.served_ordinary);
    for (const double l : r.site_lambda) h = fnv(h, l);
    h = fnv(h, static_cast<std::uint64_t>(r.mode));
    h = fnv(h, static_cast<std::uint64_t>(r.nodes));
    h = fnv(h, static_cast<std::uint64_t>(r.failure));
    h = fnv(h, static_cast<std::uint64_t>(r.coupler_iterations));
  }
  return h;
}

/// Bitwise digest of a serve run's aggregates.
std::uint64_t report_digest(const serve::ServeReport& r) {
  std::uint64_t h = kFnvBasis;
  for (const double v :
       {r.total_premium_arrivals, r.total_ordinary_arrivals,
        r.total_served_premium, r.total_served_ordinary, r.dropped_premium,
        r.dropped_ordinary, r.total_cost, r.max_premium_depth,
        r.max_ordinary_depth, r.final_premium_depth, r.final_ordinary_depth})
    h = fnv(h, v);
  for (const std::size_t v :
       {r.ticks_committed, r.feed_updates_seen, r.feed_updates_dropped,
        r.replans, r.degraded_replans, r.breaker_trips, r.shed_ticks,
        r.standby_ticks, r.degraded_ticks, r.health_transitions})
    h = fnv(h, static_cast<std::uint64_t>(v));
  return h;
}

/// An hour fails when the controller degraded it or dropped premium work.
bool hour_failed(bool degraded, core::FailureReason failure, double premium,
                 double served_premium) {
  return degraded || failure != core::FailureReason::kNone ||
         served_premium < premium * (1.0 - kExact);
}

bool hour_failed(const core::HourRecord& r) {
  return hour_failed(r.degraded, r.failure, r.premium_arrivals,
                     r.served_premium);
}

bool tick_failed(const serve::TickRecord& t) {
  return t.replan_degraded || t.dropped_premium > 0.0;
}

/// Month totals the output check compares.
struct Totals {
  double cost = 0.0;
  double premium_arrivals = 0.0;
  double served_premium = 0.0;
  double served_ordinary = 0.0;
  long hours = 0;
  long capped_hours = 0;
  long failed_hours = 0;
  long nodes = 0;

  void add(double hour_cost, double premium, const core::CappingOutcome& o,
           bool failed) {
    cost += hour_cost;
    premium_arrivals += premium;
    served_premium += o.served_premium;
    served_ordinary += o.served_ordinary;
    ++hours;
    capped_hours += o.mode != core::CappingOutcome::Mode::kUncapped ? 1 : 0;
    failed_hours += failed ? 1 : 0;
    nodes += o.allocation.nodes;
  }
};

Totals totals_of(const core::MonthlyResult& month) {
  Totals t;
  for (const core::HourRecord& r : month.hours) {
    t.cost += r.cost;
    t.premium_arrivals += r.premium_arrivals;
    t.served_premium += r.served_premium;
    t.served_ordinary += r.served_ordinary;
    ++t.hours;
    t.capped_hours +=
        r.mode != core::CappingOutcome::Mode::kUncapped ? 1 : 0;
    t.failed_hours += hour_failed(r) ? 1 : 0;
    t.nodes += r.nodes;
  }
  return t;
}

void observe(Observed& obs, const Totals& t) {
  obs["cost"] = t.cost;
  obs["served_premium"] = t.served_premium;
  obs["served_ordinary"] = t.served_ordinary;
  obs["capped_hours"] = static_cast<double>(t.capped_hours);
}

/// Bitwise digest of month totals (repeated batches must agree).
std::uint64_t totals_digest(const Totals& t) {
  std::uint64_t h = kFnvBasis;
  for (const double v : {t.cost, t.served_premium, t.served_ordinary})
    h = fnv(h, v);
  for (const long v : {t.hours, t.capped_hours, t.failed_hours, t.nodes})
    h = fnv(h, static_cast<std::uint64_t>(v));
  return h;
}

/// The traced replay must be the same program: same bill and service.
void check_same_totals(Checker& chk, const Totals& got, const Totals& want,
                       const std::string& what) {
  chk.near(got.cost, want.cost, kExact, what + " monthly cost");
  chk.near(got.served_premium, want.served_premium, kExact,
           what + " served premium");
  chk.near(got.served_ordinary, want.served_ordinary, kExact,
           what + " served ordinary");
  chk.require(got.hours == want.hours, what + " hour count");
  chk.require(got.capped_hours == want.capped_hours, what + " capped hours");
}

/// Premium QoS: every premium request that arrived was served.
void check_premium(Checker& chk, const Totals& t, const std::string& what) {
  chk.near(t.served_premium, t.premium_arrivals, kExact,
           what + " premium served vs arrived");
}

std::vector<double> demand_at(const core::Simulator& sim, std::size_t hour) {
  std::vector<double> d;
  for (const auto& series : sim.background_demand()) d.push_back(series[hour]);
  return d;
}

// ---------------------------------------------------------------- config

enum class Kind { kOpenStringent, kCoupledMonth, kDurableMonth, kServeDurable };

Kind kind_of(const std::string& name) {
  if (name == "open_stringent") return Kind::kOpenStringent;
  if (name == "coupled_month") return Kind::kCoupledMonth;
  if (name == "durable_month") return Kind::kDurableMonth;
  if (name == "serve_durable") return Kind::kServeDurable;
  throw std::invalid_argument("unknown workload: " + name);
}

core::SimulationConfig make_config(Kind kind, std::uint64_t seed) {
  core::SimulationConfig cfg;
  cfg.seed = seed;
  cfg.policy_level = 1;
  cfg.monthly_budget = 1.5e6;  // the CLI default
  if (kind == Kind::kOpenStringent) cfg.monthly_budget = 1.0e6;
  if (kind == Kind::kCoupledMonth) {
    // Paper gain with every damping rung on: the configuration that
    // converges on every hour (the default ladder degrades ~1 hour in 6,
    // see README.md), so no operation of the workload fails.
    cfg.market_coupler.enabled = true;
    cfg.market_coupler.loop.feedback_gain = 1.0;
    cfg.market_coupler.damping = core::DampingMode::kFull;
  }
  return cfg;
}

/// The per-layer table: every traced run reports each of these.
const char* const kLayers[] = {
    "bench",          "workload",         "core.budgeter",
    "core.simulator", "serve",            "core.bill_capper",
    "core.formulation", "lp",             "core.cost_model",
    "core.market_coupler", "market",      "core.checkpoint",
};

class LayerMetrics {
 public:
  void set(const std::string& name, double value) {
    const auto& table = per_layer_metrics();
    const bool known = std::any_of(table.begin(), table.end(),
                                   [&](const Metric& m) { return m.name == name; });
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
    values_[name] = value;
  }

  std::vector<Metric> emit() const {
    std::vector<Metric> out = per_layer_metrics();
    for (Metric& m : out) {
      const auto it = values_.find(m.name);
      m.value = it == values_.end() ? 0.0 : it->second;
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------- set-up

struct World {
  std::unique_ptr<core::Simulator> sim;
  std::unique_ptr<serve::ServeLoop> loop;
};

/// Builds the workload's world and appends the build's wall time to
/// `samples`. Traced (non-null `tr`), each constructor is a span.
World build_world(Kind kind, const core::SimulationConfig& cfg, Tracer* tr,
                  std::vector<double>& samples, std::int64_t key) {
  World world;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope root(tr, "bench", "setup", key);
    {
      Tracer::Scope s(tr, "core.simulator", "construct", key);
      world.sim = std::make_unique<core::Simulator>(cfg);
    }
    if (kind == Kind::kServeDurable) {
      Tracer::Scope s(tr, "serve", "construct", key);
      world.loop =
          std::make_unique<serve::ServeLoop>(*world.sim, serve::ServeConfig{});
    }
  }
  samples.push_back(seconds_between(t0, now_ns()));
  return world;
}

/// The set-up layers the Simulator constructor runs internally (trace
/// generation, budgeter), called through their own entry points so their
/// share of set-up shows in the trace.
void trace_setup_layers(const core::SimulationConfig& cfg, Tracer& tr) {
  Tracer::Scope root(tr, "bench", "setup_layers");
  workload::TwoMonthTrace traces;
  {
    Tracer::Scope s(tr, "workload", "paper_two_month_trace");
    traces = workload::paper_two_month_trace(cfg.seed, cfg.workload);
  }
  Tracer::Scope s(tr, "core.budgeter", "construct");
  const core::Budgeter budgeter(
      cfg.monthly_budget,
      workload::hour_of_week_weights(traces.history.series(), cfg.history_weeks),
      traces.evaluation.hours(), util::hour_of_week(traces.history.hours()));
}

/// Repeats `batch` while another batch of median length still fits before
/// `deadline_ns`; always runs at least once, exactly once when smoke.
void repeat_until(std::int64_t deadline_ns, bool smoke,
                  const std::function<void()>& batch) {
  std::vector<double> lengths;
  for (;;) {
    const std::int64_t t0 = now_ns();
    batch();
    const std::int64_t t1 = now_ns();
    lengths.push_back(static_cast<double>(t1 - t0));
    if (smoke) return;
    if (static_cast<double>(t1) + median(lengths) > static_cast<double>(deadline_ns))
      return;
  }
}

// ---------------------------------------------------------------- batches

/// One untraced durable month through run_resumable plus its resumes.
struct DurableBatch {
  core::MonthlyResult month;
  double seconds = 0.0;
  std::vector<double> hour_ms;    ///< gaps between on_hour callbacks
  double tail_ms = 0.0;           ///< last callback to return: final commit
  std::vector<double> resume_ms;  ///< run_resumable(resume = true)
};

void remove_checkpoint(const std::string& path) {
  std::error_code ec;
  for (const char* suffix : {"", ".tmp", ".1"}) fs::remove(path + suffix, ec);
}

DurableBatch run_durable_batch(const core::Simulator& sim,
                               const std::string& path, int resumes,
                               Checker& chk) {
  remove_checkpoint(path);
  DurableBatch b;
  b.hour_ms.reserve(sim.evaluation_trace().hours());
  std::int64_t last = now_ns();
  const std::int64_t t0 = last;
  const auto on_hour = [&](const core::HourRecord&) {
    const std::int64_t t = now_ns();
    b.hour_ms.push_back(ms_between(last, t));
    last = t;
  };
  core::Simulator::ResumableOutcome out =
      sim.run_resumable(core::Strategy::kCostCapping, path, false, on_hour);
  b.tail_ms = ms_between(last, now_ns());
  b.seconds = seconds_between(t0, now_ns());
  chk.require(!out.crashed && !out.stopped, "durable month did not complete");
  const std::uint64_t digest = month_digest(out.result);
  for (int k = 0; k < resumes; ++k) {
    const std::int64_t r0 = now_ns();
    const core::Simulator::ResumableOutcome again =
        sim.run_resumable(core::Strategy::kCostCapping, path, true);
    b.resume_ms.push_back(ms_between(r0, now_ns()));
    chk.require(again.resumed_from == sim.evaluation_trace().hours() &&
                    month_digest(again.result) == digest,
                "resume from the final checkpoint differs from the month");
  }
  b.month = std::move(out.result);
  return b;
}

/// One untraced serve run with the per-tick checkpoint.
struct ServeBatch {
  serve::ServeOutcome outcome;
  double seconds = 0.0;
  std::vector<double> tick_ms;
  double tail_ms = 0.0;
  std::vector<std::uint8_t> replanned;  ///< per gap: the tick re-planned
};

ServeBatch run_serve_batch(const serve::ServeLoop& loop,
                           const std::string& path, Checker& chk) {
  remove_checkpoint(path);
  ServeBatch b;
  b.tick_ms.reserve(loop.total_ticks());
  b.replanned.reserve(loop.total_ticks());
  std::int64_t last = now_ns();
  const std::int64_t t0 = last;
  const auto on_tick = [&](const serve::TickRecord& t) {
    const std::int64_t now = now_ns();
    b.tick_ms.push_back(ms_between(last, now));
    b.replanned.push_back(t.replanned ? 1 : 0);
    last = now;
  };
  b.outcome = loop.run(path, false, on_tick);
  b.tail_ms = ms_between(last, now_ns());
  b.seconds = seconds_between(t0, now_ns());
  chk.require(!b.outcome.crashed && !b.outcome.stopped &&
                  b.outcome.report.ticks_committed == loop.total_ticks(),
              "serve run did not complete");
  return b;
}

long failed_ticks(const serve::ServeReport& r) {
  return static_cast<long>(std::count_if(r.ticks_this_attempt.begin(),
                                         r.ticks_this_attempt.end(),
                                         tick_failed));
}

void observe_serve(Observed& obs, const serve::ServeReport& r) {
  obs["cost"] = r.total_cost;
  obs["served_premium"] = r.total_served_premium;
  obs["served_ordinary"] = r.total_served_ordinary;
  obs["replans"] = static_cast<double>(r.replans);
  obs["shed_ticks"] = static_cast<double>(r.shed_ticks);
  obs["health_transitions"] = static_cast<double>(r.health_transitions);
}

// ---------------------------------------------------------------- replays

struct CapperReplay {
  Totals totals;
  lp::ArenaStats cold;
  lp::ArenaStats warm;
  std::vector<double> hour_ms;  ///< wall time of each hour, probes excluded
};

/// Replays the evaluation month's open-loop hours through the public calls
/// run_months makes for each of them (budgeter, BillCapper::decide,
/// evaluate_allocation). Traced (non-null `tr`), it also probes, outside
/// the timed hour, the layers decide runs internally: the site models, the
/// formulation build and the step-1 MILP on bench-owned solvers.
CapperReplay replay_capper_month(const core::Simulator& sim, Tracer* tr,
                                 Checker& chk) {
  const core::SimulationConfig& cfg = sim.config();
  const auto& sites = sim.sites();
  const auto& policies = sim.policies();
  const core::BillCapper capper(sites, policies, cfg.optimizer);
  lp::ArenaSolver cold;
  lp::ArenaSolver warm(lp::ArenaConfig{.warm_across_solves = true});
  const workload::PremiumSplit split(cfg.premium_share);

  CapperReplay out;
  out.hour_ms.reserve(sim.evaluation_trace().hours());
  double spent = 0.0;
  for (std::size_t h = 0; h < sim.evaluation_trace().hours(); ++h) {
    const std::int64_t h0 = now_ns();
    const auto key = static_cast<std::int64_t>(h);
    const double arrivals = sim.evaluation_trace().at(h);
    const double premium = split.premium(arrivals);
    const double ordinary = split.ordinary(arrivals);
    const std::vector<double> d = demand_at(sim, h);

    core::CappingOutcome outcome;
    core::GroundTruth truth;
    {
      Tracer::Scope hour(tr, "bench", "hour", key);
      double budget = 1e18;
      {
        Tracer::Scope s(tr, "core.budgeter", "hourly_budget", key);
        if (cfg.enforce_budget) budget = sim.budgeter().hourly_budget(h, spent);
      }
      {
        Tracer::Scope s(tr, "core.bill_capper", "decide", key);
        outcome = capper.decide(premium, ordinary, d, budget);
      }
      {
        Tracer::Scope s(tr, "core.cost_model", "evaluate_allocation", key);
        truth = core::evaluate_allocation(sites, policies, d,
                                          outcome.allocation.lambda_vector());
      }
    }
    out.hour_ms.push_back(ms_between(h0, now_ns()));
    spent += truth.total_cost;
    out.totals.add(truth.total_cost, premium, outcome,
                   hour_failed(outcome.degraded, outcome.failure, premium,
                               outcome.served_premium));
    if (!tr) continue;

    Tracer::Scope probe(tr, "bench", "probe", key);
    std::vector<core::SiteModel> models;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      Tracer::Scope s(tr, "core.formulation", "make_site_model", key);
      models.push_back(core::make_site_model(
          sites[i], policies[i], d[i], cfg.optimizer.model_cooling_network));
    }
    {
      Tracer::Scope s(tr, "core.formulation", "build_allocation_formulation",
                      key);
      const core::AllocationFormulation f =
          core::build_allocation_formulation(models);
      chk.require(f.vars.size() == sites.size(), "formulation site count");
    }
    // decide's step 1 admits what the believed models can carry.
    const double capacity = core::system_capacity(models);
    const double admitted_premium = std::min(premium, capacity);
    const double lambda_total =
        admitted_premium + std::min(ordinary, capacity - admitted_premium);
    core::AllocationResult step1;
    {
      Tracer::Scope s(tr, "lp", "step1_cold", key);
      step1 = core::minimize_cost_over_models(models, lambda_total,
                                              cfg.optimizer, cold);
    }
    {
      Tracer::Scope s(tr, "lp", "step1_warm", key);
      (void)core::minimize_cost_over_models(models, lambda_total,
                                            cfg.optimizer, warm);
    }
    // An uncapped hour served step 1's allocation: the bench-owned solve
    // must reproduce it, or the probe measures a different problem.
    if (outcome.mode == core::CappingOutcome::Mode::kUncapped &&
        !outcome.degraded)
      chk.near(step1.predicted_cost, outcome.allocation.predicted_cost, kExact,
               "step-1 probe vs decide, hour " + std::to_string(h));
  }
  out.cold = cold.stats();
  out.warm = warm.stats();
  return out;
}

struct CoupledReplay {
  Totals totals;
  long iterations = 0;
  long closed_loop_hours = 0;
  long fallback_hours = 0;
  std::vector<double> hour_ms;  ///< wall time of each hour, probes excluded
};

/// Replays the first `hours` hours of the closed-loop month through
/// MarketCoupler::plan_hour / bill. Traced (non-null `tr`), it also probes
/// CoupledMarket at each hour's realized draw, outside the timed hour.
CoupledReplay replay_coupled_month(const core::Simulator& sim, Tracer* tr,
                                   std::size_t hours) {
  const core::SimulationConfig& cfg = sim.config();
  const auto& sites = sim.sites();
  const auto& policies = sim.policies();
  const core::BillCapper capper(sites, policies, cfg.optimizer);
  core::MarketCoupler coupler(sites, policies, cfg.optimizer,
                              cfg.market_coupler);
  const market::CoupledMarket grid = market::CoupledMarket::paper();
  const market::ClosedLoopOptions& loop = cfg.market_coupler.loop;
  std::vector<double> sweep_cap;
  for (const auto& site : sites)
    sweep_cap.push_back(site.power_mw(site.max_requests_per_hour()));
  const workload::PremiumSplit split(cfg.premium_share);
  const core::DecideOptions no_overrides;

  CoupledReplay out;
  out.hour_ms.reserve(hours);
  double spent = 0.0;
  for (std::size_t h = 0; h < hours; ++h) {
    const std::int64_t h0 = now_ns();
    const auto key = static_cast<std::int64_t>(h);
    const double arrivals = sim.evaluation_trace().at(h);
    const std::vector<double> d = demand_at(sim, h);
    core::MarketCoupler::HourInputs in;
    in.premium = split.premium(arrivals);
    in.ordinary = split.ordinary(arrivals);
    in.true_demand_mw = d;
    in.overrides = &no_overrides;
    in.faults = sim.grid_faults_at(h);

    core::MarketCoupler::HourPlan plan;
    core::GroundTruth truth;
    std::vector<double> lambda;
    {
      Tracer::Scope hour(tr, "bench", "hour", key);
      {
        Tracer::Scope s(tr, "core.budgeter", "hourly_budget", key);
        in.budget = cfg.enforce_budget ? sim.budgeter().hourly_budget(h, spent)
                                       : 1e18;
      }
      {
        Tracer::Scope s(tr, "core.market_coupler", "plan_hour", key);
        plan = coupler.plan_hour(in, capper);
      }
      lambda = plan.outcome.allocation.lambda_vector();
      {
        Tracer::Scope s(tr, "core.market_coupler", "bill", key);
        truth = coupler.bill(lambda, d, in.faults);
      }
    }
    out.hour_ms.push_back(ms_between(h0, now_ns()));
    spent += truth.total_cost;
    const bool failed =
        plan.oscillation || plan.diverged ||
        hour_failed(plan.outcome.degraded, plan.outcome.failure, in.premium,
                    plan.outcome.served_premium);
    out.totals.add(truth.total_cost, in.premium, plan.outcome, failed);
    out.iterations += static_cast<long>(plan.iterations);
    out.closed_loop_hours += plan.closed_loop ? 1 : 0;
    out.fallback_hours += plan.fallback ? 1 : 0;
    if (!tr) continue;

    Tracer::Scope probe(tr, "bench", "probe", key);
    std::vector<double> draw(sites.size(), 0.0);
    for (std::size_t i = 0; i < sites.size(); ++i)
      if (lambda[i] > 0.0) draw[i] = sites[i].power_mw(lambda[i]);
    {
      Tracer::Scope s(tr, "market", "derive_local_policies", key);
      (void)grid.derive_local_policies(draw, d, d, sweep_cap, loop, &in.faults);
    }
    {
      Tracer::Scope s(tr, "market", "solve_at", key);
      (void)grid.solve_at(draw, d, loop.feedback_gain, &in.faults);
    }
  }
  return out;
}

struct DurableTrace {
  Totals totals;
  double bytes = 0.0;        ///< sum of file sizes over the month's commits
  double final_bytes = 0.0;
  double save_last_ms = 0.0;
  double program_s = 0.0;    ///< run_resumable minus the probes
};

/// The durable month through run_resumable, with each hour's committed
/// checkpoint probed from the on_hour observer: its size, a load_checkpoint
/// of it and a save_checkpoint of the loaded state to a side file.
DurableTrace traced_durable_month(const core::Simulator& sim,
                                  const std::string& path, Tracer& tr,
                                  Checker& chk) {
  remove_checkpoint(path);
  const std::string side = path + ".probe";
  DurableTrace out;
  std::int64_t probe_ns = 0;
  const auto probe_commit = [&](std::int64_t key) {
    if (!fs::exists(path)) return;
    const std::int64_t p0 = now_ns();
    out.bytes += static_cast<double>(fs::file_size(path));
    core::CheckpointState st;
    {
      Tracer::Scope s(tr, "core.checkpoint", "load_checkpoint", key);
      st = core::load_checkpoint(path);
    }
    const std::int64_t s0 = now_ns();
    {
      Tracer::Scope s(tr, "core.checkpoint", "save_checkpoint", key);
      core::save_checkpoint(side, st);
    }
    out.save_last_ms = ms_between(s0, now_ns());
    chk.require(st.next_hour == static_cast<std::size_t>(key),
                "checkpoint read at hour " + std::to_string(key) +
                    " is not the previous hour's commit");
    probe_ns += now_ns() - p0;
  };

  core::Simulator::ResumableOutcome res;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope root(tr, "core.simulator", "run_resumable");
    std::int64_t last = now_ns();
    const auto on_hour = [&](const core::HourRecord& rec) {
      const auto key = static_cast<std::int64_t>(rec.hour);
      tr.record("core.simulator", "hour", last, now_ns(), key);
      probe_commit(key);
      last = now_ns();
    };
    res = sim.run_resumable(core::Strategy::kCostCapping, path, false, on_hour);
    tr.record("core.simulator", "final_commit", last, now_ns(),
              static_cast<std::int64_t>(res.result.hours.size()));
  }
  out.program_s = seconds_between(t0 + probe_ns, now_ns());
  probe_commit(static_cast<std::int64_t>(res.result.hours.size()));
  out.final_bytes = static_cast<double>(fs::file_size(path));
  out.totals = totals_of(res.result);
  std::error_code ec;
  fs::remove(side, ec);
  return out;
}

struct ServeTrace {
  serve::ServeReport report;
  double bytes = 0.0;
  double program_s = 0.0;  ///< ServeLoop::run minus the probes
};

/// The serve run with its per-tick gaps recorded as spans and the size of
/// each committed checkpoint read from the on_tick observer.
ServeTrace traced_serve_run(const serve::ServeLoop& loop,
                            const std::string& path, Tracer& tr,
                            Checker& chk) {
  remove_checkpoint(path);
  ServeTrace out;
  std::int64_t probe_ns = 0;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope root(tr, "serve", "run");
    std::int64_t last = now_ns();
    const auto on_tick = [&](const serve::TickRecord& t) {
      const auto key = static_cast<std::int64_t>(t.tick);
      const std::int64_t now = now_ns();
      tr.record("serve", t.replanned ? "replan_tick" : "tick", last, now, key);
      if (fs::exists(path)) out.bytes += static_cast<double>(fs::file_size(path));
      last = now_ns();
      probe_ns += last - now;
    };
    const serve::ServeOutcome o = loop.run(path, false, on_tick);
    tr.record("serve", "final_commit", last, now_ns());
    chk.require(!o.crashed && !o.stopped, "traced serve run did not complete");
    out.report = o.report;
  }
  out.program_s = seconds_between(t0 + probe_ns, now_ns());
  out.bytes += static_cast<double>(fs::file_size(path));
  return out;
}

// ---------------------------------------------------------------- runs

void set_layer_totals(LayerMetrics& lm, const Tracer& tr) {
  for (const LayerTotals& t : layer_totals(tr.spans())) {
    lm.set("self_ms." + t.layer, t.self_ms);
    lm.set("calls." + t.layer, static_cast<double>(t.calls));
  }
}

void set_percentiles(LayerMetrics& lm, const std::string& prefix,
                     const std::vector<double>& samples) {
  lm.set(prefix + "_p50", percentile(samples, 0.5));
  lm.set(prefix + "_p99", percentile(samples, 0.99));
}

/// Per-operation best times over repeated batches of the same work. On a
/// shared host the same hour runs at very different speeds from one second
/// to the next (other tenants), so each operation keeps the fastest time
/// any repetition gave it; the sum is the batch's time at its best observed
/// speed (README.md has the measurements behind this choice).
class BestTimes {
 public:
  void add(const std::vector<double>& op_ms) {
    if (batches_++ == 0) {
      best_ = op_ms;
      return;
    }
    if (best_.size() != op_ms.size())
      throw std::logic_error("BestTimes: batches of different length");
    for (std::size_t i = 0; i < op_ms.size(); ++i)
      best_[i] = std::min(best_[i], op_ms[i]);
  }
  double total_s() const {
    double ms = 0.0;
    for (const double t : best_) ms += t;
    return ms * 1e-3;
  }
  int batches() const noexcept { return batches_; }

 private:
  std::vector<double> best_;
  int batches_ = 0;
};

/// The untraced run: end-to-end metrics only.
void run_untraced(Kind kind, const RunOptions& opt, std::int64_t deadline,
                  RunResult& result, Checker& chk) {
  const core::SimulationConfig cfg = make_config(kind, opt.seed);
  std::vector<double> setup_s;
  World world;
  for (int k = 0; k < kSetupReps; ++k)
    world = build_world(kind, cfg, nullptr, setup_s, k);
  const core::Simulator& sim = *world.sim;
  const std::string path = opt.work_dir + "/checkpoint";

  BestTimes best;
  double hours_per_batch = 0.0;
  std::vector<double> batch_rates;  // plain per-batch rates, for the spread
  std::vector<std::uint64_t> digests;
  Observed obs;
  const auto batch = [&] {
    if (best.batches() > 0)
      for (int k = 0; k < kSetupReps; ++k)
        (void)build_world(kind, cfg, nullptr, setup_s, k);
    std::vector<double> op_ms;
    Totals t;
    switch (kind) {
      case Kind::kOpenStringent: {
        CapperReplay rp = replay_capper_month(sim, nullptr, chk);
        op_ms = std::move(rp.hour_ms);
        t = rp.totals;
        break;
      }
      case Kind::kCoupledMonth: {
        CoupledReplay rp = replay_coupled_month(sim, nullptr, kCoupledTimedHours);
        op_ms = std::move(rp.hour_ms);
        t = rp.totals;
        obs["week_cost"] = t.cost;
        break;
      }
      case Kind::kDurableMonth: {
        DurableBatch b = run_durable_batch(sim, path, 0, chk);
        op_ms = std::move(b.hour_ms);
        op_ms.push_back(b.tail_ms);
        t = totals_of(b.month);
        digests.push_back(month_digest(b.month));
        break;
      }
      case Kind::kServeDurable: {
        ServeBatch b = run_serve_batch(*world.loop, path, chk);
        const serve::ServeReport& r = b.outcome.report;
        chk.require(r.premium_qos_ok(), "serve premium QoS broken");
        op_ms = std::move(b.tick_ms);
        op_ms.push_back(b.tail_ms);
        result.attempted += static_cast<long>(r.ticks_committed);
        result.failed += failed_ticks(r);
        if (obs.empty()) observe_serve(obs, r);
        digests.push_back(report_digest(r));
        hours_per_batch = static_cast<double>(r.ticks_committed) /
                          static_cast<double>(world.loop->config().ticks_per_hour);
        break;
      }
    }
    if (kind == Kind::kOpenStringent || kind == Kind::kCoupledMonth)
      digests.push_back(totals_digest(t));
    if (kind != Kind::kServeDurable) {
      check_premium(chk, t, "month");
      result.attempted += t.hours;
      result.failed += t.failed_hours;
      if (kind != Kind::kCoupledMonth && obs.empty()) observe(obs, t);
      hours_per_batch = static_cast<double>(t.hours);
    }
    double batch_ms = 0.0;
    for (const double v : op_ms) batch_ms += v;
    batch_rates.push_back(hours_per_batch / (batch_ms * 1e-3));
    best.add(op_ms);
  };
  repeat_until(deadline, opt.smoke, batch);
  const double rss_mb = peak_rss_mb();

  chk.require(std::all_of(digests.begin(), digests.end(),
                          [&](std::uint64_t d) { return d == digests.front(); }),
              "repeated batches of the same seed produced different outputs");
  chk.pins(opt.workload, opt.seed, obs);

  const Quartiles q = quartiles(batch_rates);
  result.metrics = {
      {"hours_per_s", hours_per_batch / best.total_s(), "1/s"},
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  result.info = {
      {"batches", static_cast<double>(best.batches())},
      {"batch_hours_per_s_median", q.median},
      {"batch_hours_per_s_iqr_share", q.iqr_share()},
      {"setup_s_median", median(setup_s)},
  };
}

/// The traced run: an untraced reference batch, then traced replays of the
/// same hours until the time is up; per-layer metrics only.
void run_traced(Kind kind, const RunOptions& opt, std::int64_t deadline,
                RunResult& result, Checker& chk) {
  const core::SimulationConfig cfg = make_config(kind, opt.seed);
  Tracer& tr = result.tracer;
  LayerMetrics lm;
  std::vector<double> setup_s;
  World world;
  for (int k = 0; k < kSetupReps; ++k)
    world = build_world(kind, cfg, &tr, setup_s, k);
  trace_setup_layers(cfg, tr);
  const core::Simulator& sim = *world.sim;
  lm.set("setup.simulator_ms",
         median(tr.durations_ms("core.simulator", "construct")));
  if (world.loop)
    lm.set("setup.serve_loop_ms", median(tr.durations_ms("serve", "construct")));
  const std::string path = opt.work_dir + "/checkpoint";
  const auto hours = static_cast<double>(sim.evaluation_trace().hours());
  Observed obs;

  // Untraced reference: the totals the replay must reproduce, the untraced
  // rate the tracing overhead is taken against, and the interval
  // percentiles (which need >= 1000 samples and no tracing).
  Totals reference;
  std::uint64_t serve_reference = 0;
  double untraced_rate = 0.0;
  std::vector<double> program_s;  // each replay's time in the program
  switch (kind) {
    case Kind::kOpenStringent:
    case Kind::kCoupledMonth: {
      const std::int64_t t0 = now_ns();
      reference = totals_of(sim.run_months(1).front());
      untraced_rate = hours / seconds_between(t0, now_ns());
      lm.set("lp.hour_nodes", static_cast<double>(reference.nodes));
      break;
    }
    case Kind::kDurableMonth: {
      std::vector<double> hour_ms;
      std::vector<double> resume_ms;
      std::vector<double> seconds;
      while (hour_ms.size() < kMinIntervalSamples) {
        DurableBatch b = run_durable_batch(sim, path, kResumesPerBatch, chk);
        hour_ms.insert(hour_ms.end(), b.hour_ms.begin(), b.hour_ms.end());
        resume_ms.insert(resume_ms.end(), b.resume_ms.begin(), b.resume_ms.end());
        seconds.push_back(b.seconds);
        reference = totals_of(b.month);
        if (opt.smoke) break;
      }
      untraced_rate = hours / median(seconds);
      lm.set("hour_p50_ms", percentile(hour_ms, 0.5));
      lm.set("hour_p99_ms", percentile(hour_ms, 0.99));
      lm.set("interval_samples", static_cast<double>(hour_ms.size()));
      lm.set("resume_ms", median(resume_ms));
      lm.set("lp.hour_nodes", static_cast<double>(reference.nodes));
      // Checkpointing must not change the month.
      check_same_totals(chk, reference, totals_of(sim.run(core::Strategy::kCostCapping)),
                        "durable month vs in-memory run()");
      break;
    }
    case Kind::kServeDurable: {
      const ServeBatch b = run_serve_batch(*world.loop, path, chk);
      const serve::ServeReport& r = b.outcome.report;
      const auto ticks = static_cast<double>(r.ticks_committed);
      untraced_rate = ticks / b.seconds;
      lm.set("ticks_per_s", untraced_rate);
      lm.set("tick_p50_ms", percentile(b.tick_ms, 0.5));
      lm.set("tick_p99_ms", percentile(b.tick_ms, 0.99));
      lm.set("interval_samples", static_cast<double>(b.tick_ms.size()));
      std::vector<double> replan_ms;
      std::vector<double> plain_ms;
      for (std::size_t i = 0; i < b.tick_ms.size(); ++i)
        (b.replanned[i] ? replan_ms : plain_ms).push_back(b.tick_ms[i]);
      set_percentiles(lm, "serve.replan_tick_ms", replan_ms);
      lm.set("serve.plain_tick_ms_p50", percentile(plain_ms, 0.5));
      lm.set("serve.replans", static_cast<double>(r.replans));
      lm.set("serve.shed_ticks", static_cast<double>(r.shed_ticks));
      lm.set("serve.health_transitions",
             static_cast<double>(r.health_transitions));
      observe_serve(obs, r);
      serve_reference = report_digest(r);

      const std::int64_t m0 = now_ns();
      const serve::ServeOutcome mem = world.loop->run("", false);
      lm.set("serve.inmem_ticks_per_s",
             ticks / seconds_between(m0, now_ns()));
      chk.require(report_digest(mem.report) == report_digest(r),
                  "in-memory serve run differs from the durable run");
      result.attempted += static_cast<long>(r.ticks_committed);
      result.failed += failed_ticks(r);
      break;
    }
  }

  // Work counters must repeat exactly from one replay to the next.
  std::map<std::string, double> counts;
  const auto count = [&](const std::string& name, double value) {
    const auto [it, inserted] = counts.emplace(name, value);
    if (inserted)
      lm.set(name, value);
    else
      chk.require(it->second == value, name + " did not repeat across replays");
  };
  const auto sum_s = [](const std::vector<double>& ms) {
    double total = 0.0;
    for (const double x : ms) total += x;
    return total * 1e-3;
  };
  const auto replay = [&] {
    switch (kind) {
      case Kind::kOpenStringent:
      case Kind::kDurableMonth: {
        const CapperReplay rp = replay_capper_month(sim, &tr, chk);
        check_same_totals(chk, rp.totals, reference, "traced replay");
        program_s.push_back(sum_s(rp.hour_ms));
        result.attempted += rp.totals.hours;
        result.failed += rp.totals.failed_hours;
        if (counts.empty()) observe(obs, rp.totals);
        count("lp.primal_pivots", static_cast<double>(rp.cold.primal_iterations));
        count("lp.dual_pivots", static_cast<double>(rp.cold.dual_iterations));
        count("lp.nodes", static_cast<double>(rp.cold.nodes_explored));
        count("lp.cold_roots", static_cast<double>(rp.cold.cold_solves));
        count("lp.node_cold_solves", static_cast<double>(rp.cold.node_cold_solves));
        const auto roots =
            static_cast<double>(rp.warm.warm_solves + rp.warm.cold_solves);
        count("lp.warm_root_share",
              roots > 0 ? static_cast<double>(rp.warm.warm_solves) / roots : 0.0);
        count("lp.warm_fallbacks", static_cast<double>(rp.warm.warm_fallbacks));
        count("capper.capped_share", static_cast<double>(rp.totals.capped_hours) /
                                         static_cast<double>(rp.totals.hours));
        if (kind == Kind::kDurableMonth) {
          const DurableTrace dt = traced_durable_month(sim, path, tr, chk);
          check_same_totals(chk, dt.totals, reference, "traced durable month");
          program_s.back() = dt.program_s;
          count("checkpoint.bytes_per_month", dt.bytes);
          count("checkpoint.final_bytes", dt.final_bytes);
          lm.set("checkpoint.save_ms_last", dt.save_last_ms);
        }
        break;
      }
      case Kind::kCoupledMonth: {
        const CoupledReplay rp =
            replay_coupled_month(sim, &tr, sim.evaluation_trace().hours());
        // The seed's bill is pinned loosely (kCoupledMonthTol); against the
        // untraced run of the same build the replay must match exactly.
        check_same_totals(chk, rp.totals, reference, "traced replay");
        check_premium(chk, rp.totals, "traced replay");
        program_s.push_back(sum_s(rp.hour_ms));
        result.attempted += rp.totals.hours;
        result.failed += rp.totals.failed_hours;
        if (counts.empty()) observe(obs, rp.totals);
        count("coupler.iterations", static_cast<double>(rp.iterations));
        count("coupler.closed_loop_hours",
              static_cast<double>(rp.closed_loop_hours));
        count("coupler.fallback_hours", static_cast<double>(rp.fallback_hours));
        count("capper.capped_share", static_cast<double>(rp.totals.capped_hours) /
                                         static_cast<double>(rp.totals.hours));
        break;
      }
      case Kind::kServeDurable: {
        const ServeTrace st = traced_serve_run(*world.loop, path, tr, chk);
        chk.require(report_digest(st.report) == serve_reference,
                    "traced serve run differs from the untraced run");
        program_s.push_back(st.program_s);
        count("serve.checkpoint_bytes_per_tick",
              st.bytes / static_cast<double>(st.report.ticks_committed));
        break;
      }
    }
  };
  repeat_until(deadline, opt.smoke, replay);
  chk.pins(opt.workload, opt.seed, obs);

  // Per-call timings over every replay.
  const auto us = [&](const char* layer, const char* op) {
    return 1e3 * median(tr.durations_ms(layer, op));
  };
  set_percentiles(lm, "lp.step1_solve_ms", tr.durations_ms("lp", "step1_cold"));
  lm.set("formulation.site_model_us", us("core.formulation", "make_site_model"));
  lm.set("formulation.build_us",
         us("core.formulation", "build_allocation_formulation"));
  set_percentiles(lm, "capper.decide_ms",
                  tr.durations_ms("core.bill_capper", "decide"));
  lm.set("billing.evaluate_us", us("core.cost_model", "evaluate_allocation"));
  set_percentiles(lm, "coupler.plan_hour_ms",
                  tr.durations_ms("core.market_coupler", "plan_hour"));
  lm.set("coupler.bill_ms", median(tr.durations_ms("core.market_coupler", "bill")));
  lm.set("market.derive_ms",
         median(tr.durations_ms("market", "derive_local_policies")));
  lm.set("market.solve_at_ms", median(tr.durations_ms("market", "solve_at")));
  lm.set("checkpoint.save_ms_p50",
         median(tr.durations_ms("core.checkpoint", "save_checkpoint")));
  lm.set("checkpoint.load_ms_p50",
         median(tr.durations_ms("core.checkpoint", "load_checkpoint")));
  set_layer_totals(lm, tr);

  // Overhead: the traced program path's rate against the untraced rate.
  const double ops = kind == Kind::kServeDurable
                         ? static_cast<double>(world.loop->total_ticks())
                         : hours;
  const double traced_rate = ops / median(program_s);
  lm.set("trace.overhead_share", untraced_rate / traced_rate - 1.0);
  lm.set("failed_share", result.attempted > 0
                             ? static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted)
                             : 0.0);
  result.metrics = lm.emit();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "open_stringent", "coupled_month", "durable_month", "serve_durable"};
  return kNames;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> kTable = [] {
    std::vector<Metric> t = {
        {"ticks_per_s", 0, "1/s"},
        {"hour_p50_ms", 0, "ms"},
        {"hour_p99_ms", 0, "ms"},
        {"tick_p50_ms", 0, "ms"},
        {"tick_p99_ms", 0, "ms"},
        {"interval_samples", 0, "count"},
        {"resume_ms", 0, "ms"},
        {"failed_share", 0, "ratio"},
        {"lp.step1_solve_ms_p50", 0, "ms"},
        {"lp.step1_solve_ms_p99", 0, "ms"},
        {"lp.primal_pivots", 0, "count"},
        {"lp.dual_pivots", 0, "count"},
        {"lp.nodes", 0, "count"},
        {"lp.cold_roots", 0, "count"},
        {"lp.node_cold_solves", 0, "count"},
        {"lp.warm_root_share", 0, "ratio"},
        {"lp.warm_fallbacks", 0, "count"},
        {"lp.hour_nodes", 0, "count"},
        {"formulation.site_model_us", 0, "us"},
        {"formulation.build_us", 0, "us"},
        {"capper.decide_ms_p50", 0, "ms"},
        {"capper.decide_ms_p99", 0, "ms"},
        {"capper.capped_share", 0, "ratio"},
        {"billing.evaluate_us", 0, "us"},
        {"coupler.plan_hour_ms_p50", 0, "ms"},
        {"coupler.plan_hour_ms_p99", 0, "ms"},
        {"coupler.iterations", 0, "count"},
        {"coupler.closed_loop_hours", 0, "count"},
        {"coupler.fallback_hours", 0, "count"},
        {"coupler.bill_ms", 0, "ms"},
        {"market.derive_ms", 0, "ms"},
        {"market.solve_at_ms", 0, "ms"},
        {"checkpoint.bytes_per_month", 0, "B"},
        {"checkpoint.final_bytes", 0, "B"},
        {"checkpoint.save_ms_p50", 0, "ms"},
        {"checkpoint.load_ms_p50", 0, "ms"},
        {"checkpoint.save_ms_last", 0, "ms"},
        {"serve.checkpoint_bytes_per_tick", 0, "B"},
        {"serve.inmem_ticks_per_s", 0, "1/s"},
        {"serve.replan_tick_ms_p50", 0, "ms"},
        {"serve.replan_tick_ms_p99", 0, "ms"},
        {"serve.plain_tick_ms_p50", 0, "ms"},
        {"serve.replans", 0, "count"},
        {"serve.shed_ticks", 0, "count"},
        {"serve.health_transitions", 0, "count"},
        {"setup.simulator_ms", 0, "ms"},
        {"setup.serve_loop_ms", 0, "ms"},
        {"trace.overhead_share", 0, "ratio"},
    };
    for (const char* layer : kLayers) {
      t.push_back({std::string("self_ms.") + layer, 0, "ms"});
      t.push_back({std::string("calls.") + layer, 0, "count"});
    }
    return t;
  }();
  return kTable;
}

RunResult run_workload(const RunOptions& opt) {
  const Kind kind = kind_of(opt.workload);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  RunResult result;
  Checker chk(result);
  fs::create_directories(opt.work_dir);
  try {
    if (opt.trace)
      run_traced(kind, opt, deadline, result, chk);
    else
      run_untraced(kind, opt, deadline, result, chk);
  } catch (const std::exception& e) {
    // An aborted run: everything it attempted counts as failed.
    chk.require(false, std::string("run aborted: ") + e.what());
    result.attempted = std::max(result.attempted, 1L);
  }
  for (Metric& m : result.metrics)
    if (!std::isfinite(m.value)) {
      chk.require(false, "metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  // Wrong outputs fail every operation of the run.
  if (!result.correct) result.failed = result.attempted;
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  return result;
}

}  // namespace perfbench
