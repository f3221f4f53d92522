#include "market/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "market/pjm5.hpp"

namespace billcap::market {

namespace {

/// Safety cap on DC-OPF solves per site curve. The tangent search needs at
/// most 2k + 1 solves for k breakpoints, so only a grid with dozens of
/// binding events along one site's draw (or a solver returning non-convex
/// costs) reaches it.
constexpr std::size_t kMaxOpfSolvesPerSite = 128;
/// End-point LMPs closer than this ($/MWh) are the same slope.
constexpr double kSameLmp = 1e-9;
/// C(x) within this relative distance of the tangents lies on them.
constexpr double kOnTangentRel = 1e-9;
/// Breakpoints closer than this (MW) bound a zero-width piece.
constexpr double kSameDrawMw = 1e-9;

/// L-inf distance between two iterates; mismatched sizes are maximally far
/// (never part of a cycle).
double linf(std::span<const double> a, std::span<const double> b) noexcept {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

}  // namespace

OscillationDetector::OscillationDetector(std::size_t window, double tol_mw)
    : window_(std::max<std::size_t>(4, window)), tol_(tol_mw) {}

bool OscillationDetector::push(std::span<const double> iterate) {
  recent_.emplace_back(iterate.begin(), iterate.end());
  if (recent_.size() > window_) recent_.pop_front();
  period_ = 0;

  const std::size_t n = recent_.size();
  if (n < 4) return false;
  // A settling sequence must not fire: if the latest step is already within
  // tolerance the iteration is converging, not cycling.
  if (linf(recent_[n - 1], recent_[n - 2]) <= tol_) return false;

  for (std::size_t k = 2; 2 * k <= n; ++k) {
    bool cycle = true;
    // Two full periods: the last k entries must match the k before them.
    for (std::size_t j = 0; j < k && cycle; ++j)
      cycle = linf(recent_[n - 1 - j], recent_[n - 1 - j - k]) <= tol_;
    if (cycle) {
      period_ = k;
      return true;
    }
  }
  return false;
}

void OscillationDetector::reset() noexcept {
  recent_.clear();
  period_ = 0;
}

DampingLadder::DampingLadder(std::size_t deescalate_after)
    : deescalate_after_(std::max<std::size_t>(1, deescalate_after)) {}

void DampingLadder::on_hour(bool troubled) noexcept {
  if (troubled) {
    rung_ = std::min(kMaxRung, rung_ + 1);
    clean_streak_ = 0;
    return;
  }
  if (rung_ == 0) return;
  if (++clean_streak_ >= deescalate_after_) {
    --rung_;
    clean_streak_ = 0;
  }
}

bool CoupledHourFaults::nominal() const noexcept {
  for (std::uint8_t out : line_out)
    if (out) return false;
  for (double f : line_limit_factor)
    if (f != 1.0) return false;
  for (double m : bus_demand_multiplier)
    if (m != 1.0) return false;
  return true;
}

CoupledMarket::CoupledMarket(Grid grid, std::vector<int> site_buses)
    : grid_(std::move(grid)), site_buses_(std::move(site_buses)) {
  for (int bus : site_buses_)
    if (bus < 0 || bus >= grid_.num_buses())
      throw std::invalid_argument("CoupledMarket: site bus out of range");
}

CoupledMarket CoupledMarket::paper() {
  return CoupledMarket(pjm5_grid(), pjm5_load_buses());
}

Grid CoupledMarket::faulted_grid(const CoupledHourFaults* faults) const {
  if (faults == nullptr || faults->nominal()) return grid_;
  Grid out;
  for (int b = 0; b < grid_.num_buses(); ++b) out.add_bus(grid_.bus_name(b));
  for (int l = 0; l < grid_.num_lines(); ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    if (li < faults->line_out.size() && faults->line_out[li]) continue;
    const Line& line = grid_.line(l);
    double limit = line.limit_mw;
    // A derated line with no nominal limit stays unlimited (limit <= 0 is
    // the "no thermal constraint" convention, not a zero-MW line).
    if (limit > 0.0 && li < faults->line_limit_factor.size())
      limit *= std::max(0.0, faults->line_limit_factor[li]);
    out.add_line(line.name, line.from_bus, line.to_bus, line.reactance, limit);
  }
  for (const Generator& g : grid_.generators())
    out.add_generator(g.name, g.bus, g.capacity_mw, g.marginal_cost);
  return out;
}

std::vector<double> CoupledMarket::nodal_loads(
    std::span<const double> site_power_mw, std::span<const double> background_mw,
    double feedback_gain, const CoupledHourFaults* faults) const {
  std::vector<double> loads(static_cast<std::size_t>(grid_.num_buses()), 0.0);
  for (std::size_t i = 0; i < site_buses_.size(); ++i) {
    const std::size_t bus = static_cast<std::size_t>(site_buses_[i]);
    double mult = 1.0;
    if (faults != nullptr && bus < faults->bus_demand_multiplier.size())
      mult = faults->bus_demand_multiplier[bus];
    loads[bus] += background_mw[i] * mult + feedback_gain * site_power_mw[i];
  }
  return loads;
}

DcOpfResult CoupledMarket::solve_at(std::span<const double> site_power_mw,
                                    std::span<const double> background_mw,
                                    double feedback_gain,
                                    const CoupledHourFaults* faults) const {
  if (site_power_mw.size() != site_buses_.size() ||
      background_mw.size() != site_buses_.size())
    throw std::invalid_argument("CoupledMarket::solve_at: size mismatch");
  return solve_dcopf(faulted_grid(faults),
                     nodal_loads(site_power_mw, background_mw, feedback_gain,
                                 faults));
}

std::vector<PricingPolicy> CoupledMarket::derive_local_policies(
    std::span<const double> site_power_mw, std::span<const double> background_mw,
    std::span<const double> billing_base_mw, std::span<const double> sweep_cap_mw,
    const ClosedLoopOptions& options, const CoupledHourFaults* faults) const {
  const std::size_t n = site_buses_.size();
  if (site_power_mw.size() != n || background_mw.size() != n ||
      billing_base_mw.size() != n || sweep_cap_mw.size() != n)
    throw std::invalid_argument(
        "CoupledMarket::derive_local_policies: size mismatch");
  const double gain = options.feedback_gain;
  const Grid working = faulted_grid(faults);
  std::vector<double> loads =
      nodal_loads(site_power_mw, background_mw, gain, faults);

  // One sample of C(p), the OPF cost as a function of site i's own draw p
  // with every other site pinned at the operating point. C is convex and
  // piecewise linear; its slope is gain * lmp[bus] (any returned dual is a
  // subgradient), and its kinks are where a generator or line limit starts
  // to bind — the breakpoints of the site's step curve.
  struct Sample {
    double p;
    double cost;
    double lmp;
  };

  std::vector<PricingPolicy> policies;
  policies.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bus = static_cast<std::size_t>(site_buses_[i]);
    const double pinned_load = loads[bus];
    std::size_t solves = 0;
    const auto sample = [&](double p) {
      if (++solves > kMaxOpfSolvesPerSite)
        throw std::runtime_error(
            "CoupledMarket: breakpoint search for site " + std::to_string(i) +
            " exceeded " + std::to_string(kMaxOpfSolvesPerSite) +
            " OPF solves");
      loads[bus] = pinned_load + gain * (p - site_power_mw[i]);
      const DcOpfResult opf = solve_dcopf(working, loads);
      if (!opf.ok())
        throw std::runtime_error(
            "CoupledMarket: OPF infeasible deriving site " + std::to_string(i) +
            " at draw " + std::to_string(p) + " MW");
      return Sample{p, opf.total_cost, opf.lmp[bus]};
    };

    const Sample lo = sample(0.0);
    const Sample hi = sweep_cap_mw[i] > 0.0 ? sample(sweep_cap_mw[i]) : lo;
    // Pieces of C over [0, cap] as (start draw, LMP), in draw order.
    std::vector<std::pair<double, double>> pieces = {{0.0, lo.lmp}};
    std::vector<std::pair<Sample, Sample>> open = {{lo, hi}};
    while (!open.empty()) {
      const auto [a, b] = open.back();
      open.pop_back();
      // Equal end slopes: convexity makes C linear on [a, b].
      if (gain == 0.0 || std::abs(b.lmp - a.lmp) <= kSameLmp) continue;
      // Intersect the end tangents. Both lie on or below C, so C(x) on the
      // tangent means C is exactly their maximum here: one kink, at x.
      // Otherwise x's own tangent is a new piece and both halves recurse.
      const double sa = gain * a.lmp;
      const double sb = gain * b.lmp;
      const double x = std::clamp(
          (b.cost - a.cost + sa * a.p - sb * b.p) / (sa - sb), a.p, b.p);
      const Sample mid = sample(x);
      const double tangent = a.cost + sa * (x - a.p);
      if (mid.cost - tangent <= kOnTangentRel * (1.0 + std::abs(tangent))) {
        // A zero-width piece (the solver's dual at a kink can be any
        // subgradient) is overwritten by the piece that follows it.
        if (x - pieces.back().first <= kSameDrawMw)
          pieces.back().second = b.lmp;
        else
          pieces.emplace_back(x, b.lmp);
        continue;
      }
      open.push_back({mid, b});
      open.push_back({a, mid});  // left half first: pieces stay in order
    }
    loads[bus] = pinned_load;

    std::vector<double> thresholds = {0.0};
    std::vector<double> prices = {pieces.front().second};
    for (std::size_t k = 1; k < pieces.size(); ++k) {
      if (std::abs(pieces[k].second - prices.back()) > options.price_tol) {
        thresholds.push_back(billing_base_mw[i] + pieces[k].first);
        prices.push_back(pieces[k].second);
      }
    }
    policies.emplace_back(std::move(thresholds), std::move(prices));
  }
  return policies;
}

PricingPolicy smooth_policy(const PricingPolicy& fresh,
                            const PricingPolicy& previous, double alpha) {
  const double a = std::clamp(alpha, 0.0, 1.0);
  std::vector<double> thresholds = fresh.thresholds_mw();
  std::vector<double> prices = fresh.prices_per_mwh();
  for (std::size_t k = 0; k < prices.size(); ++k)
    prices[k] = a * prices[k] + (1.0 - a) * previous.price_at(thresholds[k]);
  return PricingPolicy(std::move(thresholds), std::move(prices));
}

}  // namespace billcap::market
