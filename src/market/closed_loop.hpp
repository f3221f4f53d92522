#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "market/dcopf.hpp"
#include "market/grid.hpp"
#include "market/pricing_policy.hpp"

namespace billcap::market {

/// Knobs of the bounded fixed-point iteration that closes the market loop
/// (allocation -> nodal demand -> LMPs -> step curves -> allocation). All
/// defaults are the ones bench/market_loop archives.
struct ClosedLoopOptions {
  /// Fraction of each site's physical draw fed back into its bus's nodal
  /// demand. 1.0 = the paper's price-maker world; > 1 models a fleet whose
  /// co-located tenants follow the same price signal (the destabilizing
  /// regime the oscillation machinery exists for).
  double feedback_gain = 1.0;
  /// Fixed-point iteration cap per hour; hitting it without convergence
  /// classifies the hour kCouplerDiverged.
  std::size_t max_iters = 12;
  /// Converged when no site's physical draw moved more than this (MW)
  /// between consecutive iterates.
  double epsilon_mw = 0.25;
  /// LMP step-collapse tolerance when re-deriving local curves ($/MWh).
  double price_tol = 0.05;
  /// Rung >= 1: blend freshly derived curve prices toward the previous
  /// iterate's curve (new = alpha * fresh + (1 - alpha) * previous).
  double smoothing_alpha = 0.5;
  /// Rung >= 2: per-iteration cap on each site's fed-back draw move (MW),
  /// halved every iteration so the damped feedback signal is forced to
  /// settle within ~log2(cap/eps) iterates.
  double trust_region_mw = 16.0;
  /// Rung 3: a plan that powers up a previously idle site is kept only if
  /// it beats the stay-put plan's predicted cost by this fraction.
  double hysteresis_frac = 0.02;
};

/// Deterministic cycle detector over the fixed-point iterates: a sliding
/// window of recent vectors (L-inf metric). Fires when the latest iterate
/// closes a period-k cycle (k >= 2) that is *not* plain convergence — the
/// consecutive delta must still exceed the tolerance, so a settling
/// sequence (period-1) and a slow monotone drift never fire.
class OscillationDetector {
 public:
  explicit OscillationDetector(std::size_t window = 8, double tol_mw = 0.5);

  /// Pushes the next iterate; returns true when it completes a period-k
  /// cycle (2 <= k <= window/2) observed over two full periods.
  bool push(std::span<const double> iterate);

  /// Detected cycle length of the last firing push (0 = none yet).
  std::size_t period() const noexcept { return period_; }

  void reset() noexcept;

 private:
  std::size_t window_;
  double tol_;
  std::size_t period_ = 0;
  std::deque<std::vector<double>> recent_;
};

/// The damping ladder: one rung per hazard response, escalated one rung per
/// troubled hour and de-escalated one rung only after a streak of clean
/// hours (hysteresis, mirroring the serve admission ladder).
///   rung 0 — undamped fixed point
///   rung 1 — + LMP smoothing (ClosedLoopOptions::smoothing_alpha)
///   rung 2 — + trust-region cap on per-iteration feedback moves
///   rung 3 — + hysteresis on powering up idle sites
class DampingLadder {
 public:
  static constexpr std::size_t kMaxRung = 3;

  explicit DampingLadder(std::size_t deescalate_after = 3);

  std::size_t rung() const noexcept { return rung_; }

  /// Feeds one finished hour's verdict: troubled hours step the ladder up
  /// one rung immediately; `deescalate_after` consecutive clean hours step
  /// it down one.
  void on_hour(bool troubled) noexcept;

  /// Checkpoint support.
  struct State {
    std::size_t rung = 0;
    std::size_t clean_streak = 0;
  };
  State snapshot() const noexcept { return {rung_, clean_streak_}; }
  void restore(const State& state) noexcept {
    rung_ = state.rung;
    clean_streak_ = state.clean_streak;
  }

 private:
  std::size_t deescalate_after_;
  std::size_t rung_ = 0;
  std::size_t clean_streak_ = 0;
};

/// Grid-side hazards resolved for one hour (from the FaultInjector's
/// TransmissionLineOutage / BackgroundDemandShock / CongestionSpike kinds).
/// Empty vectors mean the nominal grid.
struct CoupledHourFaults {
  std::vector<std::uint8_t> line_out;   ///< per line; 1 = removed this hour
  std::vector<double> line_limit_factor;  ///< per line thermal derate (1 = nominal)
  std::vector<double> bus_demand_multiplier;  ///< per bus background scale

  bool nominal() const noexcept;
};

/// The physical side of the closed loop: a grid whose load buses host the
/// data centers. Solves the hour's DC-OPF with the fleet's draw added to
/// nodal demand and re-derives each site's *local* step curve from the exact
/// LMP breakpoints along that site's own draw with every other site held
/// fixed — the price response the controller re-decides against.
class CoupledMarket {
 public:
  /// `site_buses[i]` is the grid bus of site i.
  CoupledMarket(Grid grid, std::vector<int> site_buses);

  /// The paper's instance: the PJM five-bus grid with the three data
  /// centers on its load buses B, C, D.
  static CoupledMarket paper();

  std::size_t num_sites() const noexcept { return site_buses_.size(); }
  const Grid& grid() const noexcept { return grid_; }
  const std::vector<int>& site_buses() const noexcept { return site_buses_; }

  /// OPF at the operating point: bus load = background (scaled by any
  /// BackgroundDemandShock) + feedback_gain * site draw, under the hour's
  /// line outages / congestion derates. `faults` may be null (nominal).
  DcOpfResult solve_at(std::span<const double> site_power_mw,
                       std::span<const double> background_mw,
                       double feedback_gain,
                       const CoupledHourFaults* faults) const;

  /// Re-derives one step curve per site around the operating point: along
  /// site i's own draw p in [0, sweep_cap_mw[i]], with the other sites at
  /// `site_power_mw`, the OPF cost C(p) is convex and piecewise linear with
  /// slope feedback_gain * LMP. A tangent-intersection search finds its
  /// kinks exactly (at most 2k + 1 OPF solves for k kinks), and the pieces'
  /// LMPs collapse into a PricingPolicy under `options.price_tol`, as the
  /// static derivation does. The returned thresholds are expressed over the
  /// site's *total* locational consumption p + billing_base_mw[i], so
  /// PricingPolicy::cost_for keeps its contract when the capper passes that
  /// same demand.
  ///
  /// Throws std::runtime_error if the OPF is infeasible anywhere on a
  /// site's range (load shed beyond the grid's capability) or a site's
  /// search exceeds its solve cap.
  std::vector<PricingPolicy> derive_local_policies(
      std::span<const double> site_power_mw,
      std::span<const double> background_mw,
      std::span<const double> billing_base_mw,
      std::span<const double> sweep_cap_mw, const ClosedLoopOptions& options,
      const CoupledHourFaults* faults) const;

 private:
  /// Grid with the hour's line outages removed and congestion derates
  /// applied; returns the nominal grid when `faults` is null/nominal.
  Grid faulted_grid(const CoupledHourFaults* faults) const;

  /// Per-bus load at the operating point: background (scaled by any
  /// BackgroundDemandShock) + feedback_gain * site draw.
  std::vector<double> nodal_loads(std::span<const double> site_power_mw,
                                  std::span<const double> background_mw,
                                  double feedback_gain,
                                  const CoupledHourFaults* faults) const;

  Grid grid_;
  std::vector<int> site_buses_;
};

/// Rung-1 damping: a copy of `fresh` whose level prices are blended toward
/// `previous`'s price at the same consumption level
/// (alpha * fresh + (1 - alpha) * previous). Thresholds are kept from
/// `fresh`.
PricingPolicy smooth_policy(const PricingPolicy& fresh,
                            const PricingPolicy& previous, double alpha);

}  // namespace billcap::market
