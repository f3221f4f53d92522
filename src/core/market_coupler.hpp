#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bill_capper.hpp"
#include "core/cost_model.hpp"
#include "market/closed_loop.hpp"

namespace billcap::core {

/// How hard the coupler damps the price-load feedback.
enum class DampingMode {
  kOff,     ///< undamped fixed point (the destabilizing baseline)
  kLadder,  ///< adaptive: escalate one rung per troubled hour (default)
  kFull,    ///< every rung active from the first iteration of every hour
};
const char* to_string(DampingMode mode) noexcept;

/// Configuration of the closed-loop market coupler.
struct MarketCouplerOptions {
  /// Master switch. Off = the legacy static-curve world, byte-for-byte.
  bool enabled = false;
  /// With `enabled`, false keeps *planning* on the static curves while
  /// billing still happens at the realized coupled LMPs — the open-loop
  /// arm of the resilience comparison (same billing model, no feedback).
  bool plan_closed_loop = true;
  market::ClosedLoopOptions loop;
  DampingMode damping = DampingMode::kLadder;
  /// Clean hours required before the damping ladder steps down a rung.
  std::size_t deescalate_after = 3;

  /// Divergence circuit breaker (hours, not wall time — trajectories stay
  /// bitwise-reproducible across kill/resume): consecutive troubled hours
  /// trip it, it cools down exponentially, one clean half-open probe
  /// closes it. While open, every hour plans open-loop on static curves.
  std::size_t breaker_trip_after = 3;
  std::size_t breaker_cooldown_hours = 4;
  double breaker_cooldown_multiplier = 2.0;
  std::size_t breaker_cooldown_max_hours = 24;
};

/// Drives the closed market loop for the hourly control loop: each hour the
/// capper's allocation is fed back into the DC-OPF as nodal demand, LMPs
/// re-derive the local step curves, and the capper re-decides, inside a
/// bounded fixed-point iteration wrapped in the full fault envelope
/// (oscillation detector, damping ladder, divergence breaker with open-loop
/// fallback). Deterministic: no randomness, no wall clock; all mutable
/// state is exposed for checkpointing.
class MarketCoupler {
 public:
  /// `sites` and `static_policies` must outlive the coupler (the Simulator
  /// owns both).
  MarketCoupler(const std::vector<datacenter::DataCenter>& sites,
                const std::vector<market::PricingPolicy>& static_policies,
                OptimizerOptions optimizer, MarketCouplerOptions options);

  const MarketCouplerOptions& options() const noexcept { return options_; }

  /// Inputs of one hour's planning decision, mirroring what
  /// Simulator::run_capping_hour hands the capper.
  struct HourInputs {
    double premium = 0.0;
    double ordinary = 0.0;
    /// Ground-truth background demand (billing base). When the overrides
    /// carry a believed demand (stale feed) planning uses that instead.
    std::span<const double> true_demand_mw;
    double budget = 0.0;
    const DecideOptions* overrides = nullptr;  ///< may be null
    market::CoupledHourFaults faults;  ///< resolved grid-side hazards
  };

  /// What the hour's planning produced.
  struct HourPlan {
    CappingOutcome outcome;
    bool closed_loop = false;  ///< adopted a converged coupled decision
    bool fallback = false;     ///< planned open-loop (breaker or trouble)
    bool oscillation = false;  ///< detector fired this hour
    bool diverged = false;     ///< iteration cap hit (or coupled solve threw)
    std::size_t iterations = 0;  ///< fixed-point iterations spent
    std::size_t rung = 0;        ///< damping rung in force this hour
  };

  /// Plans one hour. `static_capper` is the simulator's capper over the
  /// static curves — the open-loop fallback path (and the whole plan when
  /// plan_closed_loop is off). Advances the breaker clock and the damping
  /// ladder; call exactly once per simulated hour, in order.
  HourPlan plan_hour(const HourInputs& in, const BillCapper& static_capper);

  /// Coupled ground-truth billing: one OPF at the realized allocation's
  /// physical draw gives the hour's LMPs; each site is billed through the
  /// exact physics (integer servers, overage penalty) at a flat policy
  /// pinned to its realized LMP. Falls back to the static curves if the
  /// realized OPF is infeasible (a faulted grid that cannot carry the
  /// hour's load at all).
  GroundTruth bill(std::span<const double> lambda,
                   std::span<const double> true_demand_mw,
                   const market::CoupledHourFaults& faults) const;

  /// Breaker observability.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  BreakerState breaker_state() const noexcept { return breaker_state_; }
  std::size_t breaker_trips() const noexcept { return trips_; }
  std::size_t rung() const noexcept { return ladder_.rung(); }

  /// Checkpoint support: everything that varies hour over hour.
  struct State {
    std::uint64_t breaker_state = 0;  ///< BreakerState as integer
    std::size_t consecutive_troubled = 0;
    std::size_t cooldown_remaining = 0;
    std::size_t current_cooldown_hours = 0;
    std::size_t trips = 0;
    std::size_t rung = 0;
    std::size_t clean_streak = 0;
    bool last_valid = false;           ///< last fixed point below is real
    std::vector<double> last_power_mw;  ///< last hour's executed draw
    std::vector<std::uint8_t> last_active;  ///< sites with nonzero dispatch
  };
  State state() const;
  void restore(const State& state);

 private:
  struct IterationResult {
    CappingOutcome outcome;
    bool converged = false;
    bool oscillation = false;
    bool diverged = false;
    std::size_t iterations = 0;
  };
  /// The bounded fixed-point iteration at one damping rung.
  IterationResult iterate(const HourInputs& in,
                          std::span<const double> planning_demand_mw,
                          std::size_t rung);
  /// Rung-3 flap suppression: keeps a converged plan that powers up a
  /// previously idle site only when it beats the stay-put plan by the
  /// configured cost fraction.
  CappingOutcome apply_hysteresis(const HourInputs& in,
                                  const DecideOptions& ov,
                                  CappingOutcome outcome);
  std::vector<double> physical_power(const CappingOutcome& outcome) const;
  void breaker_on_hour_start() noexcept;   ///< cooldown clock tick
  void breaker_on_attempt(bool troubled) noexcept;

  const std::vector<datacenter::DataCenter>& sites_;
  const std::vector<market::PricingPolicy>& static_policies_;
  MarketCouplerOptions options_;
  market::CoupledMarket market_;
  /// The coupled curves the capper below references; the iteration mutates
  /// the *contents* each pass, so the capper (and its solver arenas)
  /// never needs rebuilding.
  std::vector<market::PricingPolicy> coupled_policies_;
  BillCapper coupled_capper_;
  std::vector<double> sweep_cap_mw_;  ///< per-site own-draw curve range

  market::OscillationDetector detector_;
  market::DampingLadder ladder_;
  BreakerState breaker_state_ = BreakerState::kClosed;
  std::size_t consecutive_troubled_ = 0;
  std::size_t cooldown_remaining_ = 0;
  std::size_t current_cooldown_hours_ = 0;
  std::size_t trips_ = 0;
  bool last_valid_ = false;
  std::vector<double> last_power_mw_;
  std::vector<std::uint8_t> last_active_;
};

}  // namespace billcap::core
