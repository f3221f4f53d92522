#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cost_minimizer.hpp"
#include "core/throughput_maximizer.hpp"

namespace billcap::core {

/// Why an hour's allocation came from the degradation ladder (incumbent or
/// greedy heuristic) instead of a clean optimal solve.
enum class FailureReason {
  kNone,            ///< clean optimal solves all the way
  kNodeLimit,       ///< branch-and-bound node budget exhausted
  kIterationLimit,  ///< simplex pivot budget exhausted
  kTimeLimit,       ///< wall-clock solver deadline expired
  kInfeasible,      ///< solver reported infeasible (numerical trouble)
  kUnbounded,       ///< solver reported unbounded (model corruption)
  kArenaExhausted,  ///< solver arena byte cap hit (lp::kArenaExhausted)
  kThrown,          ///< chunk task threw; caught at the fault envelope
  kPriceOscillation,  ///< market coupler detected a price-load limit cycle
  kCouplerDiverged,   ///< coupler fixed point missed its iteration cap
};

/// Number of FailureReason values (for per-reason tally arrays).
inline constexpr std::size_t kFailureReasonCount = 10;

const char* to_string(FailureReason reason) noexcept;

/// Maps a failed solve status onto the reason recorded for the hour.
FailureReason failure_reason_from(lp::SolveStatus status) noexcept;

/// One invocation of the two-step bill capping algorithm (Section III).
struct CappingOutcome {
  /// Which branch of the algorithm produced the allocation.
  enum class Mode {
    kUncapped,     ///< step 1 alone: minimized cost fits the hourly budget
    kCapped,       ///< step 2: ordinary traffic throttled to fit the budget
    kPremiumOnly,  ///< budget insufficient even for premium: QoS guarantee
                   ///< forces a deliberate budget violation (Section V-B)
  };
  Mode mode = Mode::kUncapped;
  AllocationResult allocation;
  double hourly_budget = 0.0;
  double served_premium = 0.0;   ///< requests/hour with guaranteed QoS
  double served_ordinary = 0.0;  ///< best-effort requests/hour served
  double dropped_capacity = 0.0; ///< arrivals beyond physical capacity

  /// Degradation ladder bookkeeping: optimal -> incumbent -> greedy
  /// heuristic. `degraded` is true whenever any step fell off the top rung.
  bool degraded = false;
  FailureReason failure = FailureReason::kNone;
  bool used_incumbent = false;  ///< reused a limit-terminated solve's best
  bool used_heuristic = false;  ///< greedy water-filling produced the hour
};

const char* to_string(CappingOutcome::Mode mode) noexcept;

/// Per-call environment overrides for fault injection and degraded
/// operation. All spans are either empty (no override) or one entry per
/// site.
struct DecideOptions {
  /// 0 = site is down this hour (capacity forced to zero, surviving sites
  /// absorb the load). Empty = all sites up.
  std::span<const std::uint8_t> site_available{};
  /// The background demand the *optimizer believes* (a stale market feed);
  /// ground-truth billing still uses the real demand. Empty = fresh feed.
  std::span<const double> believed_demand_mw{};
  /// Wall-clock deadline for each MILP solve this hour; >= 0 overrides the
  /// configured MilpOptions::time_limit_ms, < 0 keeps it.
  double time_limit_ms = -1.0;
  /// Branch-and-bound node budget for each MILP solve this hour; >= 0
  /// overrides MilpOptions::max_nodes, < 0 keeps it. The fleet layer's
  /// primary (deterministic) chunk deadline.
  long max_nodes = -1;
  /// Per-solve arena byte cap; nonzero tightens
  /// MilpOptions::max_arena_bytes for this hour's solves (arena exhaustion
  /// degrades the chunk with FailureReason::kArenaExhausted).
  std::size_t max_arena_bytes = 0;
  /// Degraded standby mode: skip the MILP entirely and serve only the
  /// premium workload via the greedy fallback allocator (the supervisor's
  /// escalation target when the primary keeps dying). The outcome is
  /// tagged degraded + used_heuristic with mode kPremiumOnly.
  bool standby = false;
};

/// The bill capper: per invocation period, first minimize cost for the full
/// workload; if the predicted cost exceeds the hourly budget, re-solve as
/// throughput maximization within the budget, admission-controlling only
/// ordinary customers; if even the premium workload cannot fit, serve
/// premium at minimum cost and accept the violation.
///
/// decide() never throws on solver trouble: a limit-terminated solve's
/// incumbent is reused when feasible, otherwise the greedy fallback
/// allocator produces the hour, and the outcome is tagged degraded. Only
/// caller bugs (negative arrivals, size mismatches) raise
/// std::invalid_argument.
///
/// Holds references to the site and policy catalogs — the caller keeps them
/// alive for the capper's lifetime (the Simulator owns both).
class BillCapper {
 public:
  BillCapper(const std::vector<datacenter::DataCenter>& sites,
             const std::vector<market::PricingPolicy>& policies,
             OptimizerOptions options = {});

  /// Decides the hour's allocation. `lambda_premium`/`lambda_ordinary` are
  /// the hour's arriving premium/ordinary request rates, `other_demand_mw`
  /// the per-site background demand, `hourly_budget` the budgeter's figure.
  /// Arrivals beyond the believed system capacity are shed (ordinary
  /// first) and reported as dropped_capacity.
  CappingOutcome decide(double lambda_premium, double lambda_ordinary,
                        std::span<const double> other_demand_mw,
                        double hourly_budget) const;

  /// Same, with fault-injection / degraded-mode overrides.
  CappingOutcome decide(double lambda_premium, double lambda_ordinary,
                        std::span<const double> other_demand_mw,
                        double hourly_budget,
                        const DecideOptions& overrides) const;

 private:
  const std::vector<datacenter::DataCenter>& sites_;
  const std::vector<market::PricingPolicy>& policies_;
  OptimizerOptions options_;
  // One persistent solver per solve role, kept as an allocation cache: each
  // role's tableau and node pool are reserved once and reused hour over
  // hour instead of reallocated per solve. No basis carries over between
  // calls (cross-solve warm starts are off), so decide() remains a pure
  // function of its arguments. Mutable: the arenas are a cache, not an
  // observable property of the capper.
  mutable lp::ArenaSolver min_cost_solver_;
  mutable lp::ArenaSolver throughput_solver_;
  mutable lp::ArenaSolver premium_solver_;
};

}  // namespace billcap::core
