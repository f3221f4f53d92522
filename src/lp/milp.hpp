#pragma once

#include <cstddef>

#include "lp/problem.hpp"

namespace billcap::lp {

/// Simplex tolerances and limits, fixed for the dense, small-to-medium
/// problems this repository generates (tens to a few hundred rows).
inline constexpr long kMaxSimplexIterations = 50'000;  ///< pivots per LP
inline constexpr double kPivotTol = 1e-9;        ///< minimum |pivot| accepted
inline constexpr double kFeasibilityTol = 1e-7;  ///< phase-1 residual as zero
inline constexpr double kOptimalityTol = 1e-9;   ///< reduced cost as >= 0
/// Pivots without objective improvement before switching to Bland's rule
/// (guaranteed anti-cycling).
inline constexpr long kStallThreshold = 200;

/// Branch-and-bound tolerances, fixed like the simplex ones: the paper
/// solves its MILPs with one fixed solver setting (lp_solve, Section IV-C).
inline constexpr double kIntegralityTol = 1e-6;  ///< |x - round(x)| integral
/// A node is pruned once its bound is within both gaps of the incumbent.
inline constexpr double kRelativeGap = 1e-9;
inline constexpr double kAbsoluteGap = 1e-9;

/// The per-call limits of one branch-and-bound search. Defaults comfortably
/// cover the paper's problems (3 data centers x 5 price levels => ~20
/// binaries).
struct MilpOptions {
  long max_nodes = 200'000;  ///< node limit before kNodeLimit
  /// Wall-clock deadline for the whole branch-and-bound search in
  /// milliseconds; <= 0 disables the deadline. On expiry the best incumbent
  /// found so far is returned with SolveStatus::kTimeLimit (an hourly
  /// control loop must never block on one stubborn solve).
  double time_limit_ms = 0.0;
  /// Arena byte cap for this solve (tableau + node pool); 0 = unlimited.
  /// The fleet layer uses it to squeeze one chunk's solve without touching
  /// the arena its capper keeps across hours. Exhaustion surfaces as
  /// SolveStatus::kArenaExhausted, never a throw.
  std::size_t max_arena_bytes = 0;
};

/// Solves a mixed-integer linear program by LP-based branch-and-bound:
/// depth-first on a best-bound-ordered stack, branching on the most
/// fractional integer variable, pruning nodes whose relaxation bound cannot
/// beat the incumbent.
///
/// This plays the role lp_solve plays in the paper (Section IV-C). On
/// kOptimal the solution is integral within kIntegralityTol (values are
/// snapped to exact integers), `best_bound` proves optimality within the
/// gap, and `nodes`/`iterations` report search effort. Duals are not
/// populated for MILPs.
///
/// This entry point runs lp::ArenaSolver (one solve-local instance: B&B
/// children warm start from the parent basis via dual simplex; no state
/// survives the call, so results stay a pure function of the inputs). The
/// original stack-of-Problem-copies engine lives on only as a test oracle
/// (tests/oracle/milp_reference.hpp), held equal to this path by
/// tests/lp/solver_differential_test.cpp.
Solution solve_milp(const Problem& problem, const MilpOptions& options = {});

}  // namespace billcap::lp
