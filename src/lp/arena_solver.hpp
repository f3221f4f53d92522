#pragma once

#include <cstddef>
#include <memory>

#include "lp/milp.hpp"
#include "lp/problem.hpp"

namespace billcap::lp {

/// Warm-start policy for ArenaSolver, fixed for the solver's lifetime.
/// Everything that changes per *call* (node limit, deadline, byte cap)
/// stays in MilpOptions.
struct ArenaConfig {
  /// Reuse the previous solve's final basis as the starting point of the
  /// next solve when the two problems share the same row structure (the
  /// hourly bill-capping MILPs differ only in objective costs and rhs).
  ///
  /// OFF by default, and no controller path turns it on: a resumed month
  /// starts with an empty arena, so a kill/resume run would diverge (at the
  /// ulp level) from an uninterrupted one, and on the real hourly loop the
  /// warm root almost never engages. Benches and tests exercise it.
  bool warm_across_solves = false;
};

/// Counters describing how solves were served. Monotonic over the solver's
/// lifetime; read them before/after a block to attribute a window.
struct ArenaStats {
  long cold_solves = 0;       ///< root solved by two-phase from scratch
  long warm_solves = 0;       ///< root served from the previous solve's basis
  long warm_fallbacks = 0;    ///< warm attempts that fell back to cold
  long node_warm_solves = 0;  ///< B&B children re-solved by dual simplex
  long node_cold_solves = 0;  ///< B&B children that needed a cold rebuild
  long primal_iterations = 0; ///< primal simplex pivots (phases 1+2)
  long dual_iterations = 0;   ///< dual simplex pivots (warm re-solves)
  long nodes_explored = 0;    ///< branch-and-bound nodes across all solves
};

/// Arena-backed MILP/LP solver: one flat preallocated tableau plus basis
/// index arrays and a pooled branch-and-bound node stack, sized once per
/// shape so the solve loops never allocate.
///
/// Branch-and-bound children re-solve from the parent's basis with a dual
/// simplex (bound branching only moves the rhs, so the resident tableau
/// stays dual-feasible); each child costs a handful of pivots instead of a
/// full two-phase solve. With `warm_across_solves` the final basis also
/// carries over to the next solve() on the same row structure: new
/// objective costs are reloaded and polished primal, then the new rhs is
/// swapped in through B^-1 and repaired dual. Every warm path falls back
/// to the cold two-phase solve when basis repair fails, so results match
/// the legacy engine's statuses and objectives (the differential suite in
/// tests/lp/solver_differential_test.cpp pins this to 1e-9 against the
/// test-only oracle library in tests/oracle/).
///
/// This is the only LP engine the libraries ship: the hourly MILPs and the
/// DC-OPF (market::solve_dcopf, which reads LMPs from the duals) both run
/// on it.
///
/// Not thread-safe: one ArenaSolver per thread (the resident tableau and
/// reserved arena are the point of the class).
class ArenaSolver {
 public:
  explicit ArenaSolver(ArenaConfig config = {});
  ~ArenaSolver();
  ArenaSolver(const ArenaSolver&) = delete;
  ArenaSolver& operator=(const ArenaSolver&) = delete;
  // Movable so long-lived owners (BillCapper, region capper vectors) can be
  // moved without losing their reserved arena.
  ArenaSolver(ArenaSolver&&) noexcept;
  ArenaSolver& operator=(ArenaSolver&&) noexcept;

  /// Solves `problem` (MILP via branch-and-bound; a problem without
  /// integer marks is solved at the root only). Status semantics mirror
  /// the legacy branch-and-bound: kOptimal/kInfeasible/kUnbounded,
  /// kNodeLimit and kTimeLimit with the best incumbent, plus
  /// kArenaExhausted when options.max_arena_bytes would be exceeded.
  ///
  /// A problem without integer marks that solves to kOptimal also carries
  /// one dual per constraint, oriented so that duals[i] is the sensitivity
  /// d(objective)/d(rhs_i) in the problem's own sense (for the DC-OPF these
  /// are the LMPs). MILPs return no duals.
  Solution solve(const Problem& problem, const MilpOptions& options = {});

  /// Drops any warm state; the next solve starts cold. Also called
  /// implicitly when a solve's structure does not match the resident one.
  void invalidate() noexcept;

  const ArenaStats& stats() const noexcept;

  /// Current arena footprint in bytes (tableau + cost row + node pool).
  std::size_t arena_bytes() const noexcept;

  const ArenaConfig& config() const noexcept { return config_; }

 private:
  struct Impl;
  ArenaConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace billcap::lp
