#pragma once

// Test-only oracle: the pre-arena branch-and-bound engine. Nothing in src/
// links it; production callers use lp::solve_milp or lp::ArenaSolver.

#include "lp/milp.hpp"
#include "lp/problem.hpp"

namespace billcap::lp {

/// Branch-and-bound with a fresh two-phase simplex (oracle/simplex.hpp) per
/// node and a stack of per-node bound lists: the independent reference the
/// differential suite (tests/lp/solver_differential_test.cpp) and
/// bench/tab_solver_time hold the arena solver to. Same status semantics
/// and search order as lp::solve_milp; no duals.
Solution solve_milp_reference(const Problem& problem,
                              const MilpOptions& options = {});

}  // namespace billcap::lp
