#pragma once

// Test-only oracle: the dense two-phase tableau simplex the arena solver
// (lp/arena_solver.hpp) was derived from. The differential suites hold the
// shipped engine to it; nothing in src/ links it.

#include "lp/milp.hpp"
#include "lp/problem.hpp"

namespace billcap::lp {

/// Solves the LP relaxation of `problem` (integrality marks are ignored)
/// with a dense two-phase tableau simplex.
///
/// On kOptimal the solution carries primal values for every variable and a
/// dual value per original constraint, oriented so that duals[i] is the
/// sensitivity d(objective)/d(rhs_i) in the problem's own sense, the same
/// readout lp::ArenaSolver gives a pure LP.
Solution solve_lp(const Problem& problem, const SimplexOptions& options = {});

}  // namespace billcap::lp
