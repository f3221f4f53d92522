#include "lp/milp.hpp"

#include "lp/arena_solver.hpp"

namespace billcap::lp {

Solution solve_milp(const Problem& problem, const MilpOptions& options) {
  // A fresh solver per call: within-call warm starts (B&B children resume
  // from the parent basis) apply, cross-call state does not, keeping this
  // free function a pure function of its arguments. Long-lived callers hold
  // their own ArenaSolver to reuse its reserved arena.
  ArenaSolver solver;
  return solver.solve(problem, options);
}

}  // namespace billcap::lp
