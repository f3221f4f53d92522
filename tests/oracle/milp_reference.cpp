#include "oracle/milp_reference.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "oracle/simplex.hpp"

namespace billcap::lp {

namespace {

/// A subproblem is the root problem plus tightened bounds on the integer
/// variables touched so far. Bounds are stored sparsely to keep nodes small.
struct Node {
  std::vector<std::pair<int, std::pair<double, double>>> bounds;
  double parent_bound;  ///< relaxation objective of the parent (min-sense)
};

/// Most fractional integer variable, or -1 if integral.
int pick_branch_variable(const Problem& problem, std::span<const double> x) {
  int best = -1;
  double best_frac_dist = kIntegralityTol;
  for (int j = 0; j < problem.num_variables(); ++j) {
    if (!problem.variable(j).is_integer) continue;
    const double value = x[static_cast<std::size_t>(j)];
    const double frac = value - std::floor(value);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = j;
    }
  }
  return best;
}

}  // namespace

Solution solve_milp_reference(const Problem& problem,
                              const MilpOptions& options) {
  const bool maximize = problem.sense() == Sense::kMaximize;
  // Internally compare in min-sense: lower is better.
  const auto to_min = [maximize](double obj) { return maximize ? -obj : obj; };

  Solution best;
  best.status = SolveStatus::kInfeasible;
  double incumbent = kInfinity;  // min-sense objective of the best solution
  long total_iterations = 0;
  long nodes = 0;
  bool hit_node_limit = false;
  bool hit_time_limit = false;
  double root_bound = -kInfinity;
  bool root_known = false;

  const bool deadline_armed = options.time_limit_ms > 0.0;
  // The kTimeLimit deadline is real time by definition; deadline-armed
  // solves are documented non-reproducible.
  // billcap-lint: allow(wall-clock): solver deadline timing, never output
  const auto deadline_start = std::chrono::steady_clock::now();
  const auto past_deadline = [&]() {
    if (!deadline_armed) return false;
    // billcap-lint: allow(wall-clock): same sanctioned deadline site
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - deadline_start)
               .count() >= options.time_limit_ms;
  };

  // Depth-first stack; children of the most recently expanded node first.
  std::vector<Node> stack;
  stack.reserve(64);
  stack.push_back(Node{{}, -kInfinity});

  Problem scratch = problem;
  while (!stack.empty()) {
    if (nodes >= options.max_nodes) {
      hit_node_limit = true;
      break;
    }
    if (past_deadline()) {
      hit_time_limit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();

    // Bound pruning against the incumbent before paying for an LP solve.
    if (node.parent_bound >= incumbent - kAbsoluteGap) continue;

    // Apply this node's bounds on top of the root problem.
    scratch = problem;
    bool empty_interval = false;
    for (const auto& [var, lu] : node.bounds) {
      const auto& [lo, hi] = lu;
      if (lo > hi + 1e-9) {
        empty_interval = true;
        break;
      }
      scratch.set_bounds(var, lo, std::max(lo, hi));
    }
    if (empty_interval) continue;

    ++nodes;
    Solution relax = solve_lp(scratch);
    total_iterations += relax.iterations;
    if (relax.status == SolveStatus::kUnbounded) {
      // An unbounded relaxation at the root means the MILP is unbounded
      // (or infeasible, which we cannot distinguish cheaply; report
      // unbounded as LP theory suggests for rational data).
      Solution sol;
      sol.status = SolveStatus::kUnbounded;
      sol.nodes = nodes;
      sol.iterations = total_iterations;
      return sol;
    }
    if (relax.status != SolveStatus::kOptimal) continue;  // infeasible node

    const double bound = to_min(relax.objective);
    if (!root_known) {
      root_bound = bound;
      root_known = true;
    }
    if (bound >= incumbent - kAbsoluteGap &&
        bound >= incumbent - kRelativeGap * std::abs(incumbent)) {
      continue;  // cannot improve
    }

    const int branch_var = pick_branch_variable(problem, relax.x);
    if (branch_var < 0) {
      // Integral: new incumbent.
      if (bound < incumbent) {
        incumbent = bound;
        best = std::move(relax);
        best.duals.clear();  // duals are not meaningful for the MILP
        // Snap integers exactly.
        for (int j = 0; j < problem.num_variables(); ++j) {
          if (problem.variable(j).is_integer)
            best.x[static_cast<std::size_t>(j)] =
                std::round(best.x[static_cast<std::size_t>(j)]);
        }
        best.objective = problem.objective_value(best.x);
      }
      continue;
    }

    // Branch: floor side and ceil side.
    const double value = relax.x[static_cast<std::size_t>(branch_var)];
    const double floor_value = std::floor(value);
    const Variable& v = problem.variable(branch_var);

    // Current effective bounds for branch_var at this node.
    double cur_lo = v.lower;
    double cur_hi = v.upper;
    for (const auto& [var, lu] : node.bounds) {
      if (var == branch_var) {
        cur_lo = lu.first;
        cur_hi = lu.second;
      }
    }

    auto make_child = [&](double lo, double hi) {
      Node child;
      child.bounds = node.bounds;
      child.parent_bound = bound;
      bool replaced = false;
      for (auto& [var, lu] : child.bounds) {
        if (var == branch_var) {
          lu = {lo, hi};
          replaced = true;
        }
      }
      if (!replaced) child.bounds.push_back({branch_var, {lo, hi}});
      return child;
    };

    Node down = make_child(cur_lo, std::min(cur_hi, floor_value));
    Node up = make_child(std::max(cur_lo, floor_value + 1.0), cur_hi);
    // Explore the side closer to the fractional value first (pushed last).
    const double frac = value - floor_value;
    if (frac <= 0.5) {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    } else {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    }
  }

  best.nodes = nodes;
  best.iterations = total_iterations;
  const bool cut_short = hit_node_limit || hit_time_limit;
  if (best.status == SolveStatus::kOptimal) {
    // Best proven bound: the weakest of what remains on the stack, or the
    // incumbent itself when the search completed.
    double open_bound = incumbent;
    if (cut_short) {
      for (const Node& nd : stack)
        open_bound = std::min(open_bound, nd.parent_bound);
      open_bound = std::max(open_bound, root_known ? root_bound : -kInfinity);
    }
    best.best_bound = maximize ? -open_bound : open_bound;
    if (hit_time_limit) best.status = SolveStatus::kTimeLimit;
    else if (hit_node_limit) best.status = SolveStatus::kNodeLimit;
  } else if (cut_short) {
    best.status = hit_time_limit ? SolveStatus::kTimeLimit
                                 : SolveStatus::kNodeLimit;
  }
  return best;
}

}  // namespace billcap::lp
