#pragma once

#include <cstddef>
#include <span>

#include "core/formulation.hpp"
#include "lp/milp.hpp"

namespace billcap::core {

/// Exact cost minimization over believed site models by price-segment
/// enumeration: the cost-minimizing MILP of build_allocation_formulation
/// plus the demand row sum_i lambda_i = lambda_total, solved without an LP.
///
/// The MILP is separable (Section IV-C, the segment binaries of Trecate et
/// al. [22]): each site's cost depends on its own draw, and the sites meet
/// only in the demand row. Fixing, per site, "off" or one price segment k
/// turns the rest into a continuous knapsack: every site gets a lambda
/// interval and a convex piecewise-linear cost on it, the mandatory lows are
/// placed, and the remaining demand fills the pieces in ascending marginal
/// $/request (ties: lower site index first). Heterogeneous sites fill their
/// server classes cheapest-first; when a segment's lower power bound is
/// reachable by the expensive classes alone, the interval starts where an
/// expensive-first draw reaches it and a zero-marginal piece runs to where
/// the cheap-first draw does. The cheapest combination wins; exact cost ties
/// go to the lowest combination index (sites in order, "off" before segment
/// 0 before segment 1 ...).
///
/// The combinations are walked depth-first, one site per level. Each tree
/// node is evaluated by one greedy fill in which the unassigned sites are
/// relaxed to the lower convex envelope of their cost; a node whose bound
/// cannot beat the incumbent is pruned with its subtree, so a leaf's fill is
/// its exact cost and no combination that could win is skipped.
///
/// Limits keep the meaning they have for branch-and-bound:
///   - options.max_nodes budgets the node evaluations; when it runs out the
///     best combination so far is returned as an incumbent with kNodeLimit
///     (no incumbent when none was feasible yet);
///   - options.time_limit_ms (> 0) is checked before each node, kTimeLimit;
///   - options.max_arena_bytes (nonzero) below
///     segment_allocator_scratch_bytes(models) returns kArenaExhausted
///     before any work.
/// `nodes` reports the nodes evaluated and `iterations` is always 0. A
/// demand no combination can carry is kInfeasible.
///
/// Stateless: all scratch is local to the call, so fleet chunks may call it
/// from pool threads concurrently.
AllocationResult allocate_min_cost(std::span<const SiteModel> models,
                                   double lambda_total,
                                   const lp::MilpOptions& options = {});

/// Bytes of scratch one allocate_min_cost call over `models` uses: the
/// per-site option table, every convex piece, the per-site envelopes and
/// the search stack. Fixed by the models' shapes alone.
std::size_t segment_allocator_scratch_bytes(std::span<const SiteModel> models);

}  // namespace billcap::core
