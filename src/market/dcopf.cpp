#include "market/dcopf.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "lp/arena_solver.hpp"

namespace billcap::market {

DcOpfLp build_dcopf_lp(const Grid& grid, std::span<const double> load_mw) {
  const int nb = grid.num_buses();
  const int nl = grid.num_lines();
  const int ng = grid.num_generators();
  if (static_cast<int>(load_mw.size()) != nb)
    throw std::invalid_argument("solve_dcopf: one load per bus required");
  if (nb == 0 || ng == 0)
    throw std::invalid_argument("solve_dcopf: need buses and generators");

  DcOpfLp opf;
  lp::Problem& p = opf.problem;
  p.set_sense(lp::Sense::kMinimize);

  // Generator dispatch variables.
  std::vector<int>& gen_var = opf.gen_var;
  gen_var.resize(static_cast<std::size_t>(ng));
  for (int g = 0; g < ng; ++g) {
    const Generator& gen = grid.generator(g);
    gen_var[static_cast<std::size_t>(g)] = p.add_variable(
        "P." + gen.name, 0.0, gen.capacity_mw, gen.marginal_cost);
  }

  // Bus angles; the slack bus (0) is pinned at zero.
  std::vector<int>& theta_var = opf.theta_var;
  theta_var.resize(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    const bool slack = (b == 0);
    theta_var[static_cast<std::size_t>(b)] = p.add_variable(
        "theta." + grid.bus_name(b), slack ? 0.0 : -lp::kInfinity,
        slack ? 0.0 : lp::kInfinity);
  }

  // Line flows as explicit variables tied to the angle difference.
  std::vector<int>& flow_var = opf.flow_var;
  flow_var.resize(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l) {
    const Line& line = grid.line(l);
    const double cap =
        line.limit_mw > 0.0 ? line.limit_mw : lp::kInfinity;
    const int f = p.add_variable("f." + line.name,
                                 cap == lp::kInfinity ? -lp::kInfinity : -cap,
                                 cap);
    flow_var[static_cast<std::size_t>(l)] = f;
    const double b_susceptance = 1.0 / line.reactance;
    // f - (theta_from - theta_to)/x = 0.
    p.add_constraint(
        "flowdef." + line.name,
        {{f, 1.0},
         {theta_var[static_cast<std::size_t>(line.from_bus)], -b_susceptance},
         {theta_var[static_cast<std::size_t>(line.to_bus)], b_susceptance}},
        lp::Relation::kEqual, 0.0);
  }

  // Nodal balance per bus: generation - net outflow = load. The dual of
  // this row is the bus LMP.
  std::vector<int>& balance_row = opf.balance_row;
  balance_row.resize(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    std::vector<lp::Term> terms;
    for (int g = 0; g < ng; ++g)
      if (grid.generator(g).bus == b)
        terms.push_back({gen_var[static_cast<std::size_t>(g)], 1.0});
    for (int l = 0; l < nl; ++l) {
      const Line& line = grid.line(l);
      if (line.from_bus == b)
        terms.push_back({flow_var[static_cast<std::size_t>(l)], -1.0});
      else if (line.to_bus == b)
        terms.push_back({flow_var[static_cast<std::size_t>(l)], 1.0});
    }
    if (terms.empty() && load_mw[static_cast<std::size_t>(b)] != 0.0)
      throw std::invalid_argument("solve_dcopf: isolated loaded bus " +
                                  grid.bus_name(b));
    balance_row[static_cast<std::size_t>(b)] = p.add_constraint(
        "balance." + grid.bus_name(b), std::move(terms), lp::Relation::kEqual,
        load_mw[static_cast<std::size_t>(b)]);
  }

  return opf;
}

DcOpfResult read_dcopf_solution(const DcOpfLp& opf, const lp::Solution& sol) {
  const std::vector<int>& gen_var = opf.gen_var;
  const std::vector<int>& flow_var = opf.flow_var;
  const std::vector<int>& theta_var = opf.theta_var;
  const std::vector<int>& balance_row = opf.balance_row;
  const int ng = static_cast<int>(gen_var.size());
  const int nl = static_cast<int>(flow_var.size());
  const int nb = static_cast<int>(theta_var.size());
  DcOpfResult out;
  out.status = sol.status;
  if (!sol.ok()) return out;

  out.total_cost = sol.objective;
  out.dispatch_mw.resize(static_cast<std::size_t>(ng));
  for (int g = 0; g < ng; ++g)
    out.dispatch_mw[static_cast<std::size_t>(g)] =
        sol.x[static_cast<std::size_t>(gen_var[static_cast<std::size_t>(g)])];
  out.flow_mw.resize(static_cast<std::size_t>(nl));
  for (int l = 0; l < nl; ++l)
    out.flow_mw[static_cast<std::size_t>(l)] =
        sol.x[static_cast<std::size_t>(flow_var[static_cast<std::size_t>(l)])];
  out.theta.resize(static_cast<std::size_t>(nb));
  out.lmp.resize(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    out.theta[static_cast<std::size_t>(b)] =
        sol.x[static_cast<std::size_t>(theta_var[static_cast<std::size_t>(b)])];
    out.lmp[static_cast<std::size_t>(b)] =
        sol.duals[static_cast<std::size_t>(balance_row[static_cast<std::size_t>(b)])];
  }
  return out;
}

DcOpfResult solve_dcopf(const Grid& grid, std::span<const double> load_mw) {
  const DcOpfLp opf = build_dcopf_lp(grid, load_mw);
  // A pure LP: the arena solves it at the root and reads the balance-row
  // duals off its final tableau. A fresh solver per call keeps the OPF a
  // pure function of (grid, load).
  lp::ArenaSolver solver;
  return read_dcopf_solution(opf, solver.solve(opf.problem));
}

DcOpfReport analyze_opf(const Grid& grid, const DcOpfResult& result,
                        double tol) {
  if (!result.ok())
    throw std::invalid_argument("analyze_opf: result is not optimal");
  DcOpfReport report;
  report.reference_price = result.lmp.empty() ? 0.0 : result.lmp.front();
  report.congestion_component.reserve(result.lmp.size());
  for (double lmp : result.lmp)
    report.congestion_component.push_back(lmp - report.reference_price);

  for (int g = 0; g < grid.num_generators(); ++g) {
    const Generator& gen = grid.generator(g);
    const double dispatch = result.dispatch_mw[static_cast<std::size_t>(g)];
    if (dispatch >= gen.capacity_mw - tol && dispatch > tol) {
      report.binding.push_back({BindingConstraint::Kind::kGeneratorLimit, g,
                                dispatch});
    }
  }
  for (int l = 0; l < grid.num_lines(); ++l) {
    const Line& line = grid.line(l);
    if (line.limit_mw <= 0.0) continue;
    const double flow =
        std::abs(result.flow_mw[static_cast<std::size_t>(l)]);
    if (flow >= line.limit_mw - tol) {
      report.binding.push_back({BindingConstraint::Kind::kLineLimit, l, flow});
    }
  }
  return report;
}

}  // namespace billcap::market
