#include "core/segment_allocator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace billcap::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Slack on the demand row, in requests/hour: the MILP's row feasibility
/// tolerance carried over from its giga-request scaling.
constexpr double kDemandTol = lp::kFeasibilityTol * kLambdaScale;

/// Owner tag of an envelope piece (the site is not assigned yet).
constexpr std::uint32_t kEnvelope = std::numeric_limits<std::uint32_t>::max();

/// One linear piece of a site's cost as a function of its lambda.
struct Piece {
  double length = 0.0;       ///< requests/hour
  double marginal = 0.0;     ///< $ per request/hour
  double power_slope = 0.0;  ///< MW per request/hour
  std::uint32_t site = 0;
  std::uint32_t owner = 0;   ///< option index within the site, or kEnvelope
};

/// A site switched off (index 0) or held in one price segment: a lambda
/// interval and the cost and power at its low end. The convex pieces above
/// `lo` live in the global piece list.
struct Option {
  double lo = 0.0;
  double hi = 0.0;
  double fixed = 0.0;     ///< $ at lo
  double power_lo = 0.0;  ///< MW at lo
  double price = 0.0;     ///< cost = price_intercept + price * power
  double price_intercept = 0.0;
  bool feasible = false;
};

/// A site's lower convex envelope over all its options: starts at (x0, y0),
/// ends at x1; its pieces live in the global piece list.
struct Envelope {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 0.0;
};

struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// One server class of a site: lambda capacity and MW per request/hour.
struct PowerClass {
  double cap = 0.0;
  double slope = 0.0;
};

/// A site's server classes sorted by slope (cheapest first); a homogeneous
/// site is one class of lambda_max at power_slope.
void sorted_classes(const SiteModel& site, std::vector<PowerClass>& out) {
  out.clear();
  if (site.power_segments.empty()) {
    out.push_back({site.lambda_max, site.power_slope});
    return;
  }
  for (const SiteModel::PowerSegment& seg : site.power_segments)
    out.push_back({seg.lambda_cap, seg.slope});
  std::stable_sort(out.begin(), out.end(),
                   [](const PowerClass& a, const PowerClass& b) {
                     return a.slope < b.slope;
                   });
}

/// Smallest lambda <= lambda_max whose draw, filling `classes` in the given
/// order, reaches `target` MW; +inf when none does.
template <typename It>
double lambda_reaching(It first, It last, double target, double lambda_max) {
  if (target <= 0.0) return 0.0;
  double lambda = 0.0;
  for (It it = first; it != last; ++it) {
    const double full = it->slope * it->cap;
    if (it->slope > 0.0 && full >= target) {
      lambda += target / it->slope;
      return lambda <= lambda_max ? lambda : kInf;
    }
    lambda += it->cap;
    target -= full;
  }
  return kInf;
}

/// Largest lambda <= lambda_max whose cheapest-first draw stays within
/// `target` MW (target >= 0).
double lambda_within(const std::vector<PowerClass>& classes, double target,
                     double lambda_max) {
  double lambda = 0.0;
  for (const PowerClass& c : classes) {
    const double full = c.slope * c.cap;
    if (c.slope > 0.0 && full > target) {
      lambda += target / c.slope;
      break;
    }
    lambda += c.cap;
    target -= full;
  }
  return std::min(lambda, lambda_max);
}

/// Adds the site's options and their pieces. `classes` is sorted.
void add_site_options(const SiteModel& site, std::uint32_t index,
                      const std::vector<PowerClass>& classes,
                      std::vector<Option>& options,
                      std::vector<Piece>& pieces) {
  const lp::PiecewiseAffine& curve = site.cost_curve;
  double class_total = 0.0;
  for (const PowerClass& c : classes) class_total += c.cap;
  const double lambda_max = std::min(site.lambda_max, class_total);
  const double intercept = site.power_intercept_mw;

  // Off: lambda = 0, power = 0, priced by segment 0 at zero draw.
  Option off;
  off.feasible = true;
  off.fixed = curve.intercepts[0];
  off.price_intercept = curve.intercepts[0];
  off.price = curve.slopes[0];
  options.push_back(off);

  for (std::size_t k = 0; k < curve.num_segments(); ++k) {
    // A negative price would make the cheapest split the most expensive
    // draw; no pricing policy or rebate produces one.
    if (curve.slopes[k] < 0.0)
      throw std::invalid_argument("allocate_min_cost: negative price");
    const auto owner = static_cast<std::uint32_t>(k + 1);
    Option opt;
    opt.price = curve.slopes[k];
    opt.price_intercept = curve.intercepts[k];
    const double seg_lo = curve.breaks[k];
    const double seg_hi = std::min(curve.breaks[k + 1], site.power_cap_mw);
    // Power above the activation draw the classes must supply.
    const double need_lo = seg_lo - intercept;
    const double need_hi = seg_hi - intercept;
    if (seg_lo > seg_hi || need_hi < 0.0) {
      options.push_back(opt);
      continue;
    }
    // The interval starts where the expensive-first draw reaches the
    // segment floor, ends where the cheapest-first draw reaches its top.
    const double lo = lambda_reaching(classes.rbegin(), classes.rend(),
                                      need_lo, lambda_max);
    double hi = lambda_within(classes, need_hi, lambda_max);
    if (lo > hi) {
      // A segment narrower than rounding in lambda: the floor and the top
      // coincide.
      if (lo - hi > 1e-12 * std::max(1.0, lo)) {
        options.push_back(opt);
        continue;
      }
      hi = lo;
    }
    opt.feasible = true;
    opt.lo = lo;
    opt.hi = hi;
    opt.power_lo = std::max(seg_lo, intercept);
    opt.fixed = opt.price_intercept + opt.price * opt.power_lo;

    // Between the expensive-first and the cheapest-first floor the draw is
    // held at seg_lo: cost stays flat. Above, the cheapest classes fill.
    const double flat_end = std::min(
        hi, lambda_reaching(classes.begin(), classes.end(), need_lo, kInf));
    if (flat_end > lo)
      pieces.push_back({flat_end - lo, 0.0, 0.0, index, owner});
    double start = 0.0;
    for (const PowerClass& c : classes) {
      const double from = std::max(start, flat_end);
      const double to = std::min(start + c.cap, hi);
      if (to > from)
        pieces.push_back({to - from, opt.price * c.slope, c.slope, index,
                          owner});
      start += c.cap;
    }
    options.push_back(opt);
  }
}

/// Element counts of one call's scratch, fixed by the models' shapes.
struct ScratchShape {
  std::size_t options = 0;
  std::size_t pieces = 0;   ///< option pieces plus envelope pieces
  std::size_t points = 0;   ///< hull candidates of the largest site
  std::size_t classes = 1;  ///< server classes of the largest site
};

ScratchShape scratch_shape(std::span<const SiteModel> models) {
  ScratchShape shape;
  for (const SiteModel& site : models) {
    const std::size_t m = site.cost_curve.num_segments();
    // A segment's pieces: the zero-marginal one plus one per server class.
    const std::size_t per =
        1 + std::max<std::size_t>(1, site.power_segments.size());
    // The off point plus, per segment, its floor and one end per piece.
    const std::size_t site_points = 1 + m * (per + 1);
    shape.options += m + 1;
    shape.pieces += m * per + site_points;
    shape.points = std::max(shape.points, site_points);
    shape.classes = std::max(shape.classes, site.power_segments.size());
  }
  return shape;
}

}  // namespace

std::size_t segment_allocator_scratch_bytes(
    std::span<const SiteModel> models) {
  const ScratchShape shape = scratch_shape(models);
  const std::size_t n = models.size();
  return shape.options * sizeof(Option) + shape.pieces * sizeof(Piece) +
         shape.points * sizeof(Point) + shape.classes * sizeof(PowerClass) +
         n * (sizeof(Envelope) + 3 * sizeof(std::size_t) + sizeof(double)) +
         sizeof(std::size_t) + 6 * (n + 1) * sizeof(double);
}

AllocationResult allocate_min_cost(std::span<const SiteModel> models,
                                   double lambda_total,
                                   const lp::MilpOptions& options) {
  if (lambda_total < 0.0)
    throw std::invalid_argument("allocate_min_cost: negative demand");

  // billcap-lint: allow(wall-clock): solver deadline timing, never output
  const auto deadline_start = std::chrono::steady_clock::now();
  const bool deadline_armed = options.time_limit_ms > 0.0;
  const auto past_deadline = [&]() {
    if (!deadline_armed) return false;
    // billcap-lint: allow(wall-clock): same sanctioned deadline site
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - deadline_start)
               .count() >= options.time_limit_ms;
  };

  AllocationResult out;
  if (options.max_arena_bytes != 0 &&
      options.max_arena_bytes < segment_allocator_scratch_bytes(models)) {
    out.status = lp::SolveStatus::kArenaExhausted;
    return out;
  }

  const std::size_t n = models.size();
  const ScratchShape shape = scratch_shape(models);

  // ---- per-site options, their pieces and the convex envelopes -----------
  std::vector<Option> opts;
  std::vector<Piece> pieces;
  std::vector<Point> points;
  std::vector<PowerClass> classes;
  std::vector<Envelope> envelopes(n);
  std::vector<std::size_t> option_begin(n + 1, 0);
  opts.reserve(shape.options);
  pieces.reserve(shape.pieces);
  points.reserve(shape.points);
  classes.reserve(shape.classes);

  for (std::size_t i = 0; i < n; ++i) {
    const auto site = static_cast<std::uint32_t>(i);
    option_begin[i] = opts.size();
    const std::size_t first_piece = pieces.size();
    sorted_classes(models[i], classes);
    add_site_options(models[i], site, classes, opts, pieces);

    // Every vertex of every option's cost graph; the lower hull of the set
    // bounds the site's cost from below over its whole lambda range.
    points.clear();
    for (std::size_t o = option_begin[i]; o < opts.size(); ++o) {
      if (!opts[o].feasible) continue;
      Point p{opts[o].lo, opts[o].fixed};
      points.push_back(p);
      const auto local = static_cast<std::uint32_t>(o - option_begin[i]);
      for (std::size_t q = first_piece; q < pieces.size(); ++q) {
        if (pieces[q].owner != local) continue;
        p.x += pieces[q].length;
        p.y += pieces[q].marginal * pieces[q].length;
        points.push_back(p);
      }
    }
    std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
      return a.x < b.x || (a.x == b.x && a.y < b.y);
    });
    std::size_t hull = 0;
    for (const Point& p : points) {
      if (hull > 0 && points[hull - 1].x == p.x) continue;  // higher twin
      while (hull >= 2) {
        const Point& o = points[hull - 2];
        const Point& a = points[hull - 1];
        const double cross =
            (a.x - o.x) * (p.y - o.y) - (a.y - o.y) * (p.x - o.x);
        if (cross > 0.0) break;
        --hull;
      }
      points[hull++] = p;
    }
    envelopes[i] = {points[0].x, points[0].y, points[hull - 1].x};
    for (std::size_t h = 0; h + 1 < hull; ++h) {
      const double length = points[h + 1].x - points[h].x;
      pieces.push_back({length, (points[h + 1].y - points[h].y) / length, 0.0,
                        site, kEnvelope});
    }
  }
  option_begin[n] = opts.size();

  // One global fill order: ascending marginal, ties to the lower site;
  // within a site the insertion order (convex, so already ascending) holds.
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) {
                     return a.marginal < b.marginal ||
                            (a.marginal == b.marginal && a.site < b.site);
                   });

  // ---- depth-first enumeration with envelope bounds ----------------------
  // Sites [0, depth) are assigned (choice), [depth, n) relaxed. Prefix sums
  // over the assigned options, suffix sums over the envelopes.
  std::vector<std::size_t> choice(n, 0);
  std::vector<std::size_t> best_choice(n, 0);
  std::vector<double> lo_sum(n + 1, 0.0), hi_sum(n + 1, 0.0),
      fixed_sum(n + 1, 0.0), env_lo(n + 1, 0.0), env_hi(n + 1, 0.0),
      env_fixed(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    env_lo[i] = env_lo[i + 1] + envelopes[i].x0;
    env_hi[i] = env_hi[i + 1] + envelopes[i].x1;
    env_fixed[i] = env_fixed[i + 1] + envelopes[i].y0;
  }

  // Cheapest fill of the demand at `depth`; +inf when it cannot be met.
  const auto fill = [&](std::size_t depth) {
    const double lows = lo_sum[depth] + env_lo[depth];
    const double highs = hi_sum[depth] + env_hi[depth];
    if (lows > lambda_total + kDemandTol || highs < lambda_total - kDemandTol)
      return kInf;
    double cost = fixed_sum[depth] + env_fixed[depth];
    double remaining = lambda_total - lows;
    for (const Piece& piece : pieces) {
      if (remaining <= 0.0) break;
      const bool live = piece.site < depth ? piece.owner == choice[piece.site]
                                           : piece.owner == kEnvelope;
      if (!live) continue;
      const double take = std::min(piece.length, remaining);
      cost += piece.marginal * take;
      remaining -= take;
    }
    return cost;
  };

  long nodes = 0;
  bool hit_node_limit = false;
  bool hit_time_limit = false;
  bool have_best = false;
  double best_cost = kInf;
  const auto visit = [&](auto&& self, std::size_t depth) -> void {
    if (nodes >= options.max_nodes) {
      hit_node_limit = true;
      return;
    }
    if (past_deadline()) {
      hit_time_limit = true;
      return;
    }
    ++nodes;
    const double bound = fill(depth);
    if (!(bound < best_cost)) return;
    if (depth == n) {
      best_cost = bound;
      best_choice = choice;
      have_best = true;
      return;
    }
    for (std::size_t o = option_begin[depth]; o < option_begin[depth + 1];
         ++o) {
      const Option& opt = opts[o];
      if (!opt.feasible) continue;
      choice[depth] = o - option_begin[depth];
      lo_sum[depth + 1] = lo_sum[depth] + opt.lo;
      hi_sum[depth + 1] = hi_sum[depth] + opt.hi;
      fixed_sum[depth + 1] = fixed_sum[depth] + opt.fixed;
      self(self, depth + 1);
      if (hit_node_limit || hit_time_limit) return;
    }
  };
  visit(visit, 0);

  out.nodes = nodes;
  out.iterations = 0;
  out.status = hit_node_limit   ? lp::SolveStatus::kNodeLimit
               : hit_time_limit ? lp::SolveStatus::kTimeLimit
               : have_best      ? lp::SolveStatus::kOptimal
                                : lp::SolveStatus::kInfeasible;
  if (!have_best) return out;

  // ---- decode the winning combination ------------------------------------
  out.feasible = true;
  out.sites.resize(n);
  std::vector<double> power(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Option& opt = opts[option_begin[i] + best_choice[i]];
    out.sites[i].lambda = opt.lo;
    out.sites[i].active = best_choice[i] != 0;
    power[i] = opt.power_lo;
  }
  double lows = 0.0;
  for (std::size_t i = 0; i < n; ++i) lows += out.sites[i].lambda;
  double remaining = lambda_total - lows;
  for (const Piece& piece : pieces) {
    if (remaining <= 0.0) break;
    if (piece.owner != best_choice[piece.site]) continue;
    const double take = std::min(piece.length, remaining);
    out.sites[piece.site].lambda += take;
    power[piece.site] += piece.power_slope * take;
    remaining -= take;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Option& opt = opts[option_begin[i] + best_choice[i]];
    SiteOutcome& site = out.sites[i];
    site.power_mw = power[i];
    site.cost = opt.price_intercept + opt.price * power[i];
    // Same round-off cleanup as the MILP decode.
    if (site.lambda < 1e-3) site.lambda = 0.0;
    out.total_lambda += site.lambda;
    out.predicted_cost += site.cost;
  }
  return out;
}

}  // namespace billcap::core
