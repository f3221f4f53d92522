// Pure-unit tests for the closed-loop coupler's two safety mechanisms:
// the oscillation detector (a period-k cycle finder over fixed-point
// iterates) and the damping ladder (escalate-per-trouble, de-escalate
// after a clean streak). Both are exercised here without a grid, a
// solver or a simulator — they are plain deterministic state machines.
//
// The local curve re-derivation (CoupledMarket::derive_local_policies) is
// checked differentially against a brute-force fine own-draw sweep on
// random operating points of the paper grid, nominal and under every
// grid-side fault kind.

#include "market/closed_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <stdexcept>
#include <vector>

namespace billcap::market {
namespace {

TEST(OscillationDetectorTest, PeriodTwoCycleFires) {
  OscillationDetector detector(/*window=*/8, /*tol_mw=*/0.5);
  const std::vector<double> a = {10.0, 40.0};
  const std::vector<double> b = {30.0, 5.0};
  bool fired = false;
  // A period-2 orbit must be caught within the window: two full periods
  // of evidence is four pushes, so it certainly fires by push eight.
  for (int i = 0; i < 8 && !fired; ++i) fired = detector.push(i % 2 ? b : a);
  EXPECT_TRUE(fired);
  EXPECT_EQ(detector.period(), 2u);
}

TEST(OscillationDetectorTest, PeriodThreeCycleFires) {
  OscillationDetector detector(/*window=*/8, /*tol_mw=*/0.5);
  const std::vector<std::vector<double>> orbit = {
      {10.0}, {25.0}, {40.0}};
  bool fired = false;
  std::size_t fired_at = 0;
  for (std::size_t i = 0; i < 12 && !fired; ++i) {
    fired = detector.push(orbit[i % 3]);
    fired_at = i;
  }
  EXPECT_TRUE(fired) << "period-3 orbit never detected";
  EXPECT_EQ(detector.period(), 3u) << "fired at push " << fired_at;
}

TEST(OscillationDetectorTest, SettlingSequenceNeverFires) {
  // Geometric convergence toward a fixed point: consecutive deltas shrink
  // under the tolerance, which is plain (period-1) convergence, not a
  // cycle — the detector must stay silent the whole way down.
  OscillationDetector detector(/*window=*/8, /*tol_mw=*/0.5);
  double x = 64.0;
  for (int i = 0; i < 16; ++i) {
    const std::vector<double> iterate = {100.0 - x};
    EXPECT_FALSE(detector.push(iterate)) << "fired on settling push " << i;
    x *= 0.5;
  }
  EXPECT_EQ(detector.period(), 0u);
}

TEST(OscillationDetectorTest, SlowMonotoneDriftNeverFires) {
  // Every step moves by more than the tolerance but never revisits an
  // earlier iterate: no cycle, no firing, however long it runs.
  OscillationDetector detector(/*window=*/8, /*tol_mw=*/0.5);
  for (int i = 0; i < 32; ++i) {
    const std::vector<double> iterate = {2.0 * i, 100.0 - 2.0 * i};
    EXPECT_FALSE(detector.push(iterate)) << "fired on drift push " << i;
  }
}

TEST(OscillationDetectorTest, ResetForgetsTheOrbit) {
  OscillationDetector detector(/*window=*/8, /*tol_mw=*/0.5);
  const std::vector<double> a = {10.0};
  const std::vector<double> b = {30.0};
  bool fired = false;
  for (int i = 0; i < 8 && !fired; ++i) fired = detector.push(i % 2 ? b : a);
  ASSERT_TRUE(fired);
  detector.reset();
  EXPECT_EQ(detector.period(), 0u);
  // After a reset the detector needs fresh evidence of two full periods
  // again; the first few pushes cannot fire.
  EXPECT_FALSE(detector.push(a));
  EXPECT_FALSE(detector.push(b));
  EXPECT_FALSE(detector.push(a));
}

TEST(DampingLadderTest, TroubledHoursEscalateOneRungEach) {
  DampingLadder ladder(/*deescalate_after=*/3);
  EXPECT_EQ(ladder.rung(), 0u);
  ladder.on_hour(/*troubled=*/true);
  EXPECT_EQ(ladder.rung(), 1u);
  ladder.on_hour(true);
  EXPECT_EQ(ladder.rung(), 2u);
  ladder.on_hour(true);
  EXPECT_EQ(ladder.rung(), 3u);
  // Saturates at the top rung; more trouble cannot push it past kMaxRung.
  ladder.on_hour(true);
  EXPECT_EQ(ladder.rung(), DampingLadder::kMaxRung);
}

TEST(DampingLadderTest, DeescalatesOnlyAfterCleanStreak) {
  DampingLadder ladder(/*deescalate_after=*/3);
  ladder.on_hour(true);
  ladder.on_hour(true);
  ASSERT_EQ(ladder.rung(), 2u);
  // Two clean hours are not enough; the third completes the streak.
  ladder.on_hour(false);
  ladder.on_hour(false);
  EXPECT_EQ(ladder.rung(), 2u);
  ladder.on_hour(false);
  EXPECT_EQ(ladder.rung(), 1u);
  // One step down per completed streak, not a collapse to zero.
  ladder.on_hour(false);
  ladder.on_hour(false);
  EXPECT_EQ(ladder.rung(), 1u);
  ladder.on_hour(false);
  EXPECT_EQ(ladder.rung(), 0u);
}

TEST(DampingLadderTest, TroubleResetsTheCleanStreak) {
  DampingLadder ladder(/*deescalate_after=*/3);
  ladder.on_hour(true);
  ladder.on_hour(true);
  ASSERT_EQ(ladder.rung(), 2u);
  ladder.on_hour(false);
  ladder.on_hour(false);
  ladder.on_hour(true);  // streak broken at two — and escalates
  EXPECT_EQ(ladder.rung(), 3u);
  ladder.on_hour(false);
  ladder.on_hour(false);
  ladder.on_hour(false);
  EXPECT_EQ(ladder.rung(), 2u);
}

TEST(DampingLadderTest, SnapshotRestoreRoundTrips) {
  DampingLadder ladder(/*deescalate_after=*/3);
  ladder.on_hour(true);
  ladder.on_hour(true);
  ladder.on_hour(false);
  const DampingLadder::State saved = ladder.snapshot();
  EXPECT_EQ(saved.rung, 2u);
  EXPECT_EQ(saved.clean_streak, 1u);

  DampingLadder fresh(/*deescalate_after=*/3);
  fresh.restore(saved);
  EXPECT_EQ(fresh.rung(), 2u);
  // The restored streak continues where the snapshot left off: two more
  // clean hours complete it and step the ladder down.
  fresh.on_hour(false);
  fresh.on_hour(false);
  EXPECT_EQ(fresh.rung(), 1u);
}

// ---- local curve re-derivation --------------------------------------------

constexpr double kFineStepMw = 0.01;
/// Fine steps per oracle block (0.5 MW); see sweep_oracle.
constexpr std::size_t kBlockSteps = 50;
/// The paper sites' own-draw ranges (MW), as the coupler passes them.
const std::vector<double> kSiteCapsMw = {42.0, 68.0, 72.0};

/// Brute-force reference curve for one site: samples its own draw every
/// kFineStepMw over [0, cap] with the other sites pinned, and opens a level
/// whenever the LMP leaves the current level's price by more than
/// price_tol. The OPF cost is convex in the site's draw, so its LMP is
/// monotone: a block whose two end LMPs agree is flat inside, cannot open
/// a level, and its interior samples are skipped without changing the
/// result.
PricingPolicy sweep_oracle(const CoupledMarket& market,
                           std::vector<double> point,
                           const std::vector<double>& background,
                           std::size_t site, double cap,
                           const ClosedLoopOptions& options,
                           const CoupledHourFaults* faults) {
  const std::size_t bus =
      static_cast<std::size_t>(market.site_buses()[site]);
  const auto lmp_at = [&](std::size_t k) {
    point[site] = static_cast<double>(k) * kFineStepMw;
    const DcOpfResult opf =
        market.solve_at(point, background, options.feedback_gain, faults);
    if (!opf.ok()) throw std::runtime_error("oracle: OPF infeasible");
    return opf.lmp[bus];
  };
  std::vector<double> thresholds = {0.0};
  std::vector<double> prices = {lmp_at(0)};
  const auto visit = [&](std::size_t k, double lmp) {
    if (std::abs(lmp - prices.back()) > options.price_tol) {
      thresholds.push_back(background[site] + static_cast<double>(k) *
                                                  kFineStepMw);
      prices.push_back(lmp);
    }
  };
  const std::size_t last =
      static_cast<std::size_t>(std::floor(cap / kFineStepMw + 1e-9));
  double lmp_lo = prices.front();
  for (std::size_t lo = 0; lo < last; lo += kBlockSteps) {
    const std::size_t hi = std::min(last, lo + kBlockSteps);
    const double lmp_hi = lmp_at(hi);
    if (std::abs(lmp_hi - lmp_lo) > 1e-9)
      for (std::size_t k = lo + 1; k < hi; ++k) visit(k, lmp_at(k));
    visit(hi, lmp_hi);
    lmp_lo = lmp_hi;
  }
  return PricingPolicy(std::move(thresholds), std::move(prices));
}

enum class FaultKind { kNominal, kLineOutage, kDerate, kDemandShock };

/// A random grid-side fault of `kind` on the paper grid (6 lines, 5 buses;
/// every single-line outage leaves it connected).
CoupledHourFaults random_faults(FaultKind kind, std::mt19937_64& rng) {
  CoupledHourFaults faults;
  std::uniform_int_distribution<int> line(0, 5);
  std::uniform_int_distribution<int> load_bus(1, 3);
  switch (kind) {
    case FaultKind::kNominal:
      break;
    case FaultKind::kLineOutage:
      faults.line_out.assign(6, 0);
      faults.line_out[static_cast<std::size_t>(line(rng))] = 1;
      break;
    case FaultKind::kDerate:
      // D-E (index 5) is the only line with a thermal limit; derating an
      // unlimited line leaves it unlimited.
      faults.line_limit_factor.assign(6, 1.0);
      faults.line_limit_factor[5] =
          std::uniform_real_distribution<double>(0.5, 0.9)(rng);
      break;
    case FaultKind::kDemandShock:
      faults.bus_demand_multiplier.assign(5, 1.0);
      faults.bus_demand_multiplier[static_cast<std::size_t>(load_bus(rng))] =
          std::uniform_real_distribution<double>(1.1, 1.4)(rng);
      break;
  }
  return faults;
}

TEST(LocalCurveTest, ExactBreakpointsMatchFineSweep) {
  const CoupledMarket market = CoupledMarket::paper();
  std::mt19937_64 rng(20120910);
  std::uniform_real_distribution<double> background_mw(130.0, 300.0);
  std::uniform_real_distribution<double> share(0.0, 1.0);
  const ClosedLoopOptions options;
  const std::size_t n = market.num_sites();
  std::size_t curves = 0;
  std::size_t levels = 0;
  for (FaultKind kind : {FaultKind::kNominal, FaultKind::kLineOutage,
                         FaultKind::kDerate, FaultKind::kDemandShock}) {
    for (int trial = 0; trial < 50; ++trial) {
      const CoupledHourFaults faults = random_faults(kind, rng);
      std::vector<double> background(n);
      std::vector<double> point(n);
      for (std::size_t i = 0; i < n; ++i) {
        background[i] = background_mw(rng);
        point[i] = share(rng) * kSiteCapsMw[i];
      }
      const std::vector<PricingPolicy> exact = market.derive_local_policies(
          point, background, background, kSiteCapsMw, options, &faults);
      ASSERT_EQ(exact.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "fault kind " << static_cast<int>(kind) << ", trial "
                     << trial << ", site " << i);
        const PricingPolicy oracle = sweep_oracle(
            market, point, background, i, kSiteCapsMw[i], options, &faults);
        const std::vector<double>& xt = exact[i].thresholds_mw();
        const std::vector<double>& ot = oracle.thresholds_mw();
        ASSERT_EQ(xt.size(), ot.size());
        for (std::size_t k = 0; k < xt.size(); ++k) {
          // The sweep sees a kink at the first fine sample past it.
          EXPECT_LE(xt[k], ot[k] + 1e-9) << "level " << k;
          EXPECT_GE(xt[k], ot[k] - kFineStepMw - 1e-9) << "level " << k;
          EXPECT_NEAR(exact[i].prices_per_mwh()[k],
                      oracle.prices_per_mwh()[k], options.price_tol)
              << "level " << k;
        }
        ++curves;
        levels += xt.size();
      }
    }
  }
  EXPECT_EQ(curves, 600u);
  // The draw ranges cross binding events: not every curve is flat.
  EXPECT_GT(levels, curves);
}

TEST(LocalCurveTest, ZeroGainGivesOneLevel) {
  const CoupledMarket market = CoupledMarket::paper();
  ClosedLoopOptions options;
  options.feedback_gain = 0.0;
  const std::vector<double> background = {230.0, 300.0, 280.0};
  const std::vector<double> point = {20.0, 30.0, 40.0};
  for (const PricingPolicy& curve : market.derive_local_policies(
           point, background, background, kSiteCapsMw, options, nullptr))
    EXPECT_EQ(curve.num_levels(), 1u);
}

TEST(LocalCurveTest, ZeroCapGivesOneLevel) {
  const CoupledMarket market = CoupledMarket::paper();
  const ClosedLoopOptions options;
  const std::vector<double> background = {230.0, 300.0, 280.0};
  const std::vector<double> point = {0.0, 0.0, 0.0};
  const std::vector<double> caps = {0.0, 0.0, 0.0};
  for (const PricingPolicy& curve : market.derive_local_policies(
           point, background, background, caps, options, nullptr))
    EXPECT_EQ(curve.num_levels(), 1u);
}

TEST(LocalCurveTest, UnservableCapThrows) {
  // The paper grid's generators total 1530 MW: a site range reaching past
  // that leaves load unserved at the top of the range.
  const CoupledMarket market = CoupledMarket::paper();
  const ClosedLoopOptions options;
  const std::vector<double> background = {230.0, 300.0, 280.0};
  const std::vector<double> point = {0.0, 0.0, 0.0};
  const std::vector<double> caps = {42.0, 68.0, 1000.0};
  EXPECT_THROW((void)market.derive_local_policies(point, background,
                                                  background, caps, options,
                                                  nullptr),
               std::runtime_error);
}

}  // namespace
}  // namespace billcap::market
