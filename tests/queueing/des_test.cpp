#include "oracle/des.hpp"

#include <gtest/gtest.h>

#include "queueing/ggm.hpp"
#include "queueing/mmm.hpp"

namespace billcap::queueing {
namespace {

TEST(DesTest, DistributionSelection) {
  EXPECT_EQ(distribution_for_cv2(0.0), Distribution::kDeterministic);
  EXPECT_EQ(distribution_for_cv2(1.0), Distribution::kExponential);
  EXPECT_EQ(distribution_for_cv2(0.5), Distribution::kErlang);
  EXPECT_EQ(distribution_for_cv2(4.0), Distribution::kHyperexponential);
}

TEST(DesTest, Validation) {
  DesConfig config;
  config.servers = 0;
  EXPECT_THROW(simulate_ggm(config), std::invalid_argument);
  config = {};
  config.arrival_rate = 2.0;  // >= 1 server x rate 1.0
  EXPECT_THROW(simulate_ggm(config), std::invalid_argument);
  config = {};
  config.service_rate = -1.0;
  EXPECT_THROW(simulate_ggm(config), std::invalid_argument);
}

TEST(DesTest, DeterministicLightLoadHasNoWaiting) {
  DesConfig config;
  config.arrival_rate = 0.5;
  config.service_rate = 1.0;
  config.arrival_cv2 = 0.0;
  config.service_cv2 = 0.0;
  config.warmup = 100;
  config.measured = 10'000;
  const DesResult r = simulate_ggm(config);
  // D/D/1 at rho = 0.5: never any queueing.
  EXPECT_NEAR(r.mean_wait, 0.0, 1e-9);
  EXPECT_NEAR(r.mean_response, 1.0, 1e-9);
}

TEST(DesTest, Mm1MatchesExactFormula) {
  DesConfig config;
  config.arrival_rate = 0.7;
  config.service_rate = 1.0;
  config.seed = 42;
  const DesResult r = simulate_ggm(config);
  const double exact = mm1_response_time(0.7, 1.0);  // 1/(1-0.7) = 3.333
  EXPECT_NEAR(r.mean_response / exact, 1.0, 0.05);
  EXPECT_NEAR(r.utilization, 0.7, 0.02);
}

TEST(DesTest, MmmMatchesErlangC) {
  DesConfig config;
  config.servers = 8;
  config.arrival_rate = 6.4;  // rho = 0.8
  config.service_rate = 1.0;
  config.seed = 7;
  const DesResult r = simulate_ggm(config);
  const double exact = mmm_response_time(8, 6.4, 1.0);
  EXPECT_NEAR(r.mean_response / exact, 1.0, 0.05);
}

TEST(DesTest, MdmBeatsMmmOnWaiting) {
  // Deterministic service halves the waiting time vs exponential
  // (Pollaczek-Khinchine: factor (1 + cv2)/2).
  DesConfig exponential;
  exponential.servers = 4;
  exponential.arrival_rate = 3.4;
  exponential.service_rate = 1.0;
  exponential.seed = 9;
  DesConfig deterministic = exponential;
  deterministic.service_cv2 = 0.0;
  const DesResult rm = simulate_ggm(exponential);
  const DesResult rd = simulate_ggm(deterministic);
  EXPECT_LT(rd.mean_wait, rm.mean_wait);
  EXPECT_NEAR(rd.mean_wait / rm.mean_wait, 0.5, 0.12);
}

TEST(DesTest, BurstyArrivalsWaitLonger) {
  DesConfig smooth;
  smooth.servers = 4;
  smooth.arrival_rate = 3.2;
  smooth.service_rate = 1.0;
  smooth.seed = 11;
  DesConfig bursty = smooth;
  bursty.arrival_cv2 = 4.0;
  EXPECT_GT(simulate_ggm(bursty).mean_wait, simulate_ggm(smooth).mean_wait);
}

TEST(DesTest, AllenCunneenTracksSimulationInHeavyTraffic) {
  // The paper's eq. 3 regime: rho -> 1 (the local optimizer keeps the
  // minimum number of servers busy, so P_wait -> 1 and the simplified
  // formula's "replace P_wait by 1" step is justified). At rho = 0.99 the
  // approximation should land within ~25 % of the empirical response time
  // across traffic mixes; at lower rho it is *conservative* (over-
  // estimates), which is the safe direction for server provisioning.
  for (double cv2 : {0.5, 1.0, 2.0}) {
    DesConfig config;
    config.servers = 16;
    config.service_rate = 1.0;
    config.arrival_rate = 0.99 * 16.0;
    config.arrival_cv2 = cv2;
    config.service_cv2 = cv2;
    config.seed = 1234;
    config.warmup = 100'000;
    config.measured = 900'000;
    const DesResult sim = simulate_ggm(config);
    const GgmParams params{1.0, cv2, cv2};
    const double approx = allen_cunneen_response_time(
        params, 16.0, config.arrival_rate);
    EXPECT_NEAR(approx / sim.mean_response, 1.0, 0.25) << "cv2 " << cv2;
    // Conservative at moderate load: never *under*-provisions.
    const DesConfig moderate = [&] {
      DesConfig c = config;
      c.arrival_rate = 0.9 * 16.0;
      c.warmup = 20'000;
      c.measured = 200'000;
      return c;
    }();
    const DesResult msim = simulate_ggm(moderate);
    EXPECT_GT(allen_cunneen_response_time(params, 16.0, moderate.arrival_rate),
              0.9 * msim.mean_response)
        << "cv2 " << cv2;
  }
}

TEST(DesTest, FullAllenCunneenTracksModerateTraffic) {
  DesConfig config;
  config.servers = 8;
  config.service_rate = 1.0;
  config.arrival_rate = 0.7 * 8.0;
  config.seed = 5;
  const DesResult sim = simulate_ggm(config);
  const double approx =
      allen_cunneen_full_response_time({1.0, 1.0, 1.0}, 8, config.arrival_rate);
  EXPECT_NEAR(approx / sim.mean_response, 1.0, 0.15);
}

TEST(DesTest, DeterministicSeedsReproduce) {
  DesConfig config;
  config.arrival_rate = 0.6;
  config.seed = 77;
  config.measured = 50'000;
  const DesResult a = simulate_ggm(config);
  const DesResult b = simulate_ggm(config);
  EXPECT_DOUBLE_EQ(a.mean_response, b.mean_response);
  config.seed = 78;
  const DesResult c = simulate_ggm(config);
  EXPECT_NE(a.mean_response, c.mean_response);
}

TEST(DesTest, ErlangServicesReduceVariance) {
  DesConfig config;
  config.servers = 2;
  config.arrival_rate = 1.6;
  config.service_rate = 1.0;
  config.service_cv2 = 0.25;  // Erlang-4
  config.seed = 3;
  const DesResult erlang = simulate_ggm(config);
  config.service_cv2 = 1.0;
  const DesResult expo = simulate_ggm(config);
  EXPECT_LT(erlang.mean_wait, expo.mean_wait);
}

}  // namespace
}  // namespace billcap::queueing
