#pragma once

// Test-only oracle: an event-driven G/G/m simulator that the queueing
// property tests hold the closed-form models (queueing/ggm.hpp,
// queueing/mmm.hpp) against. Nothing in src/ links it.

#include <cstddef>
#include <cstdint>

namespace billcap::queueing {

/// Inter-arrival / service-time distributions for the discrete-event
/// simulator, parameterized by mean and squared coefficient of variation:
///  * kDeterministic: cv2 = 0
///  * kExponential:   cv2 = 1
///  * kHyperexponential: two-phase balanced-means H2, any cv2 > 1
///  * kErlang: k-phase Erlang, cv2 = 1/k for k = round(1/cv2) (cv2 in (0,1))
enum class Distribution {
  kDeterministic,
  kExponential,
  kHyperexponential,
  kErlang,
};

/// Picks the distribution family that realizes a given cv2 (0 ->
/// deterministic, 1 -> exponential, <1 -> Erlang, >1 -> H2).
Distribution distribution_for_cv2(double cv2) noexcept;

/// Configuration of one G/G/m FCFS simulation run.
struct DesConfig {
  std::uint64_t servers = 1;
  double arrival_rate = 0.5;     ///< requests per time unit
  double service_rate = 1.0;     ///< per server per time unit
  double arrival_cv2 = 1.0;      ///< C_A^2
  double service_cv2 = 1.0;      ///< C_B^2
  std::size_t warmup = 20'000;   ///< requests discarded before measuring
  std::size_t measured = 200'000;
  std::uint64_t seed = 1;
};

/// Empirical results of a run.
struct DesResult {
  double mean_response = 0.0;  ///< sojourn time (wait + service)
  double mean_wait = 0.0;
  double utilization = 0.0;    ///< busy time share per server
  std::size_t completed = 0;
};

/// Event-driven FCFS G/G/m simulation (exact for this discipline: each
/// arrival is assigned the earliest-free server). Used by the property
/// tests to validate the Allen-Cunneen approximation and the Erlang-C
/// formulas against an independent ground truth.
DesResult simulate_ggm(const DesConfig& config);

}  // namespace billcap::queueing
