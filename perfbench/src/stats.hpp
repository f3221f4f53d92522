#pragma once

#include <vector>

namespace perfbench {

/// Nearest-rank percentile, `q` in (0, 1]: the smallest sample with at least
/// ceil(q * n) samples at or below it. For p99 over 1000 distinct samples
/// exactly ten samples lie above the returned value, which is the smallest
/// sample count a p99 may rest on. Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double q);

/// Quartiles by the "exclusive" method of Python's
/// statistics.quantiles(samples, n=4), so the spread this benchmark reports
/// matches the one its acceptance check computes from repeated runs. The
/// median is the ordinary midpoint median. All zero for an empty sample;
/// all equal to the sample for a single one.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median, the run-to-run spread as a share; 0 when the
  /// median is 0.
  double iqr_share() const noexcept;
};
Quartiles quartiles(std::vector<double> samples);

double median(std::vector<double> samples);

}  // namespace perfbench
