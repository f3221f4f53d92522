#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// statistics.quantiles' exclusive method, integer for integer: the j-th of
// n-1 cut points sits at position j * (m + 1) / n (1-based) of the m sorted
// samples. The index is clamped to the sample range but the weight is not,
// so small samples extrapolate exactly as Python does.
double exclusive_cut(const std::vector<double>& sorted, long j, long n) {
  const auto m = static_cast<long>(sorted.size());
  const long scaled = j * (m + 1);
  const long lo = std::clamp(scaled / n, 1L, m - 1);
  const auto delta = static_cast<double>(scaled - lo * n);
  const double a = sorted[static_cast<std::size_t>(lo - 1)];
  const double b = sorted[static_cast<std::size_t>(lo)];
  return (a * (static_cast<double>(n) - delta) + b * delta) /
         static_cast<double>(n);
}

}  // namespace

Quartiles quartiles(std::vector<double> samples) {
  Quartiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.median = median(samples);
  if (samples.size() == 1) {
    out.q1 = out.q3 = samples.front();
    return out;
  }
  out.q1 = exclusive_cut(samples, 1, 4);
  out.q3 = exclusive_cut(samples, 3, 4);
  return out;
}

double Quartiles::iqr_share() const noexcept {
  return median != 0.0 ? (q3 - q1) / median : 0.0;
}

}  // namespace perfbench
