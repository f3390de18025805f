#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of empty sample");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile q must be in [0, 1]");
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 0.5);
}

Summary summarize(std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  s.p50 = percentile_sorted(values, 0.50);
  s.p75 = percentile_sorted(values, 0.75);
  s.p90 = percentile_sorted(values, 0.90);
  s.p99 = percentile_sorted(values, 0.99);
  s.max = values.back();
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  return s;
}

}  // namespace perfbench
