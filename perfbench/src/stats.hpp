// perfbench/stats — order statistics for latency samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) of an ascending sample by linear interpolation
/// between the closest ranks (the "type 7" estimator numpy uses by
/// default).  Throws std::invalid_argument on an empty sample or q outside
/// [0, 1].
[[nodiscard]] double percentile_sorted(std::span<const double> sorted, double q);

/// Median of an unsorted sample (sorts a copy).
[[nodiscard]] double median(std::vector<double> values);

/// The percentiles every latency metric reports, with the sample count so a
/// tail can be read against the number of samples beyond it.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Summarizes an unsorted sample in place (sorts it).  An empty sample
/// yields an all-zero Summary.
[[nodiscard]] Summary summarize(std::vector<double>& values);

}  // namespace perfbench
