// perfbench/workloads — the four workloads and the figures they report.
//
//   serve-open.low   open loop at 2,000 req/s into InferenceServer
//   serve-open.high  open loop at 20,000 req/s into InferenceServer
//   batch-deep       predict_batch on 4,096-row blocks, one caller
//   onesample-deep   back-to-back predict_one, one caller
//
// perfbench/README.md says why each was chosen and which layer
// figure should move which end-to-end figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::string inputs_dir;  ///< holds model_file() and pool_file()
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< trace runs write their spans here ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< what the figure was computed from
};

struct RunResult {
  bool correct = true;         ///< every prediction matched Forest::predict
  std::uint64_t attempted = 0;  ///< requests or calls issued
  std::uint64_t failed = 0;     ///< typed errors and refusals among them
  std::uint64_t mismatched = 0;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when tracing
  std::vector<std::string> notes;  ///< human-readable lines (host, plan, ...)
};

/// Runs one workload: set-up five times, then the measured phase.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

/// The result as the benchmark's final output line.
[[nodiscard]] std::string result_json(const RunResult& result);

}  // namespace perfbench
