// perfbench/inputs — seeded workload inputs.
//
// The seed draws the training rows and the row pool from the synthetic
// `magic` distribution, seeds training, and orders the requests.  Training and the Forest::predict reference labels are
// input generation: they run in their own process (`flint_perfbench gen`),
// are cached per seed, and stay outside every timed figure.  The program
// under test receives only the saved model file and the pool rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/forest_model.hpp"

namespace perfbench {

/// The two models the workloads run.  `serve`: 128 trees of depth <= 14 on
/// 1,500 rows (~44k nodes, the c16 image fits in a 2 MiB L2), pool 3,500
/// rows.  `deep`: 128 trees of depth <= 14 on 10,000 rows (~226k nodes, c16
/// image ~3.5 MiB), pool 10,000 rows.
enum class ModelKind { kServe, kDeep };

/// Throws std::invalid_argument for a name other than "serve" or "deep".
[[nodiscard]] ModelKind parse_model_kind(const std::string& name);

/// Held-out rows and their reference labels (Forest::predict).
struct RowPool {
  std::size_t cols = 0;
  std::vector<float> rows;             ///< row-major, rows() * cols values
  std::vector<std::int32_t> labels;    ///< one per row

  [[nodiscard]] std::size_t size() const noexcept { return labels.size(); }
  [[nodiscard]] const float* row(std::size_t r) const noexcept {
    return rows.data() + r * cols;
  }
};

struct GeneratedInputs {
  flint::model::ForestModel<float> model;
  RowPool pool;
};

/// Trains the seed's model and labels its held-out pool.  Deterministic in
/// (kind, seed).
[[nodiscard]] GeneratedInputs generate_inputs(ModelKind kind, std::uint64_t seed);

/// Files of an input directory.
[[nodiscard]] std::string model_file(const std::string& dir);
[[nodiscard]] std::string pool_file(const std::string& dir);

/// Writes model_file(dir) and pool_file(dir); `dir` must exist.
void write_inputs(const GeneratedInputs& inputs, const std::string& dir);

/// Reads pool_file(dir).  Throws std::runtime_error on a missing or
/// malformed file.
[[nodiscard]] RowPool read_pool(const std::string& dir);

/// `n` pool row indices drawn uniformly from the seed: the request order.
[[nodiscard]] std::vector<std::uint32_t> request_order(std::uint64_t seed,
                                                       std::size_t pool_rows,
                                                       std::size_t n);

}  // namespace perfbench
