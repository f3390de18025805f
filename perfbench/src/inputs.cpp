#include "inputs.hpp"

#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>

#include "data/synth.hpp"
#include "model/model_io.hpp"
#include "trees/forest.hpp"

namespace perfbench {
namespace {

constexpr char kPoolMagic[8] = {'P', 'B', 'P', 'O', 'O', 'L', '1', '\n'};

struct KindSpec {
  std::size_t train_rows;
  std::size_t pool_rows;
};

KindSpec kind_spec(ModelKind kind) {
  // serve: the 1,500-row training split of bench_serve_latency's model;
  // deep: the 10,000 rows of bench_layout_throughput's.
  return kind == ModelKind::kServe ? KindSpec{1500, 3500} : KindSpec{10000, 10000};
}

/// The `magic` distribution itself is fixed, as the paper's dataset is; the
/// run seed draws the rows from it.  Drawing a new distribution per seed
/// swung the deep model between 192k and 258k nodes.
constexpr std::uint64_t kDistributionSeed = 42;
/// The drawn rows are a seed-chosen half of a universe twice their size.
constexpr std::size_t kUniverseFactor = 2;

}  // namespace

ModelKind parse_model_kind(const std::string& name) {
  if (name == "serve") return ModelKind::kServe;
  if (name == "deep") return ModelKind::kDeep;
  throw std::invalid_argument("unknown model kind '" + name + "'");
}

GeneratedInputs generate_inputs(ModelKind kind, std::uint64_t seed) {
  const KindSpec ks = kind_spec(kind);
  const auto universe = flint::data::generate<float>(
      flint::data::spec_by_name("magic"), kDistributionSeed,
      kUniverseFactor * (ks.train_rows + ks.pool_rows));
  // Fisher-Yates on the seed (mt19937_64's sequence is fixed by the
  // standard, so the draw is the same on every toolchain).
  std::vector<std::size_t> rows(universe.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::mt19937_64 rng(seed);
  for (std::size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng() % (i + 1)]);
  }
  const auto train = universe.subset(
      std::span<const std::size_t>(rows.data(), ks.train_rows));
  const auto held_out = universe.subset(
      std::span<const std::size_t>(rows.data() + ks.train_rows, ks.pool_rows));
  flint::trees::ForestOptions fopt;
  fopt.n_trees = 128;
  fopt.tree.max_depth = 14;
  fopt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  fopt.tree.seed = seed;
  auto forest = flint::trees::train_forest(train, fopt);

  GeneratedInputs out;
  out.pool.cols = forest.feature_count();
  out.pool.rows.reserve(held_out.rows() * out.pool.cols);
  out.pool.labels.reserve(held_out.rows());
  for (std::size_t r = 0; r < held_out.rows(); ++r) {
    const auto row = held_out.row(r);
    out.pool.rows.insert(out.pool.rows.end(), row.begin(),
                         row.begin() + static_cast<std::ptrdiff_t>(out.pool.cols));
    out.pool.labels.push_back(forest.predict(row));
  }
  out.model = flint::model::from_vote_forest(std::move(forest));
  return out;
}

std::string model_file(const std::string& dir) { return dir + "/model.flint"; }
std::string pool_file(const std::string& dir) { return dir + "/pool.bin"; }

void write_inputs(const GeneratedInputs& inputs, const std::string& dir) {
  flint::model::save_model(model_file(dir), inputs.model);
  std::ofstream out(pool_file(dir), std::ios::binary);
  const std::uint64_t header[2] = {inputs.pool.size(), inputs.pool.cols};
  out.write(kPoolMagic, sizeof(kPoolMagic));
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(inputs.pool.rows.data()),
            static_cast<std::streamsize>(inputs.pool.rows.size() * sizeof(float)));
  out.write(reinterpret_cast<const char*>(inputs.pool.labels.data()),
            static_cast<std::streamsize>(inputs.pool.labels.size() *
                                         sizeof(std::int32_t)));
  if (!out.flush()) throw std::runtime_error("failed writing " + pool_file(dir));
}

RowPool read_pool(const std::string& dir) {
  const std::string path = pool_file(dir);
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kPoolMagic)] = {};
  std::uint64_t header[2] = {0, 0};
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  constexpr std::uint64_t kMaxRows = 1u << 24;
  constexpr std::uint64_t kMaxCols = 1u << 12;
  if (!in || std::memcmp(magic, kPoolMagic, sizeof(magic)) != 0 ||
      header[0] == 0 || header[0] > kMaxRows || header[1] == 0 ||
      header[1] > kMaxCols) {
    throw std::runtime_error("missing or malformed row pool " + path);
  }
  RowPool pool;
  pool.cols = header[1];
  pool.rows.resize(header[0] * header[1]);
  pool.labels.resize(header[0]);
  in.read(reinterpret_cast<char*>(pool.rows.data()),
          static_cast<std::streamsize>(pool.rows.size() * sizeof(float)));
  in.read(reinterpret_cast<char*>(pool.labels.data()),
          static_cast<std::streamsize>(pool.labels.size() * sizeof(std::int32_t)));
  if (!in || in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("truncated or oversized row pool " + path);
  }
  return pool;
}

std::vector<std::uint32_t> request_order(std::uint64_t seed,
                                         std::size_t pool_rows, std::size_t n) {
  if (pool_rows == 0) throw std::invalid_argument("empty row pool");
  // mt19937_64's output sequence is fixed by the standard (the
  // distributions are not), so the order is the same on every toolchain.
  std::mt19937_64 rng(seed ^ 0x5EEDF00DULL);
  std::vector<std::uint32_t> order(n);
  for (auto& r : order) r = static_cast<std::uint32_t>(rng() % pool_rows);
  return order;
}

}  // namespace perfbench
