#include "predict/predictor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/thread_annotations.hpp"
#include "exec/artifacts/artifacts.hpp"
#include "exec/interpreter.hpp"
#include "exec/layout/engine.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "predict/jit_predictor.hpp"

namespace flint::predict {

// ---------------------------------------------------------------------------
// Available parallelism: hardware_concurrency capped by the cgroup quota.
// ---------------------------------------------------------------------------

namespace {

/// Ceiling division of two positive quota values into whole CPUs.
unsigned quota_to_cpus(long quota_us, long period_us) {
  const long cpus = (quota_us + period_us - 1) / period_us;
  return static_cast<unsigned>(std::max(1l, cpus));
}

}  // namespace

unsigned cgroup_cpu_quota(const std::string& cgroup_root) {
  // cgroup v2: one file, "<quota> <period>" in microseconds or "max <period>".
  {
    std::ifstream f(cgroup_root + "/cpu.max");
    if (f) {
      std::string quota;
      long period = 0;
      if (f >> quota >> period) {
        if (quota == "max") return 0;  // explicit "no limit"
        char* end = nullptr;
        const long q = std::strtol(quota.c_str(), &end, 10);
        if (end != nullptr && *end == '\0' && q > 0 && period > 0) {
          return quota_to_cpus(q, period);
        }
      }
      return 0;  // v2 hierarchy present but malformed: treat as unlimited
    }
  }
  // cgroup v1: quota and period in separate files; quota -1 = unlimited.
  std::ifstream fq(cgroup_root + "/cpu/cpu.cfs_quota_us");
  std::ifstream fp(cgroup_root + "/cpu/cpu.cfs_period_us");
  long quota = 0;
  long period = 0;
  if ((fq >> quota) && (fp >> period) && quota > 0 && period > 0) {
    return quota_to_cpus(quota, period);
  }
  return 0;
}

unsigned available_parallelism() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned quota = cgroup_cpu_quota();
  return quota ? std::min(hw, quota) : hw;
}

// ---------------------------------------------------------------------------
// Predictor base: shape validation + conveniences.
// ---------------------------------------------------------------------------

namespace {

/// The boundary-rewrite predicate of MissingPolicy: zeros (when
/// zero_as_missing) and NaN (when substitute_nan rewrites NaN to +inf).
template <typename T>
bool needs_missing_rewrite(const MissingPolicy& policy, T v) {
  if (policy.zero_as_missing &&
      std::fabs(v) <= static_cast<T>(kZeroAsMissingThreshold)) {
    return true;
  }
  return policy.substitute_nan && std::isnan(v);
}

/// Rewrites a shape-checked batch per the missing policy.  zero_as_missing
/// maps |x| <= kZeroAsMissingThreshold to the missing value; substitute_nan
/// makes that value +infinity (instead of quiet NaN) and rewrites incoming
/// NaN to it as well — against a forest with no default directions,
/// `x <= t` sends +inf right at every finite split, which is exactly the
/// flag-free missing contract (the factory refuses the one inexact shape, a
/// +inf split).  Returns `features` untouched — no copy — when nothing
/// needs rewriting.
template <typename T>
std::span<const T> missing_transform(const MissingPolicy& policy,
                                     std::span<const T> features,
                                     std::vector<T>& scratch) {
  if (!policy.zero_as_missing && !policy.substitute_nan) return features;
  std::size_t first = 0;
  for (; first < features.size(); ++first) {
    if (needs_missing_rewrite(policy, features[first])) break;
  }
  if (first == features.size()) return features;
  scratch.assign(features.begin(), features.end());
  apply_missing_rewrites<T>(
      policy, std::span<T>(scratch.data() + first, scratch.size() - first));
  return scratch;
}

}  // namespace

template <typename T>
void apply_missing_rewrites(const MissingPolicy& policy, std::span<T> data) {
  if (!policy.zero_as_missing && !policy.substitute_nan) return;
  const T missing = policy.substitute_nan
                        ? std::numeric_limits<T>::infinity()
                        : std::numeric_limits<T>::quiet_NaN();
  for (T& v : data) {
    if (needs_missing_rewrite(policy, v)) v = missing;
  }
}

template void apply_missing_rewrites<float>(const MissingPolicy&,
                                            std::span<float>);
template void apply_missing_rewrites<double>(const MissingPolicy&,
                                             std::span<double>);

template <typename T>
void reject_nan(const MissingPolicy& policy, std::span<const T> features,
                std::size_t width, std::string_view where,
                std::string_view model_name) {
  // Unless the model declares missing support, NaN features are rejected —
  // the FLInt engines order NaN bit patterns instead of comparing
  // unordered, so for legacy models NaN is the one input class where
  // backends could silently diverge from Forest::predict.
  if (policy.allow_nan) return;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (std::isnan(features[i])) {
      throw std::invalid_argument(
          std::string(where) + ": NaN feature at sample " +
          std::to_string(i / width) + ", feature " +
          std::to_string(i % width) + " (" +
          (model_name.empty() ? std::string("this model")
                              : "model '" + std::string(model_name) + "'") +
          " declares no missing-value support; see README \"NaN/zero "
          "semantics\")");
    }
  }
}

template void reject_nan<float>(const MissingPolicy&, std::span<const float>,
                                std::size_t, std::string_view,
                                std::string_view);
template void reject_nan<double>(const MissingPolicy&, std::span<const double>,
                                 std::size_t, std::string_view,
                                 std::string_view);

namespace {

/// The one input boundary of predict_batch and predict_scores: the shape
/// of `features` and `out` (`per_sample` output values per sample), the
/// missing gate, and the policy's boundary rewrites.  Missing-capable
/// models admit NaN (routed per-node by the backends' special paths) after
/// those rewrites.  Returns the data to dispatch.
template <typename T>
std::span<const T> admit(std::string_view where, const MissingPolicy& policy,
                         std::size_t width, std::span<const T> features,
                         std::size_t n_samples, std::size_t out_size,
                         std::size_t per_sample, std::vector<T>& scratch) {
  if (features.size() != n_samples * width) {
    throw std::invalid_argument(
        std::string(where) + ": feature span holds " + std::to_string(features.size()) +
        " values, expected " + std::to_string(n_samples * width) + " (" +
        std::to_string(n_samples) + " samples x " + std::to_string(width) +
        " features)");
  }
  if (out_size < n_samples * per_sample) {
    throw std::invalid_argument(
        std::string(where) + ": output span holds " + std::to_string(out_size) +
        " values, needs " + std::to_string(n_samples * per_sample) + " (" +
        std::to_string(n_samples) + " samples x " +
        std::to_string(per_sample) + " outputs)");
  }
  reject_nan<T>(policy, features, width, where);
  return missing_transform<T>(policy, features, scratch);
}

/// A dataset's rows at the model width: its own storage when the widths
/// match; otherwise the leading `width` values of every row compacted into
/// `scratch` once, so a wider batch still flows through the blocked and
/// parallel fast path instead of one re-validated predict_one per row.
template <typename T>
std::span<const T> model_rows(std::string_view where,
                              const data::Dataset<T>& dataset,
                              std::size_t width, std::vector<T>& scratch) {
  if (dataset.cols() < width) {
    throw std::invalid_argument(std::string(where) +
                                ": dataset has fewer features than the model");
  }
  if (dataset.cols() == width) return dataset.values();
  scratch.resize(dataset.rows() * width);
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    const auto row = dataset.row(r);
    std::copy(row.begin(), row.begin() + width, scratch.begin() + r * width);
  }
  return scratch;
}

}  // namespace

template <typename T>
void Predictor<T>::predict_batch(std::span<const T> features,
                                 std::size_t n_samples,
                                 std::span<std::int32_t> out) const {
  std::vector<T> scratch;
  const std::span<const T> data =
      admit<T>("predict_batch", missing_policy_, feature_count(), features,
               n_samples, out.size(), 1, scratch);
  if (n_samples == 0) return;
  do_predict_batch(data.data(), n_samples, out.data());
}

template <typename T>
void Predictor<T>::predict_batch(const data::Dataset<T>& dataset,
                                 std::span<std::int32_t> out) const {
  std::vector<T> rows;
  predict_batch(model_rows("predict_batch", dataset, feature_count(), rows),
                dataset.rows(), out);
}

template <typename T>
void Predictor<T>::predict_scores(std::span<const T> features,
                                  std::size_t n_samples,
                                  std::span<T> out) const {
  if (!supports_scores()) {
    throw std::logic_error(
        "predict_scores: backend '" + name() +
        "' exposes no scores (majority-vote model; build the predictor from "
        "an additive leaf-value ForestModel)");
  }
  std::vector<T> scratch;
  const std::span<const T> data = admit<T>(
      "predict_scores", missing_policy_, feature_count(), features, n_samples,
      out.size(), static_cast<std::size_t>(num_outputs()), scratch);
  if (n_samples == 0) return;
  do_predict_scores(data.data(), n_samples, out.data());
}

template <typename T>
void Predictor<T>::predict_scores(const data::Dataset<T>& dataset,
                                  std::span<T> out) const {
  std::vector<T> rows;
  predict_scores(model_rows("predict_scores", dataset, feature_count(), rows),
                 dataset.rows(), out);
}

template <typename T>
void Predictor<T>::do_predict_scores(const T* /*features*/,
                                     std::size_t /*n_samples*/,
                                     T* /*out*/) const {
  // Unreachable through predict_scores (the supports_scores gate throws
  // first); direct prevalidated calls on a vote backend land here.
  throw std::logic_error("do_predict_scores: backend '" + name() +
                         "' exposes no scores");
}

template <typename T>
std::int32_t Predictor<T>::predict_one(std::span<const T> x) const {
  // first() below has an out-of-bounds precondition (UB), so the shape
  // error must be thrown before slicing, not left to predict_batch.
  if (x.size() < feature_count()) {
    throw std::invalid_argument(
        "predict_one: sample holds " + std::to_string(x.size()) +
        " values, model needs " + std::to_string(feature_count()));
  }
  std::int32_t result = -1;
  predict_batch(x.first(feature_count()), 1, {&result, 1});
  return result;
}

template <typename T>
double Predictor<T>::accuracy(const data::Dataset<T>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::vector<std::int32_t> out(dataset.rows());
  predict_batch(dataset, out);
  std::size_t hits = 0;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (out[r] == dataset.label(r)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(dataset.rows());
}

namespace {

// ---------------------------------------------------------------------------
// Score epilogue data: float-accumulate for additive leaf-value models
// (model::ForestModel with SumScores aggregation).  Every backend
// accumulates each sample's leaf-value rows IN TREE ORDER — the reference
// summation order — so raw sums are bit-identical across reference,
// interpreter and layout paths on identical inputs, and the link (applied
// once, in double) preserves that (docs/MODEL_FORMATS.md "Numerical
// contract").
// ---------------------------------------------------------------------------

/// The semantic half of a ForestModel a score backend needs at run time
/// (the structural forest lives inside each backend's packed engine).
template <typename T>
struct ScoreSpec {
  std::vector<T> leaf_values;  ///< rows x n_outputs
  std::vector<T> base;         ///< per-output base margin (empty = zeros)
  int n_outputs = 1;
  model::Link link = model::Link::None;
  int num_classes = 0;  ///< 0 = regression (predict_batch unavailable)

  static ScoreSpec from(const model::ForestModel<T>& m) {
    return {m.leaf_values, m.aggregation.base_score, m.n_outputs,
            m.aggregation.link, m.num_classes()};
  }

  [[nodiscard]] std::size_t k() const noexcept {
    return static_cast<std::size_t>(n_outputs);
  }

  void init_rows(std::size_t n_samples, T* out) const {
    for (std::size_t s = 0; s < n_samples; ++s) {
      for (std::size_t j = 0; j < k(); ++j) {
        out[s * k() + j] = base.empty() ? T{0} : base[j];
      }
    }
  }

  /// Adds leaf-value row `leaf_row` onto one sample's output row.
  void add_row(std::size_t leaf_row, T* srow) const {
    const T* lv = leaf_values.data() + leaf_row * k();
    for (std::size_t j = 0; j < k(); ++j) srow[j] += lv[j];
  }
};

// ---------------------------------------------------------------------------
// Execution adapters.  Each wraps one engine family behind the two calls
// the predictor needs:
//
//   vote(features, n, out)              majority-vote class per sample
//   accumulate(features, n, spec, out)  base + tree-order leaf-row sums,
//                                       NO link
//
// plus name()/num_classes()/feature_count().  Both calls are
// const-thread-safe: every engine keeps its scratch function-local.
// ---------------------------------------------------------------------------

/// Semantics baseline: per-sample Forest::predict / per-tree Tree::predict
/// over an owned forest copy — what every other backend is property-tested
/// against.
template <typename T>
class ReferenceExec {
 public:
  explicit ReferenceExec(const trees::Forest<T>& forest) : forest_(forest) {
    if (forest_.empty()) {
      throw std::invalid_argument("make_predictor: reference: empty forest");
    }
  }

  [[nodiscard]] std::string name() const { return "reference"; }
  [[nodiscard]] int num_classes() const noexcept {
    return forest_.num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept {
    return forest_.feature_count();
  }

  void vote(const T* features, std::size_t n_samples, std::int32_t* out) const {
    const std::size_t cols = forest_.feature_count();
    for (std::size_t s = 0; s < n_samples; ++s) {
      out[s] = forest_.predict({features + s * cols, cols});
    }
  }

  void accumulate(const T* features, std::size_t n_samples,
                  const ScoreSpec<T>& spec, T* out) const {
    const std::size_t cols = forest_.feature_count();
    spec.init_rows(n_samples, out);
    for (std::size_t s = 0; s < n_samples; ++s) {
      const std::span<const T> row{features + s * cols, cols};
      for (std::size_t t = 0; t < forest_.size(); ++t) {
        spec.add_row(static_cast<std::size_t>(forest_.tree(t).predict(row)),
                     out + s * spec.k());
      }
    }
  }

 private:
  trees::Forest<T> forest_;
};

/// Detects the key-remap surface: FlintForestEngine exposes a Signed key
/// type (RadixKey variant); FloatForestEngine does not.
template <typename Engine, typename = void>
struct EngineKeys {
  static constexpr bool keyed = false;
  using type = std::int32_t;  // placeholder; buffer stays empty
};
template <typename Engine>
struct EngineKeys<Engine, std::void_t<typename Engine::Signed>> {
  static constexpr bool keyed = true;
  using type = typename Engine::Signed;
};

/// Interpreter backends: blocked batch over engine.predict_tree.
///
/// Layout of the hot loop (the cache story): samples are cut into blocks of
/// `block_size`; within a block, each tree classifies every sample of the
/// block before the next tree is touched.  A tree's node array is therefore
/// streamed through the cache once per block instead of once per sample,
/// and the per-block vote matrix (or the output score rows) is the only
/// state carried across trees.  Works for FlintForestEngine (all variants,
/// keys remapped once per block for RadixKey) and FloatForestEngine.
template <typename T, typename Engine>
class BlockedExec {
 public:
  template <typename... EngineArgs>
  BlockedExec(std::string name, std::size_t block_size,
              const trees::Forest<T>& forest, EngineArgs&&... engine_args)
      : engine_(forest, std::forward<EngineArgs>(engine_args)...),
        name_(std::move(name)),
        cols_(forest.feature_count()),
        block_size_(std::max<std::size_t>(block_size, 1)) {}

  [[nodiscard]] std::string name() const { return name_; }
  [[nodiscard]] int num_classes() const noexcept {
    return engine_.num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept { return cols_; }

  void vote(const T* features, std::size_t n_samples, std::int32_t* out) const {
    const auto classes =
        static_cast<std::size_t>(std::max(engine_.num_classes(), 1));
    std::vector<int> votes(block_size_ * classes);
    scan(
        features, n_samples,
        [&](std::size_t, std::size_t block) {
          std::fill(votes.begin(), votes.begin() + block * classes, 0);
        },
        [&](std::size_t, std::size_t s, std::int32_t c) {
          ++votes[s * classes + static_cast<std::size_t>(c)];
        },
        [&](std::size_t base, std::size_t block) {
          for (std::size_t s = 0; s < block; ++s) {
            out[base + s] = trees::argmax_first(votes.data() + s * classes,
                                                static_cast<int>(classes));
          }
        });
  }

  void accumulate(const T* features, std::size_t n_samples,
                  const ScoreSpec<T>& spec, T* out) const {
    spec.init_rows(n_samples, out);
    scan(
        features, n_samples, [](std::size_t, std::size_t) {},
        [&](std::size_t global, std::size_t, std::int32_t payload) {
          spec.add_row(static_cast<std::size_t>(payload),
                       out + global * spec.k());
        },
        [](std::size_t, std::size_t) {});
  }

 private:
  /// The one blocked tree-scan skeleton both epilogues share.
  /// `block_begin(base, count)` / `block_end(base, count)` bracket each
  /// block; `on_payload(global_sample, local_sample, payload)` consumes one
  /// tree's leaf payload.
  template <typename BlockBegin, typename OnPayload, typename BlockEnd>
  void scan(const T* features, std::size_t n_samples, BlockBegin&& block_begin,
            OnPayload&& on_payload, BlockEnd&& block_end) const {
    using Keys = EngineKeys<Engine>;
    const std::size_t trees = engine_.tree_count();
    const std::size_t cols = cols_;
    std::vector<typename Keys::type> keys;
    if constexpr (Keys::keyed) {
      if (engine_.needs_keys()) keys.resize(block_size_ * cols);
    }

    for (std::size_t base = 0; base < n_samples; base += block_size_) {
      const std::size_t block = std::min(block_size_, n_samples - base);
      block_begin(base, block);
      if constexpr (Keys::keyed) {
        if (!keys.empty()) {
          for (std::size_t s = 0; s < block; ++s) {
            engine_.remap_keys({features + (base + s) * cols, cols},
                               {keys.data() + s * cols, cols});
          }
        }
      }
      for (std::size_t t = 0; t < trees; ++t) {
        for (std::size_t s = 0; s < block; ++s) {
          const std::span<const T> row{features + (base + s) * cols, cols};
          std::int32_t payload;
          if constexpr (Keys::keyed) {
            const std::span<const typename Keys::type> key_row =
                keys.empty() ? std::span<const typename Keys::type>{}
                             : std::span<const typename Keys::type>{
                                   keys.data() + s * cols, cols};
            payload = engine_.predict_tree(t, row, key_row);
          } else {
            payload = engine_.predict_tree(t, row);
          }
          on_payload(base + s, s, payload);
        }
      }
      block_end(base, block);
    }
  }

  Engine engine_;
  std::string name_;
  std::size_t cols_;
  std::size_t block_size_;
};

/// Packed-image backends: exec/layout's LayoutForestEngine runs whole
/// batches itself over any packed image (16/8-byte compact nodes or the
/// 4-byte quantized word).  Leaf payloads are class ids or leaf-value row
/// indices, so the key-width pack gates bound the score table exactly like
/// class ids.  `name` empty means "layout:" + the engine's plan.
template <typename T>
class ImageExec {
 public:
  ImageExec(std::string name, exec::layout::PackedImage<T> image,
            const exec::layout::LayoutPlan& plan)
      : engine_(std::move(image), plan),
        name_(name.empty() ? "layout:" + engine_.plan().describe()
                           : std::move(name)) {}

  [[nodiscard]] std::string name() const { return name_; }
  [[nodiscard]] int num_classes() const noexcept {
    return engine_.num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept {
    return engine_.feature_count();
  }

  void vote(const T* features, std::size_t n_samples, std::int32_t* out) const {
    engine_.predict_batch(features, n_samples, out);
  }

  void accumulate(const T* features, std::size_t n_samples,
                  const ScoreSpec<T>& spec, T* out) const {
    engine_.predict_scores(features, n_samples, spec.leaf_values, spec.k(),
                           spec.base, out);
  }

 private:
  exec::layout::LayoutForestEngine<T> engine_;
  std::string name_;
};

/// The one predictor class behind every non-parallel backend.  Without a
/// ScoreSpec it serves a majority-vote forest: predict_batch is the
/// adapter's vote call and there are no scores.  With one it serves an
/// additive leaf-value model: predict_scores is accumulate + link, and
/// predict_batch reduces the raw sums to classes (argmax first-max for
/// k > 1; sigmoid margin > 0 for k == 1, the boundary falling to class 0
/// like a vote tie) or throws for regression models.
template <typename T, typename Exec>
class EnginePredictor final : public Predictor<T> {
 public:
  template <typename... ExecArgs>
  explicit EnginePredictor(std::optional<ScoreSpec<T>> score,
                           ExecArgs&&... exec_args)
      : exec_(std::forward<ExecArgs>(exec_args)...), score_(std::move(score)) {}

  [[nodiscard]] std::string name() const override { return exec_.name(); }
  [[nodiscard]] int num_classes() const noexcept override {
    return score_ ? score_->num_classes : exec_.num_classes();
  }
  [[nodiscard]] std::size_t feature_count() const noexcept override {
    return exec_.feature_count();
  }
  [[nodiscard]] int num_outputs() const noexcept override {
    return score_ ? score_->n_outputs : 0;
  }

 protected:
  void do_predict_batch(const T* features, std::size_t n_samples,
                        std::int32_t* out) const override {
    if (!score_) {
      exec_.vote(features, n_samples, out);
      return;
    }
    if (score_->num_classes <= 0) {
      throw std::logic_error(
          "predict_batch: '" + name() +
          "' serves a regression model with no classes; use predict_scores");
    }
    const std::size_t k = score_->k();
    std::vector<T> scores(n_samples * k);
    exec_.accumulate(features, n_samples, *score_, scores.data());
    // Links never change an argmax, so classes reduce from the raw sums
    // directly — model::class_from_raw is the single home of the rule.
    for (std::size_t s = 0; s < n_samples; ++s) {
      out[s] = model::class_from_raw(score_->n_outputs, scores.data() + s * k);
    }
  }

  void do_predict_scores(const T* features, std::size_t n_samples,
                         T* out) const override {
    if (!score_) {
      Predictor<T>::do_predict_scores(features, n_samples, out);
      return;
    }
    exec_.accumulate(features, n_samples, *score_, out);
    model::apply_link(score_->link, n_samples, score_->k(), out);
  }

 private:
  Exec exec_;
  std::optional<ScoreSpec<T>> score_;
};

/// Builds EnginePredictor<T, Exec>, constructing the adapter in place.
template <typename Exec, typename T, typename... ExecArgs>
std::unique_ptr<Predictor<T>> make_engine(std::optional<ScoreSpec<T>> score,
                                          ExecArgs&&... exec_args) {
  return std::make_unique<EnginePredictor<T, Exec>>(
      std::move(score), std::forward<ExecArgs>(exec_args)...);
}

}  // namespace

// ---------------------------------------------------------------------------
// JitPredictor.
// ---------------------------------------------------------------------------

template <typename T>
JitPredictor<T>::JitPredictor(jit::JitModule module, const std::string& symbol,
                              std::string flavor, int num_classes,
                              std::size_t feature_count)
    : module_(std::make_shared<jit::JitModule>(std::move(module))),
      flavor_(std::move(flavor)),
      num_classes_(num_classes),
      feature_count_(feature_count) {
  classify_ = module_->function<jit::ClassifyFn<T>>(symbol);
}

template <typename T>
JitPredictor<T>::JitPredictor(const codegen::GeneratedCode& code,
                              const jit::JitOptions& jopt, int num_classes,
                              std::size_t feature_count)
    : JitPredictor(jit::compile(code, jopt), code.classify_symbol, code.flavor,
                   num_classes, feature_count) {}

template <typename T>
void JitPredictor<T>::do_predict_batch(const T* features, std::size_t n_samples,
                                       std::int32_t* out) const {
  const std::size_t cols = feature_count_;
  for (std::size_t s = 0; s < n_samples; ++s) {
    out[s] = classify_(features + s * cols);
  }
}

// ---------------------------------------------------------------------------
// ParallelPredictor: persistent jthread pool, atomic block cursor.
// ---------------------------------------------------------------------------

template <typename T>
struct ParallelPredictor<T>::Pool {
  struct Job {
    const T* features = nullptr;
    std::int32_t* out = nullptr;     ///< class path (exclusive with scores)
    T* out_scores = nullptr;         ///< score path
    std::size_t n_outputs = 0;       ///< row stride of out_scores
    std::size_t n = 0;
    std::size_t block = 1;
    std::atomic<std::size_t> next{0};
  };

  Pool(const Predictor<T>& inner, unsigned workers) : inner(inner) {
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads.emplace_back([this](std::stop_token st) { worker_loop(st); });
    }
  }

  ~Pool() {
    {
      core::MutexLock lk(m);
      for (auto& t : threads) t.request_stop();
    }
    cv.notify_all();
    // jthread destructors join.
  }

  // The interruptible wait's API demands the predicate-lambda form (the
  // stop callback races with plain wait loops), and the analysis cannot
  // see that such a predicate runs under the lock — so this one function
  // is exempted instead of weakening the member annotations everywhere.
  void worker_loop(std::stop_token st) FLINT_NO_THREAD_SAFETY_ANALYSIS {
    std::uint64_t seen = 0;
    while (true) {
      Job* job = nullptr;
      {
        core::UniqueLock lk(m);
        cv.wait(lk, st, [&] { return generation != seen; });
        if (generation == seen) return;  // woken by stop request
        seen = generation;
        job = current;
      }
      drain(*job);
      {
        core::MutexLock lk(m);
        ++finished;
      }
      done_cv.notify_all();
    }
  }

  /// Pulls blocks off the shared cursor until the job is exhausted.  Runs
  /// on every worker and on the calling thread.  Blocks are sub-ranges of a
  /// batch the outer predict_batch already shape- and NaN-validated, so
  /// they dispatch straight to the inner hook instead of re-running the
  /// gates per block.
  void drain(Job& job) {
    const std::size_t cols = inner.feature_count();
    while (true) {
      const std::size_t start =
          job.next.fetch_add(job.block, std::memory_order_relaxed);
      if (start >= job.n) return;
      const std::size_t count = std::min(job.block, job.n - start);
      try {
        if (job.out_scores) {
          inner.predict_scores_prevalidated(
              job.features + start * cols, count,
              job.out_scores + start * job.n_outputs);
        } else {
          inner.predict_batch_prevalidated(job.features + start * cols, count,
                                           job.out + start);
        }
      } catch (...) {
        core::MutexLock lk(m);
        if (!error) error = std::current_exception();
        return;
      }
    }
  }

  /// Publishes the job, participates in it, waits for all workers, and
  /// rethrows the first worker exception if any.
  void run(Job& job) {
    core::MutexLock serialize(job_mutex);  // one batch at a time per pool
    {
      core::MutexLock lk(m);
      current = &job;
      finished = 0;
      error = nullptr;
      ++generation;
    }
    cv.notify_all();
    drain(job);
    {
      core::UniqueLock lk(m);
      while (finished != threads.size()) done_cv.wait(lk);
      current = nullptr;
      if (error) {
        auto e = error;
        error = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

  const Predictor<T>& inner;
  core::Mutex job_mutex;
  core::Mutex m;
  std::condition_variable_any cv;
  std::condition_variable_any done_cv;
  std::uint64_t generation FLINT_GUARDED_BY(m) = 0;
  std::size_t finished FLINT_GUARDED_BY(m) = 0;
  Job* current FLINT_GUARDED_BY(m) = nullptr;
  std::exception_ptr error FLINT_GUARDED_BY(m);
  std::vector<std::jthread> threads;
};

template <typename T>
ParallelPredictor<T>::ParallelPredictor(std::unique_ptr<Predictor<T>> inner,
                                        unsigned threads,
                                        std::size_t block_size)
    : inner_(std::move(inner)),
      block_size_(std::max<std::size_t>(block_size, 1)) {
  if (!inner_) {
    throw std::invalid_argument("ParallelPredictor: null inner predictor");
  }
  if (threads == 0) {
    // Not hardware_concurrency(): inside a cgroup CPU quota (containers),
    // that would spawn one worker per host core and thrash the quota.
    threads = available_parallelism();
  }
  // The calling thread participates in every batch, so the pool itself only
  // needs threads - 1 workers; one "thread" means plain inline execution.
  pool_ = std::make_unique<Pool>(*inner_, threads - 1);
}

template <typename T>
ParallelPredictor<T>::~ParallelPredictor() = default;

template <typename T>
std::string ParallelPredictor<T>::name() const {
  return "parallel(" + inner_->name() + ",x" +
         std::to_string(thread_count()) + ")";
}

template <typename T>
unsigned ParallelPredictor<T>::thread_count() const noexcept {
  return static_cast<unsigned>(pool_->threads.size()) + 1;
}

template <typename T>
void ParallelPredictor<T>::do_predict_batch(const T* features,
                                            std::size_t n_samples,
                                            std::int32_t* out) const {
  // Small batches are not worth the wakeup: run inline.  The base class
  // already validated this batch, so dispatch straight to the inner hook.
  if (pool_->threads.empty() || n_samples <= block_size_) {
    inner_->predict_batch_prevalidated(features, n_samples, out);
    return;
  }
  typename Pool::Job job;
  job.features = features;
  job.out = out;
  job.n = n_samples;
  job.block = block_size_;
  pool_->run(job);
}

template <typename T>
void ParallelPredictor<T>::do_predict_scores(const T* features,
                                             std::size_t n_samples,
                                             T* out) const {
  if (pool_->threads.empty() || n_samples <= block_size_) {
    inner_->predict_scores_prevalidated(features, n_samples, out);
    return;
  }
  typename Pool::Job job;
  job.features = features;
  job.out_scores = out;
  job.n_outputs = static_cast<std::size_t>(inner_->num_outputs());
  job.n = n_samples;
  job.block = block_size_;
  pool_->run(job);
}

// ---------------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------------

std::vector<std::string> interpreter_backends() {
  return {"reference", "float", "encoded", "theorem1", "theorem2", "radix"};
}

std::vector<std::string> layout_backends() {
  return {"layout:auto", "layout:c16", "layout:c8", "layout:q4"};
}

std::vector<std::string> quant_backends() {
  return {"quant:affine"};
}

bool is_known_backend(std::string_view backend) {
  if (backend == "flint") return true;  // factory alias for "encoded"
  for (const auto& list :
       {interpreter_backends(), layout_backends(), quant_backends()}) {
    for (const auto& name : list) {
      if (name == backend) return true;
    }
  }
  return false;
}

std::string backend_help() {
  std::string help;
  for (const auto& name : interpreter_backends()) {
    if (!help.empty()) help += "|";
    help += name;
  }
  help += "|flint";
  for (const auto& name : layout_backends()) {
    help += "|" + name;
  }
  for (const auto& name : quant_backends()) {
    help += "|" + name;
  }
  return help;
}

namespace {

/// Plain Levenshtein distance; backend names are short (< 20 chars) so the
/// quadratic DP is fine.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string suggest_backend(std::string_view backend) {
  std::vector<std::string> names;
  for (auto& list :
       {interpreter_backends(), layout_backends(), quant_backends()}) {
    names.insert(names.end(), list.begin(), list.end());
  }
  names.emplace_back("flint");

  std::string best;
  std::size_t best_dist = std::numeric_limits<std::size_t>::max();
  for (const auto& name : names) {
    const std::size_t d = edit_distance(backend, name);
    if (d < best_dist) {
      best_dist = d;
      best = name;
    }
  }
  const std::size_t longest = std::max(backend.size(), best.size());
  if (best_dist <= std::max<std::size_t>(2, longest / 3 + 1)) return best;

  // No near-miss: fall back to the closest name in the same family, so any
  // unknown "layout:..." still points at a layout backend.
  const std::size_t colon = backend.find(':');
  if (colon != std::string_view::npos) {
    const std::string_view family = backend.substr(0, colon + 1);
    best.clear();
    best_dist = std::numeric_limits<std::size_t>::max();
    for (const auto& name : names) {
      if (name.rfind(family, 0) != 0) continue;
      const std::size_t d = edit_distance(backend, name);
      if (d < best_dist) {
        best_dist = d;
        best = name;
      }
    }
    return best;  // empty when the family itself is unknown
  }
  return {};
}

namespace {

/// All unknown-backend rejections flow through here so every error carries
/// the nearest valid name plus the full vocabulary.
[[noreturn]] void throw_unknown_backend(std::string_view backend) {
  std::string msg =
      "make_predictor: unknown backend '" + std::string(backend) + "'";
  if (const std::string near = suggest_backend(backend); !near.empty()) {
    msg += " (did you mean '" + near + "'?)";
  }
  msg += " (" + backend_help() + ")";
  throw std::invalid_argument(msg);
}

/// Builds a compact-layout predictor.  `mode` is "auto", "c16", "c8" or
/// "q4".  One ExecArtifacts bundle plans the image — "auto" walks the width
/// ladder (q4 -> c8 -> c16 -> Wide, demoting an auto q4 whose pack or
/// quantization contract fails), a pinned width is checked against the
/// narrow fitness — and the engine binds the planned image moved out of the
/// bundle.  For score models the key-width fitness sees num_classes =
/// leaf-value rows, so c8/c16 are only picked when the row index fits the
/// packed key.  Falls back to the wide encoded interpreter when nothing
/// compact fits.
template <typename T>
std::unique_ptr<Predictor<T>> make_layout_predictor(
    const trees::Forest<T>& forest, std::string_view mode,
    std::optional<ScoreSpec<T>> score, const PredictorOptions& options) {
  namespace layout = exec::layout;
  std::optional<layout::NodeWidth> force_width;
  if (mode == "c16") {
    force_width = layout::NodeWidth::C16;
  } else if (mode == "c8") {
    force_width = layout::NodeWidth::C8;
  } else if (mode == "q4") {
    force_width = layout::NodeWidth::Q4;
  } else if (mode != "auto") {
    throw_unknown_backend("layout:" + std::string(mode));
  }
  exec::artifacts::ExecArtifacts<T> art(forest, options.block_size,
                                        layout::detect_cache_info(),
                                        force_width);
  const auto cannot_pack = [&](const std::string& reason) {
    return std::invalid_argument("make_predictor: layout:" +
                                 std::string(mode) +
                                 " cannot pack this model (" + reason + ")");
  };
  if (force_width) {
    const std::string reason =
        layout::width_unfit_reason(*force_width, art.fit());
    if (!reason.empty()) throw cannot_pack(reason);
  }
  if (art.plan().width == layout::NodeWidth::Wide) {
    return make_engine<BlockedExec<T, exec::FlintForestEngine<T>>>(
        std::move(score), exec::to_string(exec::FlintVariant::Encoded),
        options.block_size, forest, exec::FlintVariant::Encoded);
  }
  std::string why;
  auto image = art.try_image_at(art.plan().width, art.plan().hot_depth, &why);
  if (!image) throw cannot_pack(why);
  return make_engine<ImageExec<T>>(std::move(score), std::string{},
                                  std::move(*image), art.plan());
}

/// quant:affine — the deterministic lossy path: every feature with splits
/// routes through its calibrated affine map inside the real 4-byte
/// pipeline (same image format, kernels and batch-boundary quantization as
/// layout:q4; only the per-feature quantizers differ).  The bundle plans
/// the pinned 4-byte image; the pack itself forces the affine quantizers.
template <typename T>
std::unique_ptr<Predictor<T>> make_quant_affine_predictor(
    const trees::Forest<T>& forest, std::optional<ScoreSpec<T>> score,
    const PredictorOptions& options) {
  namespace layout = exec::layout;
  exec::artifacts::ExecArtifacts<T> art(forest, options.block_size,
                                        layout::detect_cache_info(),
                                        layout::NodeWidth::Q4);
  std::string why =
      layout::width_unfit_reason(layout::NodeWidth::Q4, art.fit());
  auto packed = why.empty() ? layout::try_pack_q4<T>(forest, art.plan(),
                                                     art.tables(),
                                                     /*force_affine=*/true,
                                                     &why)
                            : std::nullopt;
  if (!packed) {
    throw std::invalid_argument(
        "make_predictor: quant:affine cannot pack this model (" + why + ")");
  }
  return make_engine<ImageExec<T>>(
      std::move(score), "quant:affine(" + art.plan().describe() + ")",
      std::move(*packed), art.plan());
}

/// The one backend dispatch: vote forests (no ScoreSpec) and additive
/// leaf-value models (with one) share every backend name.
template <typename T>
std::unique_ptr<Predictor<T>> make_backend(const trees::Forest<T>& forest,
                                           std::optional<ScoreSpec<T>> score,
                                           std::string_view backend,
                                           const PredictorOptions& options) {
  using FlintExec = BlockedExec<T, exec::FlintForestEngine<T>>;
  const auto flint_engine = [&](exec::FlintVariant variant) {
    return make_engine<FlintExec>(std::move(score), exec::to_string(variant),
                                  options.block_size, forest, variant);
  };
  if (backend == "reference") {
    return make_engine<ReferenceExec<T>>(std::move(score), forest);
  }
  if (backend == "float") {
    return make_engine<BlockedExec<T, exec::FloatForestEngine<T>>>(
        std::move(score), "float", options.block_size, forest);
  }
  if (backend == "flint" || backend == "encoded") {
    return flint_engine(exec::FlintVariant::Encoded);
  }
  if (backend == "theorem1") return flint_engine(exec::FlintVariant::Theorem1);
  if (backend == "theorem2") return flint_engine(exec::FlintVariant::Theorem2);
  if (backend == "radix") return flint_engine(exec::FlintVariant::RadixKey);
  if (backend.rfind("layout:", 0) == 0) {
    return make_layout_predictor(forest, backend.substr(7), std::move(score),
                                 options);
  }
  if (backend == "quant:affine") {
    return make_quant_affine_predictor(forest, std::move(score), options);
  }
  throw_unknown_backend(backend);
}

/// Guard for MissingPolicy::substitute_nan (flag-free missing-capable
/// forests): the +infinity rewrite routes right only against finite splits,
/// so the one forest shape it cannot serve exactly — a +inf split with no
/// default directions anywhere — is refused up front.
template <typename T>
void require_substitutable(const trees::Forest<T>& forest) {
  for (std::size_t t = 0; t < forest.size(); ++t) {
    for (const auto& n : forest.tree(t).nodes()) {
      if (!n.is_leaf() && n.split == std::numeric_limits<T>::infinity()) {
        throw std::invalid_argument(
            "make_predictor: model declares missing-value support but its "
            "forest has no default directions and a +inf split; NaN routing "
            "cannot be represented — retrain or add default directions");
      }
    }
  }
}

/// make_backend plus what both public factories apply once on the outermost
/// predictor: the ParallelPredictor wrap and the missing policy.
template <typename T>
std::unique_ptr<Predictor<T>> make_served(const trees::Forest<T>& forest,
                                          std::optional<ScoreSpec<T>> score,
                                          std::string_view backend,
                                          const PredictorOptions& options,
                                          const MissingPolicy& policy) {
  auto predictor = make_backend(forest, std::move(score), backend, options);
  if (options.threads != 1) {
    // The parallel chunk must be at least the cache block, or the chunking
    // would silently cap the blocked backends' block_size.
    predictor = std::make_unique<ParallelPredictor<T>>(
        std::move(predictor), options.threads,
        std::max<std::size_t>(options.block_size, 256));
  }
  predictor->set_missing_policy(policy);
  return predictor;
}

/// A forest carrying default directions or categorical splits routes NaN
/// itself; admit it.
template <typename T>
MissingPolicy forest_missing_policy(const trees::Forest<T>& forest) {
  MissingPolicy policy;
  policy.allow_nan = forest.has_special_splits();
  return policy;
}

}  // namespace

template <typename T>
std::unique_ptr<Predictor<T>> make_predictor(const model::ForestModel<T>& model,
                                             std::string_view backend,
                                             const PredictorOptions& options) {
  if (const std::string err = model.validate(); !err.empty()) {
    throw std::invalid_argument("make_predictor: invalid model: " + err);
  }
  // Majority-vote models ARE v1 forests semantically; every backend serves
  // them unchanged.  Additive leaf-value models carry a ScoreSpec.
  std::optional<ScoreSpec<T>> score;
  MissingPolicy policy;
  if (model.is_vote()) {
    policy = forest_missing_policy(model.forest);
  } else {
    score = ScoreSpec<T>::from(model);
  }
  if (model.handles_missing) {
    policy = MissingPolicy{};
    policy.allow_nan = true;
    policy.zero_as_missing = model.zero_as_missing;
    policy.substitute_nan = !model.forest.has_special_splits();
    if (policy.substitute_nan) require_substitutable(model.forest);
  }
  return make_served(model.forest, std::move(score), backend, options, policy);
}

template <typename T>
std::unique_ptr<Predictor<T>> make_predictor(const trees::Forest<T>& forest,
                                             std::string_view backend,
                                             const PredictorOptions& options) {
  return make_served<T>(forest, std::nullopt, backend, options,
                        forest_missing_policy(forest));
}

template class Predictor<float>;
template class Predictor<double>;
template class JitPredictor<float>;
template class JitPredictor<double>;
template class ParallelPredictor<float>;
template class ParallelPredictor<double>;
template std::unique_ptr<Predictor<float>> make_predictor<float>(
    const trees::Forest<float>&, std::string_view, const PredictorOptions&);
template std::unique_ptr<Predictor<double>> make_predictor<double>(
    const trees::Forest<double>&, std::string_view, const PredictorOptions&);
template std::unique_ptr<Predictor<float>> make_predictor<float>(
    const model::ForestModel<float>&, std::string_view,
    const PredictorOptions&);
template std::unique_ptr<Predictor<double>> make_predictor<double>(
    const model::ForestModel<double>&, std::string_view,
    const PredictorOptions&);

}  // namespace flint::predict
