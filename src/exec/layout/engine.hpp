// exec/layout/engine — the one execution engine over every packed image.
//
// Once FLInt reduces each split to one integer compare, which packed node
// format runs (the 16/8-byte compact nodes of compact.hpp or the 4-byte
// quantized word of quant4.hpp) is a decoding detail.  The engine holds one
// PackedImage and runs one traversal core for all of them, instantiated per
// format through a small node codec that yields, per node: the leaf tag,
// the key, the feature, the right offset, the default-left and categorical
// flags, and the leaf payload.
//
// Traversal comes in two shapes.  The blocked batch loop maps a block of
// samples to narrow integer keys once (the rank/radix remap, or q4's
// quantization: each sample is quantized exactly once, in its block) and
// then streams each tree's nodes across the block, kBlockLockstep samples
// in lockstep; on AVX2 hosts the vote path runs 8 lanes per instruction
// (kernels.hpp).  The interleaved latency path walks `plan.interleave`
// trees of ONE sample in lockstep, so independent node fetches overlap in
// the out-of-order window, optionally software-prefetching the right
// ("opposite" of the implicit left) child ahead of the compare.
//
// Bit-identical to Forest::predict on every input of an exact image —
// including NaN routed by per-node default directions and categorical
// membership splits, via a Special traversal that consults per-sample
// NaN/membership masks computed alongside the keys (tests/test_layout.cpp,
// tests/test_predictor.cpp, tests/test_missing.cpp).  Forests without
// special splits take the mask-free paths.
#pragma once

#include <cstdint>
#include <span>
#include <variant>

#include "exec/layout/compact.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"

namespace flint::exec::layout {

/// A packed image of any width.
template <typename T>
using PackedImage = std::variant<CompactForest<T, CompactNode16>,
                                 CompactForest<T, CompactNode8>, Q4Forest<T>>;

/// Execution engine over one packed image (packed by try_pack /
/// try_pack_q4 — in production by exec/artifacts).  The source Forest does
/// not need to outlive it.  predict/predict_batch/predict_scores are
/// const-thread-safe (all vote and key scratch is function-local), so
/// ParallelPredictor can partition batches without cloning.
template <typename T>
class LayoutForestEngine {
 public:
  /// Binds an already-packed image without re-packing; `plan.width` is
  /// overridden to match the image's node format.  Throws
  /// std::invalid_argument on an empty image.
  LayoutForestEngine(PackedImage<T> image, const LayoutPlan& plan);

  [[nodiscard]] const LayoutPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t feature_count() const noexcept {
    return feature_count_;
  }
  [[nodiscard]] std::size_t tree_count() const noexcept { return tree_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }
  /// Bytes per packed node (16, 8 or 4).
  [[nodiscard]] std::size_t node_bytes() const noexcept { return node_bytes_; }
  /// Nodes in the shared hot slab (0 under pure DFS placement).
  [[nodiscard]] std::size_t hot_node_count() const noexcept {
    return hot_nodes_;
  }

  /// Classifies `n_samples` row-major samples into `out`.  Small batches
  /// take the interleaved latency path, larger ones the blocked loop.
  void predict_batch(const T* features, std::size_t n_samples,
                     std::int32_t* out) const;

  /// Float-accumulate epilogue for additive leaf-value models
  /// (model/forest_model.hpp): each leaf's key payload indexes a row of
  /// `leaf_values` (`n_outputs` values per row) and `out[s*n_outputs+j]`
  /// becomes base[j] (zeros when `base` is empty) plus the sum of the rows
  /// the sample's trees land on, accumulated in tree order over the blocked
  /// lockstep traversal.  Row indices must fit the packed key width — the
  /// same pack-time gate that bounds class ids.  Thread-safe; zero samples
  /// = no-op.
  void predict_scores(const T* features, std::size_t n_samples,
                      std::span<const T> leaf_values, std::size_t n_outputs,
                      std::span<const T> base, T* out) const;

  /// Majority-vote class for one sample (interleaved lockstep traversal).
  [[nodiscard]] std::int32_t predict(std::span<const T> x) const;

 private:
  LayoutPlan plan_;
  PackedImage<T> image_;
  int num_classes_ = 0;
  std::size_t feature_count_ = 0;
  std::size_t tree_count_ = 0;
  std::size_t node_count_ = 0;
  std::size_t node_bytes_ = 0;
  std::size_t hot_nodes_ = 0;
};

extern template class LayoutForestEngine<float>;
extern template class LayoutForestEngine<double>;

}  // namespace flint::exec::layout
