// trees/forest — bagged random-forest ensemble over CART trees.
//
// Mirrors scikit-learn's RandomForestClassifier as used by the paper:
// each tree is trained on a bootstrap resample of the training set with
// sqrt(d) feature subsampling per split; prediction is a majority vote over
// the per-tree class predictions (ties resolved toward the lower class id,
// matching argmax over vote counts).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "trees/train.hpp"
#include "trees/tree.hpp"

namespace flint::trees {

struct ForestOptions {
  int n_trees = 10;
  TrainOptions tree;       ///< per-tree options; tree.seed is the forest seed
  bool bootstrap = true;   ///< sample n rows with replacement per tree
};

/// First-maximum argmax over one sample's vote row: the tie rule of
/// Forest::predict (lowest class id wins on equal votes).
[[nodiscard]] inline std::int32_t argmax_first(const int* votes,
                                               int num_classes) noexcept {
  std::int32_t best = 0;
  for (int c = 1; c < num_classes; ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  return best;
}

template <typename T>
class Forest {
 public:
  Forest() = default;
  Forest(std::vector<Tree<T>> trees, int num_classes)
      : trees_(std::move(trees)), num_classes_(num_classes) {}

  [[nodiscard]] std::size_t size() const noexcept { return trees_.size(); }
  [[nodiscard]] bool empty() const noexcept { return trees_.empty(); }
  [[nodiscard]] const Tree<T>& tree(std::size_t i) const { return trees_[i]; }
  [[nodiscard]] Tree<T>& tree(std::size_t i) { return trees_[i]; }
  [[nodiscard]] std::span<const Tree<T>> trees() const noexcept { return trees_; }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t feature_count() const {
    return trees_.empty() ? 0 : trees_.front().feature_count();
  }
  /// True when any tree carries missing/categorical node semantics.
  [[nodiscard]] bool has_special_splits() const noexcept {
    for (const auto& t : trees_) {
      if (t.has_special_splits()) return true;
    }
    return false;
  }

  /// Majority-vote prediction with float comparisons (reference semantics
  /// for every other execution engine in this repo).
  [[nodiscard]] std::int32_t predict(std::span<const T> x) const;

  /// Per-class vote counts for one sample (length num_classes()).
  [[nodiscard]] std::vector<int> vote(std::span<const T> x) const;

  /// Total node count across all trees.
  [[nodiscard]] std::size_t total_nodes() const noexcept;
  /// Maximum tree depth across the ensemble.
  [[nodiscard]] std::size_t max_depth() const;

 private:
  std::vector<Tree<T>> trees_;
  int num_classes_ = 0;
};

/// Trains a forest; deterministic in options.tree.seed.  Each tree t draws
/// its bootstrap sample and its split-candidate RNG from seed + t.
template <typename T>
[[nodiscard]] Forest<T> train_forest(const data::Dataset<T>& dataset,
                                     const ForestOptions& options);

/// Fraction of rows classified correctly by majority vote.
template <typename T>
[[nodiscard]] double accuracy(const Forest<T>& forest, const data::Dataset<T>& dataset);

extern template class Forest<float>;
extern template class Forest<double>;

}  // namespace flint::trees
