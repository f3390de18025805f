// exec/layout/narrow — FLInt order-preserving threshold narrowing.
//
// FLInt turns every split into one integer compare, which makes forest
// inference memory-bound: node fetches dominate once the ALU work is a
// single comparison.  The compact node formats (exec/layout/compact.hpp)
// attack that by shrinking what a node *stores* — and the key insight that
// makes shrinking exact is the same monotone bit-pattern order the paper
// proves for full-width floats:
//
//   A node only ever evaluates `x <= s` against the *finite set* of split
//   values its feature is tested with.  Map every float v to
//
//       rank_f(v) = |{ t in splits(f) : t <_FLInt v }|
//
//   (the lower-bound index of v's radix key in the sorted distinct split
//   keys of feature f).  rank_f is monotone in the FLInt total order, and
//   for every split s in the table
//
//       x <=_FLInt s   <=>   rank_f(x) <= rank_f(s)
//
//   exactly: if x <= s = sorted[i], every split strictly below x is among
//   sorted[0..i-1], so rank(x) <= i = rank(s); if x > s, splits sorted[0..i]
//   are all strictly below x, so rank(x) >= i + 1 > rank(s).
//
// Ranks fit whatever integer width covers the table size — int16 for up to
// 32767 distinct splits per feature, int32 always — so an 8-byte node can
// carry a full-fidelity threshold.  This is the exact-by-construction form
// of the order-preserving integer narrowing InTreeger applies to thresholds
// (PAPERS.md); exactness is still *verified* at pack time (strict table
// order + every split round-trips through its rank) and property-tested on
// adversarial bit patterns in tests/test_layout.cpp.
//
// The float->int32 identity case needs no table at all: to_radix_key is
// itself a monotone int32 key (core/flint.hpp), so 16-byte float nodes skip
// the per-sample binary search entirely.
#pragma once

#include <cstdint>
#include <vector>

#include "core/flint.hpp"
#include "trees/forest.hpp"

namespace flint::exec::layout {

/// Sorted distinct radix keys of every split one feature is tested against,
/// plus the rank remap.  An empty table (feature never tested) maps every
/// value to rank 0, which is trivially exact — no node reads it.
template <typename T>
struct KeyTable {
  using Signed = typename core::FloatTraits<T>::Signed;

  std::vector<Signed> sorted;  ///< strictly ascending radix keys

  [[nodiscard]] std::size_t size() const noexcept { return sorted.size(); }

  /// rank of a radix key: |{ k in sorted : k < key }| in [0, size()].
  [[nodiscard]] std::int32_t rank_of_key(Signed key) const noexcept {
    // Branchless lower bound (sorted is strictly ascending).  The classic
    // lo/hi binary search takes a data-dependent branch every iteration;
    // on the remap hot path (one search per feature per sample) those
    // mispredictions dominated the narrow formats' per-sample cost — the
    // layout:c8 smoke-model regression.  This halving form advances `base`
    // by a conditional move instead, so the only branch is the loop
    // counter, which predicts perfectly (trip count depends on size alone).
    const Signed* base = sorted.data();
    std::size_t n = sorted.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base += (base[half - 1] < key) ? half : 0;  // cmov, not a branch
      n -= half;
    }
    const std::size_t last =
        (n == 1 && *base < key) ? 1 : 0;  // element strictly below key
    return static_cast<std::int32_t>(
        static_cast<std::size_t>(base - sorted.data()) + last);
  }

  /// rank of a float value in the FLInt total order.
  [[nodiscard]] std::int32_t rank(T v) const noexcept {
    return rank_of_key(core::to_radix_key(v));
  }
};

/// One KeyTable per feature of a forest.
template <typename T>
struct KeyTableSet {
  std::vector<KeyTable<T>> features;

  /// Largest per-feature table (bounds the rank range).
  [[nodiscard]] std::size_t max_table_size() const noexcept {
    std::size_t m = 0;
    for (const auto& f : features) {
      if (f.size() > m) m = f.size();
    }
    return m;
  }

  /// True iff every rank (<= table size) fits an int16 node key.
  [[nodiscard]] bool fits_int16() const noexcept {
    return max_table_size() <= 32767;
  }
};

/// Collects, per feature, the sorted distinct radix keys of every split in
/// the forest (split -0.0 normalized to +0.0 first, exactly as the Encoded
/// engine does), and verifies the exactness preconditions: strict ascending
/// order and every split's key present at its own rank.  Throws
/// std::logic_error if verification fails (it cannot, by construction —
/// the check guards future refactors).
template <typename T>
[[nodiscard]] KeyTableSet<T> build_key_tables(const trees::Forest<T>& forest);

/// Narrow key of one split value: applies the -0.0 -> +0.0 normalization,
/// ranks the radix key, and verifies the split actually sits in the table
/// at that rank (the exactness precondition every packed node relies on).
/// Throws std::logic_error when it does not — the table was built from a
/// different forest.  The single helper both the compact and the 4-byte
/// packers go through, so the normalization rule cannot drift between
/// them.
template <typename T>
[[nodiscard]] std::int32_t rank_of_split(const KeyTable<T>& table, T split);

extern template struct KeyTable<float>;
extern template struct KeyTable<double>;
extern template struct KeyTableSet<float>;
extern template struct KeyTableSet<double>;
extern template KeyTableSet<float> build_key_tables<float>(
    const trees::Forest<float>&);
extern template KeyTableSet<double> build_key_tables<double>(
    const trees::Forest<double>&);
extern template std::int32_t rank_of_split<float>(const KeyTable<float>&,
                                                  float);
extern template std::int32_t rank_of_split<double>(const KeyTable<double>&,
                                                   double);

}  // namespace flint::exec::layout
