// exec/layout/compact — cache-aware compact node formats and placement.
//
// Once FLInt reduces every split to one integer compare, random-forest
// inference is memory-bound: the wide interpreter's 16/24-byte PackedNode
// stream dominates, and deep-forest throughput degrades exactly where the
// packed image spills out of cache.  This module re-packs a forest into
// node formats engineered for the memory hierarchy:
//
//   CompactNode16 (16 B)  int32 key + int32 right offset + int32 feature
//                         (+ explicit pad so four nodes tile a 64-byte
//                         line and no node ever straddles one);
//   CompactNode8  (8 B)   int16 key + int16 feature + int32 right offset —
//                         half the bytes per fetched node, eight per line.
//
// Three layout tricks, applied to both widths:
//
//   * implicit left child — an inner node's left child is ALWAYS the next
//     node (left = self + 1), so nodes store only a relative right offset
//     (right = self + right_off).  Leaves are tagged in the offset's sign
//     bit (right_off < 0) and carry their class id in `key`; no separate
//     leaf array, no absolute child indices.
//   * order-preserving threshold narrowing — node keys are either the raw
//     int32 radix key (float/C16, no per-sample table lookup) or the
//     feature's rank in a per-feature monotone key table (narrow.hpp);
//     both make `x <= s` a single narrow integer compare, exactly.
//   * placement — the left-spine of every subtree is contiguous by the
//     implicit-left rule, so placement freedom is *where right subtrees
//     go*.  hot_depth = 0 emits each tree in preorder (every subtree a
//     contiguous cluster — the left-spine-contiguous specialization of
//     vEB-style clustering under the implicit-left constraint).
//     hot_depth = D additionally root-blocks the forest: the spines whose
//     branch depth is < D, across ALL trees, are emitted breadth-first
//     into one contiguous "hot slab" at the front of the node array (the
//     working set every sample touches), and the subtrees hanging below
//     the slab are emitted as preorder clusters behind it.
//
// Missing-value and categorical splits ride in spare node bits (see the
// per-format comments below); categorical nodes number their category
// sets through the CategorySlots tables every packed format shares.
//
// This header holds the formats, placement and packing; the one execution
// engine over every packed image (these two and quant4.hpp's 4-byte word)
// is exec/layout/engine.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/flint.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "trees/forest.hpp"

namespace flint::exec::layout {

/// CompactNode16 `aux` flag bits (the word that used to be pure line pad).
inline constexpr std::int32_t kC16DefaultLeft = 1;  ///< NaN routes left
inline constexpr std::int32_t kC16Categorical = 2;  ///< key = cat slot

/// 16-byte compact node.  Inner: `key` is the narrowed threshold, right
/// child at self + right_off (> 0), left child at self + 1.  Leaf:
/// right_off < 0, `key` is the class id, and `feature` is 0 — a valid
/// column, so branchless lockstep loops may read keys[feature] before the
/// leaf test resolves.  `aux` carries the missing/categorical flags (zero
/// on every node of a forest without such splits — the fast traversal
/// never reads it); categorical nodes store their engine-level category
/// slot in `key`.
struct CompactNode16 {
  std::int32_t key = 0;
  std::int32_t right_off = -1;
  std::int32_t feature = -1;
  std::int32_t aux = 0;  ///< flags; 4 nodes tile a 64 B line, none straddles
};
static_assert(sizeof(CompactNode16) == 16, "CompactNode16 must stay 16 bytes");

/// 8-byte compact node: same scheme with int16 key/feature.  No spare word,
/// so the missing/categorical bits hide in spare bits of existing fields:
/// feature indices are gated <= 32767 at pack time, freeing feature bit 15
/// for default-left, and right offsets of special forests are gated
/// < 2^30, freeing right_off bit 30 for the categorical tag (the sign bit
/// stays the leaf tag, tested first).  Both bits are zero in forests
/// without special splits, so the fast traversal reads the fields raw.
struct CompactNode8 {
  std::int16_t key = 0;
  std::int16_t feature = -1;
  std::int32_t right_off = -1;
};
static_assert(sizeof(CompactNode8) == 8, "CompactNode8 must stay 8 bytes");

inline constexpr std::uint16_t kC8DefaultLeftBit = 0x8000u;  ///< feature bit 15
inline constexpr std::int32_t kC8CategoricalBit = 1 << 30;   ///< right_off bit 30

/// Flag/field accessors the Special traversal uses; the non-special path
/// keeps reading the raw fields (bit-identical to the pre-missing layout).
[[nodiscard]] inline bool node_default_left(const CompactNode16& n) noexcept {
  return (n.aux & kC16DefaultLeft) != 0;
}
[[nodiscard]] inline bool node_categorical(const CompactNode16& n) noexcept {
  return (n.aux & kC16Categorical) != 0;
}
[[nodiscard]] inline std::int32_t node_feature(const CompactNode16& n) noexcept {
  return n.feature;
}
[[nodiscard]] inline std::int32_t node_right_off(const CompactNode16& n) noexcept {
  return n.right_off;
}
[[nodiscard]] inline bool node_default_left(const CompactNode8& n) noexcept {
  return (static_cast<std::uint16_t>(n.feature) & kC8DefaultLeftBit) != 0;
}
[[nodiscard]] inline bool node_categorical(const CompactNode8& n) noexcept {
  return n.right_off >= 0 && (n.right_off & kC8CategoricalBit) != 0;
}
[[nodiscard]] inline std::int32_t node_feature(const CompactNode8& n) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint16_t>(n.feature) &
                                   ~kC8DefaultLeftBit);
}
[[nodiscard]] inline std::int32_t node_right_off(const CompactNode8& n) noexcept {
  return n.right_off >= 0 ? (n.right_off & ~kC8CategoricalBit) : n.right_off;
}

/// Category side tables of a special-split image, shared by every packed
/// format: each categorical NODE owns one engine slot (stored in its node
/// key), so per-sample membership can be precomputed per slot without
/// consulting the node again.
struct CategorySlots {
  std::vector<std::uint32_t> words;   ///< category bitsets, all slots
  std::vector<std::int32_t> offsets;  ///< word offset per slot
  std::vector<std::int32_t> sizes;    ///< word count per slot
  std::vector<std::int32_t> feature;  ///< feature each slot tests

  [[nodiscard]] std::size_t slot_count() const noexcept {
    return feature.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> set_of_slot(
      std::size_t s) const noexcept {
    return {words.data() + static_cast<std::size_t>(offsets[s]),
            static_cast<std::size_t>(sizes[s])};
  }

  /// Appends the slot of one categorical node; returns its index.
  std::int64_t add(std::int32_t feature_index,
                   std::span<const std::uint32_t> set) {
    offsets.push_back(static_cast<std::int32_t>(words.size()));
    sizes.push_back(static_cast<std::int32_t>(set.size()));
    words.insert(words.end(), set.begin(), set.end());
    feature.push_back(feature_index);
    return static_cast<std::int64_t>(feature.size()) - 1;
  }

  /// Pack gate: true when every categorical node of `forest` (one slot
  /// each) can be numbered by a key of at most `key_max`.
  template <typename T>
  [[nodiscard]] static bool fit(const trees::Forest<T>& forest,
                                std::int64_t key_max) {
    std::int64_t n_cat = 0;
    for (std::size_t t = 0; t < forest.size(); ++t) {
      for (const auto& n : forest.tree(t).nodes()) {
        if (!n.is_leaf() && n.is_categorical()) ++n_cat;
      }
    }
    return n_cat <= key_max;
  }

  /// Per-sample side masks the Special traversal consults before any key
  /// compare: `nan_out[f]` = 1 iff x[f] is NaN (detected from the integer
  /// encoding, (bits & abs_mask) > exp_mask); `member_out[s]` = 1 iff
  /// x[feature[s]] is a member of slot s's category set.  `nan_out` needs
  /// `feature_count` slots, `member_out` slot_count() slots.
  template <typename T>
  void special_masks(const T* x, std::size_t feature_count,
                     std::uint8_t* nan_out, std::uint8_t* member_out) const {
    for (std::size_t f = 0; f < feature_count; ++f) {
      nan_out[f] = core::is_nan_bits<T>(core::si_bits(x[f])) ? 1 : 0;
    }
    for (std::size_t s = 0; s < feature.size(); ++s) {
      const T v = x[static_cast<std::size_t>(feature[s])];
      member_out[s] = (!core::is_nan_bits<T>(core::si_bits(v)) &&
                       trees::cat_contains(set_of_slot(s), v))
                          ? 1
                          : 0;
    }
  }
};

/// A forest packed into one compact node array.  `Node` is CompactNode16
/// or CompactNode8; `Key` follows its key field and is also the element
/// type of remapped sample keys.
template <typename T, typename Node>
struct CompactForest {
  using Key = decltype(Node::key);
  static constexpr NodeWidth kWidth =
      sizeof(Node) == 16 ? NodeWidth::C16 : NodeWidth::C8;

  int num_classes = 0;
  std::size_t feature_count = 0;
  std::size_t hot_nodes = 0;     ///< nodes in the hot slab (0 for pure DFS)
  bool identity_keys = false;    ///< float/C16: key = radix key, table-free
  bool has_special = false;      ///< any default-left / categorical node
  std::vector<Node> nodes;       ///< all trees, placement per LayoutPlan
  std::vector<std::int32_t> roots;  ///< position of each tree's root
  KeyTableSet<T> tables;         ///< rank tables (empty when identity_keys)
  CategorySlots cats;            ///< category slots (has_special only)

  /// Remaps one sample to narrow comparison keys, feature f landing at
  /// out[f * stride] (stride 8 writes one lane of the AVX2 kernel's
  /// feature-major key tiles).  Thread-safe.
  template <typename K>
  void remap(const T* x, K* out, std::size_t stride = 1) const {
    if (identity_keys) {
      for (std::size_t f = 0; f < feature_count; ++f) {
        out[f * stride] = static_cast<K>(core::to_radix_key(x[f]));
      }
    } else {
      for (std::size_t f = 0; f < feature_count; ++f) {
        out[f * stride] = static_cast<K>(tables.features[f].rank(x[f]));
      }
    }
  }
};

/// The placement pass shared by every packed node format.  Placement is
/// geometry-independent — it decides only WHERE each node is emitted (hot
/// slab spines breadth-first across trees, then preorder cold clusters;
/// see the file comment) — so formats whose field widths depend on the
/// resulting offsets (the 4-byte quantized word sizes its offset bits from
/// max_right_offset) can place first and pick their geometry second.
/// Packers fill nodes[pos[t][n]] walking the source trees in order.
struct EmissionOrder {
  std::vector<std::vector<std::int32_t>> pos;  ///< [tree][node] -> position
  std::size_t hot_nodes = 0;  ///< leading nodes in the hot slab (0 = pure DFS)
  /// Largest relative right-child offset any inner node needs (0 when the
  /// forest is all leaves).
  std::int64_t max_right_offset = 0;
};

/// Computes the emission order for `forest` at `hot_depth` and verifies the
/// placement invariants every compact format relies on (left child at
/// parent + 1, every right child after its parent, no node dropped).
/// Throws std::logic_error when an invariant fails — impossible by
/// construction; the check guards refactors.
template <typename T>
[[nodiscard]] EmissionOrder compute_emission_order(
    const trees::Forest<T>& forest, std::size_t hot_depth);

/// Packs `forest` per `plan` (width + hot_depth are consulted; Wide is not
/// packable).  Returns std::nullopt and sets `why` when the model cannot be
/// represented at this width (rank/feature/class overflow).  `tables` is
/// shared with the caller (exec/artifacts builds them once per forest and
/// reuses them for every width and hot depth).
template <typename T, typename Node>
[[nodiscard]] std::optional<CompactForest<T, Node>> try_pack(
    const trees::Forest<T>& forest, const LayoutPlan& plan,
    const KeyTableSet<T>& tables, std::string* why = nullptr);

extern template EmissionOrder compute_emission_order<float>(
    const trees::Forest<float>&, std::size_t);
extern template EmissionOrder compute_emission_order<double>(
    const trees::Forest<double>&, std::size_t);
extern template struct CompactForest<float, CompactNode16>;
extern template struct CompactForest<float, CompactNode8>;
extern template struct CompactForest<double, CompactNode16>;
extern template struct CompactForest<double, CompactNode8>;
extern template std::optional<CompactForest<float, CompactNode16>>
try_pack<float, CompactNode16>(const trees::Forest<float>&, const LayoutPlan&,
                               const KeyTableSet<float>&, std::string*);
extern template std::optional<CompactForest<float, CompactNode8>>
try_pack<float, CompactNode8>(const trees::Forest<float>&, const LayoutPlan&,
                              const KeyTableSet<float>&, std::string*);
extern template std::optional<CompactForest<double, CompactNode16>>
try_pack<double, CompactNode16>(const trees::Forest<double>&,
                                const LayoutPlan&, const KeyTableSet<double>&,
                                std::string*);
extern template std::optional<CompactForest<double, CompactNode8>>
try_pack<double, CompactNode8>(const trees::Forest<double>&, const LayoutPlan&,
                               const KeyTableSet<double>&, std::string*);

}  // namespace flint::exec::layout
