// exec/layout/quant4 — the 4-byte quantized node format (layout:q4).
//
// The compact formats (compact.hpp) stop at 8 bytes because they store a
// full int16 rank plus an int16 feature plus an int32 offset.  This module
// pushes the same memory-bound argument to its end: ONE 32-bit word per
// node, so twice the forest fits in each cache level again, and the hot
// loop is integer-only end to end.
//
//   CompactNode4 (4 B)   [ leaf:1 | right_off:O | feature:F | key:K ]
//
// The bit budget is resolved PER FOREST at pack time: placement is decided
// first (compute_emission_order — the same hot-slab/preorder pass every
// compact format shares, and geometry-independent by construction), which
// fixes the largest relative right offset; O covers that offset, F covers
// the feature count, and the key keeps the remaining K = 31 - F - O bits,
// capped at 16 and required >= 8 (the int16/int8 quantized threshold).
// Leaves set the sign bit and carry their class id / leaf-value row in the
// key bits with feature and offset bits zero, so branchless lockstep loops
// can decode every field before the leaf test resolves.
//
// Thresholds are quantized per feature under a QuantPlan (quant/quant_plan):
// features whose rank table fits K bits keep the exact rank contract —
// bit-identical inference, the narrow.hpp theorem at 4 bytes — and larger
// tables fall back to a calibrated affine map with a measured per-feature
// fitness (how many distinct thresholds survive).  The plan travels with
// the packed image, so verify/inspect/bench all report the same contract.
//
// Each sample is quantized exactly once, in its block (Q4Forest::remap,
// called by the engine's traversal core as it fills a block — exec/layout/
// engine.hpp); the traversal — scalar lockstep, interleaved predict_one,
// or the AVX2 tile kernel — then touches only integer keys and 4-byte
// words: no float compare after the remap.
//
// NaN default-direction and categorical splits route exactly as in the
// other layouts, via a per-node flags SIDECAR (allocated only for special
// forests) plus the same per-sample NaN/membership masks — the 4-byte word
// itself has no spare bits to borrow.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flint.hpp"
#include "exec/layout/compact.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "quant/quant_plan.hpp"
#include "trees/forest.hpp"

namespace flint::exec::layout {

/// The packed word.  Default-constructed as an out-of-range leaf so an
/// uninitialized node can never masquerade as a valid inner node.
struct CompactNode4 {
  std::uint32_t word = 0x8000'0000u;
};
static_assert(sizeof(CompactNode4) == 4, "CompactNode4 must stay 4 bytes");

/// Sign bit of the word = leaf tag (decoded with one arithmetic shift).
inline constexpr std::uint32_t kQ4LeafBit = 0x8000'0000u;

/// Sidecar flag bits (same values as trees::kNodeDefaultLeft/Categorical).
inline constexpr std::uint8_t kQ4DefaultLeft = 1;
inline constexpr std::uint8_t kQ4Categorical = 2;

/// Per-forest bit budget of the word's three fields (sums to 31).
struct Q4Geometry {
  std::uint32_t key_bits = 16;
  std::uint32_t feature_bits = 8;
  std::uint32_t offset_bits = 7;

  [[nodiscard]] constexpr std::uint32_t key_mask() const noexcept {
    return (std::uint32_t{1} << key_bits) - 1u;
  }
  [[nodiscard]] constexpr std::uint32_t feature_mask() const noexcept {
    return (std::uint32_t{1} << feature_bits) - 1u;
  }
  [[nodiscard]] constexpr std::uint32_t offset_mask() const noexcept {
    return (std::uint32_t{1} << offset_bits) - 1u;
  }
  [[nodiscard]] constexpr std::uint32_t feature_shift() const noexcept {
    return key_bits;
  }
  [[nodiscard]] constexpr std::uint32_t offset_shift() const noexcept {
    return key_bits + feature_bits;
  }

  [[nodiscard]] constexpr std::uint32_t encode(std::uint32_t key,
                                               std::uint32_t feature,
                                               std::uint32_t right_off)
      const noexcept {
    return key | (feature << feature_shift()) | (right_off << offset_shift());
  }
  [[nodiscard]] constexpr std::uint32_t encode_leaf(std::uint32_t payload)
      const noexcept {
    return kQ4LeafBit | payload;
  }

  [[nodiscard]] constexpr bool is_leaf(std::uint32_t w) const noexcept {
    return (w & kQ4LeafBit) != 0;
  }
  [[nodiscard]] constexpr std::uint32_t key_of(std::uint32_t w) const noexcept {
    return w & key_mask();
  }
  [[nodiscard]] constexpr std::uint32_t feature_of(std::uint32_t w)
      const noexcept {
    return (w >> feature_shift()) & feature_mask();
  }
  [[nodiscard]] constexpr std::uint32_t offset_of(std::uint32_t w)
      const noexcept {
    return (w >> offset_shift()) & offset_mask();
  }
};

/// A forest packed into 4-byte words plus its quantization plan.
template <typename T>
struct Q4Forest {
  /// Element type of quantized sample keys (keys span at most 16 bits).
  using Key = std::uint16_t;
  static constexpr NodeWidth kWidth = NodeWidth::Q4;

  Q4Geometry geom;
  int num_classes = 0;
  std::size_t feature_count = 0;
  std::size_t hot_nodes = 0;
  bool has_special = false;
  quant::QuantPlan qplan;  ///< per-feature quantizers; bits == geom.key_bits
  KeyTableSet<T> tables;   ///< rank tables for the Exact-mode features
  std::vector<CompactNode4> nodes;
  std::vector<std::int32_t> roots;
  /// Per-node kQ4DefaultLeft/kQ4Categorical bits; empty unless has_special
  /// (the word has no spare bits, so special semantics ride in a sidecar
  /// the fast paths never touch).
  std::vector<std::uint8_t> flags;
  /// Category slots; each slot id is stored in its node's key bits.
  CategorySlots cats;

  /// Bit-exact contract: every feature keys by exact rank.
  [[nodiscard]] bool exact() const noexcept { return qplan.all_exact(); }

  /// Quantizes one sample to stored keys, feature f landing at
  /// out[f * stride]: exact features rank through the table, affine
  /// features go through their calibrated map.  Thread-safe.
  template <typename K>
  void remap(const T* x, K* out, std::size_t stride = 1) const {
    for (std::size_t f = 0; f < feature_count; ++f) {
      const auto& fq = qplan.features[f];
      out[f * stride] =
          fq.exact()
              ? static_cast<K>(tables.features[f].rank(x[f]))
              : static_cast<K>(fq.quantize(static_cast<double>(x[f])) -
                               fq.q_lo);
    }
  }
};

/// Packs `forest` into the 4-byte format at `plan.hot_depth`.  Placement
/// runs first; the geometry is then sized from the measured offset extent
/// and the feature count, and every node is validated as it is encoded
/// (key/feature/offset ranges, leaf payloads, implicit-left).  Returns
/// std::nullopt and sets `why` when the 31-bit budget cannot be met (fewer
/// than 8 key bits left, payload overflow, ...).  `force_affine` routes
/// every tested feature through the affine map — the deterministic lossy
/// path behind the quant:affine backend.
template <typename T>
[[nodiscard]] std::optional<Q4Forest<T>> try_pack_q4(
    const trees::Forest<T>& forest, const LayoutPlan& plan,
    const KeyTableSet<T>& tables, bool force_affine = false,
    std::string* why = nullptr);

extern template struct Q4Forest<float>;
extern template struct Q4Forest<double>;
extern template std::optional<Q4Forest<float>> try_pack_q4<float>(
    const trees::Forest<float>&, const LayoutPlan&, const KeyTableSet<float>&,
    bool, std::string*);
extern template std::optional<Q4Forest<double>> try_pack_q4<double>(
    const trees::Forest<double>&, const LayoutPlan&,
    const KeyTableSet<double>&, bool, std::string*);

}  // namespace flint::exec::layout
