#include "exec/layout/quant4.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "exec/pack_checks.hpp"

namespace flint::exec::layout {

// ---------------------------------------------------------------------------
// Packing: shared placement pass, then geometry, then validated encode.
// ---------------------------------------------------------------------------

template <typename T>
std::optional<Q4Forest<T>> try_pack_q4(const trees::Forest<T>& forest,
                                       const LayoutPlan& plan,
                                       const KeyTableSet<T>& tables,
                                       bool force_affine, std::string* why) {
  auto fail = [&](std::string reason) -> std::optional<Q4Forest<T>> {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };

  if (forest.empty()) return fail("empty forest");

  Q4Forest<T> packed;
  packed.num_classes = forest.num_classes();
  packed.feature_count = forest.feature_count();
  packed.has_special = forest.has_special_splits();
  if (tables.features.size() != packed.feature_count) {
    return fail("key table set does not match the forest's feature count");
  }

  // Placement first: the emission order is geometry-independent, and its
  // offset extent is an input to the geometry choice below.
  const EmissionOrder eo = compute_emission_order(forest, plan.hot_depth);

  // Geometry: F covers the feature indices, O covers the measured offset
  // extent, the key keeps the rest (capped at 16 so sample keys stay
  // int16-addressable; at least 8 — the int8 floor — or the model is not
  // packable at 4 bytes).
  const std::size_t fc = std::max<std::size_t>(packed.feature_count, 1);
  const auto F = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::bit_width(fc - 1)));
  const auto O = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::bit_width(
             static_cast<std::uint64_t>(eo.max_right_offset))));
  if (F + O > 31 - 8) {
    return fail("q4 geometry: " + std::to_string(O) + " offset bits + " +
                std::to_string(F) +
                " feature bits leave fewer than 8 key bits");
  }
  Q4Geometry geom;
  geom.feature_bits = F;
  geom.offset_bits = 31 - F - std::min<std::uint32_t>(16, 31 - F - O);
  geom.key_bits = 31 - F - geom.offset_bits;
  packed.geom = geom;
  packed.hot_nodes = eo.hot_nodes;

  const auto key_mask = static_cast<std::int64_t>(geom.key_mask());
  if (static_cast<std::int64_t>(packed.num_classes) - 1 > key_mask) {
    return fail("class id / leaf row does not fit the q4 key bits");
  }
  if (packed.has_special && !CategorySlots::fit(forest, key_mask)) {
    return fail("categorical slot index does not fit the q4 key bits");
  }

  // Quantization plan at the key width the geometry actually provides.
  packed.qplan = quant::plan_from_tables(
      tables, static_cast<int>(geom.key_bits), force_affine);
  packed.tables = tables;

  // Encode in source order, validating every field as it is written.
  packed.nodes.resize(forest.total_nodes());
  packed.roots.resize(forest.size());
  if (packed.has_special) packed.flags.assign(forest.total_nodes(), 0);
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const auto& tpos = eo.pos[t];
    packed.roots[t] = tpos[0];
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const auto& nd = tree.node(static_cast<std::int32_t>(i));
      const auto p = static_cast<std::size_t>(tpos[i]);
      if (nd.is_leaf()) {
        check_leaf_class(nd.prediction, packed.num_classes, t);
        packed.nodes[p].word =
            geom.encode_leaf(static_cast<std::uint32_t>(nd.prediction));
        continue;
      }
      const std::int64_t off =
          static_cast<std::int64_t>(tpos[static_cast<std::size_t>(nd.right)]) -
          static_cast<std::int64_t>(tpos[i]);
      if (off <= 0 || off > static_cast<std::int64_t>(geom.offset_mask())) {
        // compute_emission_order bounded the extent the geometry was sized
        // from; an overflow here is a packer bug, not a model property.
        throw std::logic_error("layout::try_pack_q4: offset escaped geometry");
      }
      std::uint32_t key = 0;
      if (nd.is_categorical()) {
        key = static_cast<std::uint32_t>(
            packed.cats.add(nd.feature, tree.cat_set(nd.cat_slot)));
        packed.flags[p] |= kQ4Categorical;
      } else {
        const auto& fq =
            packed.qplan.features[static_cast<std::size_t>(nd.feature)];
        std::int64_t k;
        if (fq.exact()) {
          // rank_of_split normalizes -0.0 and verifies the exactness
          // precondition (split present at its own rank).
          k = rank_of_split(
              tables.features[static_cast<std::size_t>(nd.feature)],
              nd.split);
        } else {
          k = fq.quantize(
                  static_cast<double>(core::normalize_zero(nd.split))) -
              fq.q_lo;
        }
        if (k < 0 || k > key_mask) {
          return fail("quantized threshold escaped the q4 key range");
        }
        key = static_cast<std::uint32_t>(k);
      }
      packed.nodes[p].word =
          geom.encode(key, static_cast<std::uint32_t>(nd.feature),
                      static_cast<std::uint32_t>(off));
      if (nd.default_left()) packed.flags[p] |= kQ4DefaultLeft;
    }
  }
  return packed;
}

template struct Q4Forest<float>;
template struct Q4Forest<double>;
template std::optional<Q4Forest<float>> try_pack_q4<float>(
    const trees::Forest<float>&, const LayoutPlan&, const KeyTableSet<float>&,
    bool, std::string*);
template std::optional<Q4Forest<double>> try_pack_q4<double>(
    const trees::Forest<double>&, const LayoutPlan&,
    const KeyTableSet<double>&, bool, std::string*);

}  // namespace flint::exec::layout
