#include "exec/layout/compact.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "exec/pack_checks.hpp"

namespace flint::exec::layout {

namespace {

template <typename T, typename Node>
constexpr bool identity_keys_for() {
  // float thresholds ARE monotone int32 keys under to_radix_key, so the
  // 16-byte float node skips the rank table (and the per-sample search).
  return std::is_same_v<T, float> && sizeof(decltype(Node::key)) == 4;
}

void set_default_left(CompactNode16& n) { n.aux |= kC16DefaultLeft; }
void set_categorical(CompactNode16& n) { n.aux |= kC16Categorical; }
void set_default_left(CompactNode8& n) {
  n.feature = static_cast<std::int16_t>(static_cast<std::uint16_t>(n.feature) |
                                        kC8DefaultLeftBit);
}
void set_categorical(CompactNode8& n) { n.right_off |= kC8CategoricalBit; }

}  // namespace

// ---------------------------------------------------------------------------
// Packing: emission order (hot slab + preorder clusters), then node fill.
// ---------------------------------------------------------------------------

template <typename T>
EmissionOrder compute_emission_order(const trees::Forest<T>& forest,
                                     std::size_t hot_depth) {
  // A spine (a node and its chain of left descendants down to a leaf) is
  // the atomic placement unit: the implicit-left rule welds it together.
  // Spines whose branch depth is < hot_depth are emitted breadth-first
  // across all trees into the shared hot slab; every other subtree is
  // deferred and later emitted as one contiguous preorder cluster.
  struct Item {
    std::int32_t tree;
    std::int32_t node;
    std::uint32_t depth;
  };
  EmissionOrder eo;
  eo.pos.resize(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    eo.pos[t].assign(forest.tree(t).size(), -1);
  }
  std::int32_t next = 0;  // packed position of the next emitted node
  const auto emit = [&](std::int32_t tree, std::int32_t node) {
    eo.pos[static_cast<std::size_t>(tree)][static_cast<std::size_t>(node)] =
        next++;
  };
  std::deque<Item> fifo;
  std::vector<Item> cold;

  auto emit_spine = [&](Item it) {
    const auto& tree = forest.tree(static_cast<std::size_t>(it.tree));
    std::int32_t n = it.node;
    std::uint32_t d = it.depth;
    while (true) {
      emit(it.tree, n);
      const auto& nd = tree.node(n);
      if (nd.is_leaf()) break;
      const Item right{it.tree, nd.right, d + 1};
      if (right.depth < hot_depth) {
        fifo.push_back(right);
      } else {
        cold.push_back(right);
      }
      n = nd.left;
      ++d;
    }
  };

  for (std::size_t t = 0; t < forest.size(); ++t) {
    const Item root{static_cast<std::int32_t>(t), 0, 0};
    if (hot_depth == 0) {
      cold.push_back(root);
    } else {
      fifo.push_back(root);
    }
  }
  while (!fifo.empty()) {
    const Item it = fifo.front();
    fifo.pop_front();
    emit_spine(it);
  }
  eo.hot_nodes = static_cast<std::size_t>(next);
  // Cold phase: each deferred subtree as one preorder cluster (preorder
  // emits a parent's left child immediately after it, satisfying the
  // implicit-left rule within the cluster).
  std::vector<std::int32_t> stack;
  for (const Item& sub : cold) {
    const auto& tree = forest.tree(static_cast<std::size_t>(sub.tree));
    stack.assign(1, sub.node);
    while (!stack.empty()) {
      const std::int32_t n = stack.back();
      stack.pop_back();
      emit(sub.tree, n);
      const auto& nd = tree.node(n);
      if (!nd.is_leaf()) {
        stack.push_back(nd.right);  // popped second
        stack.push_back(nd.left);   // popped first: lands at parent + 1
      }
    }
  }
  if (static_cast<std::size_t>(next) != forest.total_nodes()) {
    throw std::logic_error(
        "layout::compute_emission_order: emission order dropped nodes");
  }
  // Placement invariants + the offset extent formats size their fields
  // from: left child at parent + 1, right child strictly after its parent.
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const auto& tpos = eo.pos[t];
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const auto& nd = tree.node(static_cast<std::int32_t>(i));
      if (nd.is_leaf()) continue;
      if (tpos[static_cast<std::size_t>(nd.left)] != tpos[i] + 1) {
        throw std::logic_error(
            "layout::compute_emission_order: placement broke the "
            "implicit-left rule");
      }
      const std::int64_t off =
          static_cast<std::int64_t>(tpos[static_cast<std::size_t>(nd.right)]) -
          static_cast<std::int64_t>(tpos[i]);
      if (off <= 0) {
        throw std::logic_error(
            "layout::compute_emission_order: right child placed before its "
            "parent");
      }
      eo.max_right_offset = std::max(eo.max_right_offset, off);
    }
  }
  return eo;
}

template <typename T, typename Node>
std::optional<CompactForest<T, Node>> try_pack(const trees::Forest<T>& forest,
                                               const LayoutPlan& plan,
                                               const KeyTableSet<T>& tables,
                                               std::string* why) {
  using Key = decltype(Node::key);
  auto fail = [&](std::string reason) -> std::optional<CompactForest<T, Node>> {
    if (why) *why = std::move(reason);
    return std::nullopt;
  };

  if (forest.empty()) return fail("empty forest");

  CompactForest<T, Node> packed;
  packed.num_classes = forest.num_classes();
  packed.feature_count = forest.feature_count();
  packed.identity_keys = identity_keys_for<T, Node>();
  packed.has_special = forest.has_special_splits();
  if (!packed.identity_keys) packed.tables = tables;

  // Representability gates for the narrow fields.
  constexpr std::int64_t key_max =
      sizeof(Key) == 2 ? 32767 : 0x7FFF'FFFFll;
  constexpr std::int64_t feature_max =
      sizeof(decltype(Node::feature)) == 2 ? 32767 : 0x7FFF'FFFFll;
  if (static_cast<std::int64_t>(packed.feature_count) > feature_max) {
    return fail("feature index does not fit the node's feature field");
  }
  if (packed.num_classes > key_max) {
    return fail("class id does not fit the node key");
  }
  if (!packed.identity_keys &&
      static_cast<std::int64_t>(tables.max_table_size()) > key_max) {
    return fail("a feature has more distinct thresholds than the node key "
                "width can rank");
  }
  if (!packed.identity_keys &&
      tables.features.size() != packed.feature_count) {
    return fail("key table set does not match the forest's feature count");
  }
  // Categorical slots live in the node key (one engine slot per
  // categorical node).
  if (packed.has_special && !CategorySlots::fit(forest, key_max)) {
    return fail("categorical slot index does not fit the node key");
  }

  // --- Pass 1: placement (shared with every packed format). ---------------
  const EmissionOrder eo = compute_emission_order(forest, plan.hot_depth);
  packed.hot_nodes = eo.hot_nodes;
  if (packed.has_special && sizeof(Node) == 8 &&
      eo.max_right_offset >= static_cast<std::int64_t>(kC8CategoricalBit)) {
    // Special C8 forests borrow right_off bit 30 for the categorical tag,
    // so their plain offsets must stay below it.
    return fail("right-child offset does not fit the special-split C8 "
                "offset range");
  }

  // --- Pass 2: fill nodes (keys, offsets, roots) in source order. ----------
  packed.nodes.resize(forest.total_nodes());
  packed.roots.resize(forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const auto& tree = forest.tree(t);
    const auto& tpos = eo.pos[t];
    packed.roots[t] = tpos[0];
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const auto& nd = tree.node(static_cast<std::int32_t>(i));
      Node out{};
      if (nd.is_leaf()) {
        check_leaf_class(nd.prediction, packed.num_classes, t);
        out.key = static_cast<Key>(nd.prediction);
        // Feature 0 (any valid column), not -1: the branchless lockstep
        // loops read keys[feature] before the leaf test resolves.
        out.feature = 0;
        out.right_off = -1;  // sign bit = leaf tag
      } else {
        out.right_off = tpos[static_cast<std::size_t>(nd.right)] - tpos[i];
        out.feature = static_cast<decltype(Node::feature)>(nd.feature);
        if (nd.is_categorical()) {
          out.key = static_cast<Key>(
              packed.cats.add(nd.feature, tree.cat_set(nd.cat_slot)));
          set_categorical(out);
        } else if (packed.identity_keys) {
          out.key = static_cast<Key>(
              core::to_radix_key(core::normalize_zero(nd.split)));
        } else {
          // rank_of_split normalizes -0.0 and verifies the exactness
          // precondition (split present at its own rank).
          out.key = static_cast<Key>(rank_of_split(
              tables.features[static_cast<std::size_t>(nd.feature)],
              nd.split));
        }
        if (nd.default_left()) set_default_left(out);
      }
      packed.nodes[static_cast<std::size_t>(tpos[i])] = out;
    }
  }
  return packed;
}

template EmissionOrder compute_emission_order<float>(
    const trees::Forest<float>&, std::size_t);
template EmissionOrder compute_emission_order<double>(
    const trees::Forest<double>&, std::size_t);
template struct CompactForest<float, CompactNode16>;
template struct CompactForest<float, CompactNode8>;
template struct CompactForest<double, CompactNode16>;
template struct CompactForest<double, CompactNode8>;
template std::optional<CompactForest<float, CompactNode16>>
try_pack<float, CompactNode16>(const trees::Forest<float>&, const LayoutPlan&,
                               const KeyTableSet<float>&, std::string*);
template std::optional<CompactForest<float, CompactNode8>>
try_pack<float, CompactNode8>(const trees::Forest<float>&, const LayoutPlan&,
                              const KeyTableSet<float>&, std::string*);
template std::optional<CompactForest<double, CompactNode16>>
try_pack<double, CompactNode16>(const trees::Forest<double>&,
                                const LayoutPlan&, const KeyTableSet<double>&,
                                std::string*);
template std::optional<CompactForest<double, CompactNode8>>
try_pack<double, CompactNode8>(const trees::Forest<double>&, const LayoutPlan&,
                               const KeyTableSet<double>&, std::string*);

}  // namespace flint::exec::layout
