#include "exec/layout/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "exec/layout/kernels.hpp"
#include "trees/forest.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define FLINT_PREFETCH(p) __builtin_prefetch((p))
#else
#define FLINT_PREFETCH(p) ((void)0)
#endif

namespace flint::exec::layout {

namespace {

/// One packed node as the traversal core sees it.
struct NodeView {
  bool leaf;
  std::int32_t key;      ///< threshold key, category slot, or leaf payload
  std::size_t feature;   ///< 0 on leaves (a valid column)
  std::int32_t right;    ///< relative right-child offset (inner nodes)
  bool default_left;     ///< NaN routes left (Special decode only)
  bool categorical;      ///< key is a category slot (Special decode only)
};

/// Per-format node codec.  Special = false reads the raw fields (their
/// special-split bits are zero in forests without such splits); Special =
/// true strips and reports them.
template <typename Image>
struct Codec;

template <typename T, typename Node>
struct Codec<CompactForest<T, Node>> {
  const Node* nodes;

  explicit Codec(const CompactForest<T, Node>& f) : nodes(f.nodes.data()) {}

  [[nodiscard]] const Node* at(std::int32_t p) const { return nodes + p; }

  template <bool Special>
  [[nodiscard]] NodeView view(std::int32_t p) const {
    const Node& nd = nodes[p];
    if constexpr (Special) {
      return {nd.right_off < 0,
              nd.key,
              static_cast<std::size_t>(node_feature(nd)),
              node_right_off(nd),
              node_default_left(nd),
              node_categorical(nd)};
    } else {
      return {nd.right_off < 0, nd.key,
              static_cast<std::size_t>(nd.feature), nd.right_off, false,
              false};
    }
  }

#if defined(FLINT_SIMD_AVX2)
  void tiles(const CompactForest<T, Node>& f, const std::int32_t* keys,
             std::size_t n_tiles, std::size_t cols, int* votes,
             std::size_t classes) const {
    predict_tiles_avx2(nodes, f.roots.data(), f.roots.size(), keys, n_tiles,
                       cols, votes, classes);
  }
#endif
};

template <typename T>
struct Codec<Q4Forest<T>> {
  const CompactNode4* nodes;
  const std::uint8_t* flags;
  Q4Geometry geom;

  explicit Codec(const Q4Forest<T>& f)
      : nodes(f.nodes.data()), flags(f.flags.data()), geom(f.geom) {}

  [[nodiscard]] const CompactNode4* at(std::int32_t p) const {
    return nodes + p;
  }

  template <bool Special>
  [[nodiscard]] NodeView view(std::int32_t p) const {
    const std::uint32_t w = nodes[p].word;
    NodeView n{geom.is_leaf(w),
               static_cast<std::int32_t>(geom.key_of(w)),
               static_cast<std::size_t>(geom.feature_of(w)),
               static_cast<std::int32_t>(geom.offset_of(w)),
               false,
               false};
    if constexpr (Special) {
      n.default_left = (flags[p] & kQ4DefaultLeft) != 0;
      n.categorical = (flags[p] & kQ4Categorical) != 0;
    }
    return n;
  }

#if defined(FLINT_SIMD_AVX2)
  void tiles(const Q4Forest<T>& f, const std::int32_t* keys,
             std::size_t n_tiles, std::size_t cols, int* votes,
             std::size_t classes) const {
    predict_tiles_avx2(nodes, geom, f.roots.data(), f.roots.size(), keys,
                       n_tiles, cols, votes, classes);
  }
#endif
};

/// Samples advanced in lockstep through one tree by the blocked path: the
/// across-samples dual of the latency path's across-trees interleave.  One
/// serial pointer chase per sample would leave the memory system idle
/// between dependent node fetches; W independent chases overlap in the
/// out-of-order window.
constexpr std::size_t kBlockLockstep = 16;

/// Batches below this take the interleaved path (blocked amortization has
/// nothing to amortize over).
constexpr std::size_t kLatencyPathMaxBatch = 8;

/// Narrow keys (plus, for special forests, NaN flags per feature and
/// categorical membership per slot) of up to `rows` samples — each sample
/// mapped once, before any tree is walked.  Row strides are at least 1 so
/// leaves, which read key column 0, stay in bounds on featureless forests.
template <typename Image>
struct SampleKeys {
  using Key = typename Image::Key;

  SampleKeys(const Image& f, std::size_t rows)
      : cols(std::max<std::size_t>(f.feature_count, 1)),
        slots(std::max<std::size_t>(f.cats.slot_count(), 1)),
        keys(rows * cols, Key{0}),
        nan(f.has_special ? rows * cols : 0),
        member(f.has_special ? rows * slots : 0) {}

  template <typename T>
  void load(const Image& f, const T* x, std::size_t row) {
    f.remap(x, keys.data() + row * cols);
    if (f.has_special) {
      f.cats.special_masks(x, f.feature_count, nan.data() + row * cols,
                           member.data() + row * slots);
    }
  }

  std::size_t cols;
  std::size_t slots;
  std::vector<Key> keys;
  std::vector<std::uint8_t> nan;
  std::vector<std::uint8_t> member;
};

/// Direction at an inner node for one sample: true = left (self + 1).
template <bool Special, typename Key>
bool goes_left(const NodeView& n, const Key* keys, const std::uint8_t* nan,
               const std::uint8_t* member) {
  if constexpr (Special) {
    if (nan[n.feature]) return n.default_left;
    if (n.categorical) return member[static_cast<std::size_t>(n.key)] != 0;
  }
  return static_cast<std::int32_t>(keys[n.feature]) <= n.key;
}

/// Calls fn(bool_constant<Prefetch>, bool_constant<Special>) — the one
/// runtime-to-compile-time dispatch of the traversal variants.
template <typename Fn>
void with_variant(bool prefetch, bool special, Fn&& fn) {
  using std::bool_constant;
  if (special) {
    if (prefetch) {
      fn(bool_constant<true>{}, bool_constant<true>{});
    } else {
      fn(bool_constant<false>{}, bool_constant<true>{});
    }
  } else if (prefetch) {
    fn(bool_constant<true>{}, bool_constant<false>{});
  } else {
    fn(bool_constant<false>{}, bool_constant<false>{});
  }
}

/// Blocked traversal shared by the vote and score epilogues: map a block
/// of samples to narrow keys once, then stream each tree's node array
/// across the whole block, kBlockLockstep samples in flight at a time.
/// `block_begin(base, block)` / `block_end(base, block)` bracket each
/// block; `on_leaf(global_sample, local_sample, payload)` fires once per
/// (tree, sample) with the converged leaf's key payload.
template <bool Prefetch, bool Special, typename Image, typename T,
          typename BlockBegin, typename OnLeaf, typename BlockEnd>
void blocked_traverse(const Image& f, std::size_t block_size,
                      const T* features, std::size_t n_samples,
                      BlockBegin&& block_begin, OnLeaf&& on_leaf,
                      BlockEnd&& block_end) {
  using Key = typename Image::Key;
  const Codec<Image> codec(f);
  const std::size_t trees = f.roots.size();
  SampleKeys<Image> in(f, std::min(block_size, n_samples));
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    block_begin(base, block);
    for (std::size_t s = 0; s < block; ++s) {
      in.load(f, features + (base + s) * f.feature_count, s);
    }
    for (std::size_t t = 0; t < trees; ++t) {
      const std::int32_t root = f.roots[t];
      for (std::size_t s0 = 0; s0 < block; s0 += kBlockLockstep) {
        const std::size_t g = std::min(kBlockLockstep, block - s0);
        const Key* krow[kBlockLockstep];
        std::int32_t cur[kBlockLockstep];
        for (std::size_t r = 0; r < g; ++r) {
          cur[r] = root;
          krow[r] = in.keys.data() + (s0 + r) * in.cols;
        }
        // Branch-free lockstep rounds: finished lanes step by 0 on their
        // leaf (leaves read key column 0, a valid index by construction)
        // until the whole group converges — no per-lane liveness branches
        // for the predictor to miss.
        bool any_inner = true;
        while (any_inner) {
          any_inner = false;
          for (std::size_t r = 0; r < g; ++r) {
            const NodeView n = codec.template view<Special>(cur[r]);
            bool go;
            if constexpr (Special) {
              go = goes_left<true>(n, krow[r],
                                   in.nan.data() + (s0 + r) * in.cols,
                                   in.member.data() + (s0 + r) * in.slots);
            } else {
              go = goes_left<false>(n, krow[r], nullptr, nullptr);
            }
            if constexpr (Prefetch) {
              FLINT_PREFETCH(codec.at(cur[r] + (n.leaf ? 0 : n.right)));
            }
            cur[r] += n.leaf ? 0 : (go ? 1 : n.right);
            any_inner |= !n.leaf;
          }
        }
        for (std::size_t r = 0; r < g; ++r) {
          on_leaf(base + s0 + r, s0 + r,
                  codec.template view<false>(cur[r]).key);
        }
      }
    }
    block_end(base, block);
  }
}

/// Vote epilogue over the blocked traversal.
template <bool Prefetch, bool Special, typename Image, typename T>
void vote_blocked(const Image& f, std::size_t block_size, const T* features,
                  std::size_t n_samples, std::int32_t* out) {
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  std::vector<int> votes(std::min(block_size, n_samples) * classes);
  blocked_traverse<Prefetch, Special>(
      f, block_size, features, n_samples,
      [&](std::size_t, std::size_t block) {
        std::fill(votes.begin(),
                  votes.begin() + static_cast<std::ptrdiff_t>(block * classes),
                  0);
      },
      [&](std::size_t, std::size_t s, std::int32_t key) {
        ++votes[s * classes + static_cast<std::size_t>(key)];
      },
      [&](std::size_t base, std::size_t block) {
        for (std::size_t s = 0; s < block; ++s) {
          out[base + s] = trees::argmax_first(votes.data() + s * classes,
                                              static_cast<int>(classes));
        }
      });
}

/// Float-accumulate epilogue over the same blocked traversal: each lane's
/// leaf payload indexes a leaf-value row added into the sample's score
/// row.  The tree loop stays outermost, so every sample accumulates in
/// tree order — the same summation order as the reference per-tree loop
/// (docs/MODEL_FORMATS.md "Numerical contract").  `out` rows are
/// pre-initialized by the caller.
template <bool Prefetch, bool Special, typename Image, typename T>
void score_blocked(const Image& f, std::size_t block_size, const T* features,
                   std::size_t n_samples, const T* leaf_values,
                   std::size_t n_outputs, T* out) {
  blocked_traverse<Prefetch, Special>(
      f, block_size, features, n_samples,
      [](std::size_t, std::size_t) {},
      [&](std::size_t global, std::size_t, std::int32_t key) {
        const T* lv = leaf_values + static_cast<std::size_t>(key) * n_outputs;
        T* srow = out + global * n_outputs;
        for (std::size_t j = 0; j < n_outputs; ++j) srow[j] += lv[j];
      },
      [](std::size_t, std::size_t) {});
}

/// Interleaved latency path: R trees of ONE sample (already in `in` row 0)
/// advance in lockstep, so R independent node fetches are in flight per
/// round instead of one serial pointer chase.  `votes` must hold
/// num_classes zeroed slots.  Kept out of line, like the tile walk: this
/// small loop is the whole single-sample path.
template <bool Prefetch, bool Special, typename Image>
[[gnu::noinline]] void vote_interleaved(const Image& f,
                                        std::size_t interleave,
                                        const SampleKeys<Image>& in,
                                        int* votes) {
  const Codec<Image> codec(f);
  const std::size_t trees = f.roots.size();
  const std::size_t R = std::clamp<std::size_t>(interleave, 1, kMaxInterleave);
  std::int32_t cur[kMaxInterleave];
  for (std::size_t t0 = 0; t0 < trees; t0 += R) {
    const std::size_t g = std::min(R, trees - t0);
    for (std::size_t r = 0; r < g; ++r) {
      cur[r] = f.roots[t0 + r];
      FLINT_PREFETCH(codec.at(cur[r]));
    }
    std::uint32_t alive = (1u << g) - 1u;  // g <= kMaxInterleave = 16
    while (alive) {
      for (std::size_t r = 0; r < g; ++r) {
        if (!(alive & (1u << r))) continue;
        const NodeView n = codec.template view<Special>(cur[r]);
        if (n.leaf) {
          ++votes[n.key];
          alive &= ~(1u << r);
          continue;
        }
        const bool go = goes_left<Special>(n, in.keys.data(), in.nan.data(),
                                           in.member.data());
        if constexpr (Prefetch) {
          FLINT_PREFETCH(codec.at(cur[r] + n.right));
        }
        const std::int32_t next = cur[r] + (go ? 1 : n.right);
        FLINT_PREFETCH(codec.at(next));  // overlaps with the other lanes
        cur[r] = next;
      }
    }
  }
}

#if defined(FLINT_SIMD_AVX2)
/// FLINT_LAYOUT_FORCE_SCALAR=1 pins the portable lockstep loop — used by
/// the tests to cover the scalar path on hosts that would always take the
/// vector kernel, and as an escape hatch when diagnosing either.  The
/// node-count gate keeps the kernel's int32 BYTE offsets (index << 4/3)
/// from wrapping on images past 2 GiB — such forests fall back to the
/// scalar loop, whose indices stay element-scaled.
template <typename Image>
bool vector_path(const Image& f) {
  const char* force_scalar = std::getenv("FLINT_LAYOUT_FORCE_SCALAR");
  const bool image_addressable =
      f.nodes.size() <=
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) /
          sizeof(f.nodes[0]);
  return !(force_scalar && force_scalar[0] == '1') && image_addressable &&
         layout_avx2_supported();
}

/// AVX2 blocked batch: map each block into feature-major int32 key tiles
/// of 8 lanes (padded lanes zero-filled — they traverse to some leaf on
/// well-defined inputs and their votes are ignored) and hand the walk to
/// the vector kernel.  Works for any scalar T: after the remap the
/// traversal only sees int32 keys and packed nodes.
template <typename Image, typename T>
void vote_blocked_avx2(const Image& f, std::size_t block_size,
                       const T* features, std::size_t n_samples,
                       std::int32_t* out) {
  constexpr std::size_t W = 8;
  const std::size_t cols = std::max<std::size_t>(f.feature_count, 1);
  const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
  const std::size_t max_tiles = (std::min(block_size, n_samples) + W - 1) / W;
  std::vector<std::int32_t> tiles(max_tiles * cols * W);
  std::vector<int> votes(max_tiles * W * classes);
  const Codec<Image> codec(f);
  for (std::size_t base = 0; base < n_samples; base += block_size) {
    const std::size_t block = std::min(block_size, n_samples - base);
    const std::size_t n_tiles = (block + W - 1) / W;
    for (std::size_t s = 0; s < block; ++s) {
      f.remap(features + (base + s) * f.feature_count,
              tiles.data() + (s / W) * cols * W + (s % W), W);
    }
    for (std::size_t s = block; s < n_tiles * W; ++s) {
      std::int32_t* lane = tiles.data() + (s / W) * cols * W + (s % W);
      for (std::size_t c = 0; c < cols; ++c) lane[c * W] = 0;
    }
    std::fill(votes.begin(),
              votes.begin() + static_cast<std::ptrdiff_t>(n_tiles * W *
                                                          classes),
              0);
    codec.tiles(f, tiles.data(), n_tiles, cols, votes.data(), classes);
    for (std::size_t s = 0; s < block; ++s) {
      out[base + s] = trees::argmax_first(votes.data() + s * classes,
                                          static_cast<int>(classes));
    }
  }
}
#endif  // FLINT_SIMD_AVX2

template <typename Image, typename T>
void vote_batch(const Image& f, const LayoutPlan& plan, const T* features,
                std::size_t n_samples, std::int32_t* out) {
  if (n_samples <= kLatencyPathMaxBatch) {
    const auto classes = static_cast<std::size_t>(std::max(f.num_classes, 1));
    SampleKeys<Image> in(f, 1);
    std::vector<int> votes(classes);
    for (std::size_t s = 0; s < n_samples; ++s) {
      in.load(f, features + s * f.feature_count, 0);
      std::fill(votes.begin(), votes.end(), 0);
      with_variant(plan.prefetch_opposite, f.has_special,
                   [&](auto prefetch, auto special) {
                     vote_interleaved<decltype(prefetch)::value,
                                      decltype(special)::value>(
                         f, plan.interleave, in, votes.data());
                   });
      out[s] = trees::argmax_first(votes.data(), static_cast<int>(classes));
    }
    return;
  }
#if defined(FLINT_SIMD_AVX2)
  // Special forests always take the scalar blocked loop: the AVX2 kernel
  // has no NaN/categorical path.
  if (!f.has_special && vector_path(f)) {
    vote_blocked_avx2(f, plan.block_size, features, n_samples, out);
    return;
  }
#endif
  with_variant(plan.prefetch_opposite, f.has_special,
               [&](auto prefetch, auto special) {
                 vote_blocked<decltype(prefetch)::value,
                              decltype(special)::value>(
                     f, plan.block_size, features, n_samples, out);
               });
}

}  // namespace

template <typename T>
LayoutForestEngine<T>::LayoutForestEngine(PackedImage<T> image,
                                          const LayoutPlan& plan)
    : plan_(plan), image_(std::move(image)) {
  std::visit(
      [&](const auto& f) {
        if (f.nodes.empty()) {
          throw std::invalid_argument(
              "LayoutForestEngine: empty packed image");
        }
        plan_.width = std::decay_t<decltype(f)>::kWidth;
        num_classes_ = f.num_classes;
        feature_count_ = f.feature_count;
        tree_count_ = f.roots.size();
        node_count_ = f.nodes.size();
        node_bytes_ = sizeof(f.nodes[0]);
        hot_nodes_ = f.hot_nodes;
      },
      image_);
  plan_.block_size = std::max<std::size_t>(plan_.block_size, 1);
  plan_.interleave =
      std::clamp<std::size_t>(plan_.interleave, 1, kMaxInterleave);
}

template <typename T>
void LayoutForestEngine<T>::predict_batch(const T* features,
                                          std::size_t n_samples,
                                          std::int32_t* out) const {
  if (n_samples == 0) return;
  std::visit(
      [&](const auto& f) { vote_batch(f, plan_, features, n_samples, out); },
      image_);
}

template <typename T>
void LayoutForestEngine<T>::predict_scores(const T* features,
                                           std::size_t n_samples,
                                           std::span<const T> leaf_values,
                                           std::size_t n_outputs,
                                           std::span<const T> base,
                                           T* out) const {
  if (n_samples == 0) return;
  if (n_outputs == 0 || leaf_values.size() % n_outputs != 0) {
    throw std::invalid_argument(
        "LayoutForestEngine::predict_scores: leaf_values is not a multiple "
        "of n_outputs");
  }
  if (!base.empty() && base.size() != n_outputs) {
    throw std::invalid_argument(
        "LayoutForestEngine::predict_scores: base size mismatch");
  }
  for (std::size_t s = 0; s < n_samples; ++s) {
    for (std::size_t j = 0; j < n_outputs; ++j) {
      out[s * n_outputs + j] = base.empty() ? T{0} : base[j];
    }
  }
  std::visit(
      [&](const auto& f) {
        with_variant(plan_.prefetch_opposite, f.has_special,
                     [&](auto prefetch, auto special) {
                       score_blocked<decltype(prefetch)::value,
                                     decltype(special)::value>(
                           f, plan_.block_size, features, n_samples,
                           leaf_values.data(), n_outputs, out);
                     });
      },
      image_);
}

template <typename T>
std::int32_t LayoutForestEngine<T>::predict(std::span<const T> x) const {
  std::int32_t result = -1;
  predict_batch(x.data(), 1, &result);
  return result;
}

template class LayoutForestEngine<float>;
template class LayoutForestEngine<double>;

}  // namespace flint::exec::layout
