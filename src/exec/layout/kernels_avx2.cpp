// exec/layout/kernels_avx2 — AVX2 lockstep traversal over packed nodes
// (8 samples per tile).  See kernels.hpp for the tile/vote conventions.
//
// Gather addressing: vpgatherdd scales indices by at most 8, while compact
// nodes are 16 (c16) or 8 (c8) bytes, so their lane indices are
// pre-shifted into BYTE offsets and gathered with scale 1; a q4 node is one
// dword, gathered with scale 4 straight from the node index.  Every format
// puts its leaf tag in the sign bit of the first dword a step gathers (the
// compact right offset, the q4 word), so that one gather decides
// convergence.
//
// Leaves step by 0 (the and-not with the leaf mask zeroes the advance), so
// the loop needs no per-lane active mask and exits when every lane's leaf
// tag is set.
#include "exec/layout/kernels.hpp"

#if defined(FLINT_SIMD_AVX2)

#include <immintrin.h>

namespace flint::exec::layout {

bool layout_avx2_supported() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

constexpr std::size_t W = 8;

/// Fields of one lockstep step, decoded per lane.
struct Lanes {
  __m256i key;
  __m256i feature;
  __m256i right;
};

/// Gather/decode step of the compact formats.  `head` gathers the int32
/// right offset (byte 4 in both formats; negative = leaf).  c16 then
/// gathers key (byte 0) and feature (byte 8); c8 gathers the dword at byte
/// 0, which packs {int16 key, int16 feature}.
template <typename Node>
struct CompactStep {
  static constexpr int kShift = sizeof(Node) == 16 ? 4 : 3;
  const char* base;

  [[nodiscard]] __m256i index(__m256i cur) const {
    return _mm256_slli_epi32(cur, kShift);
  }
  [[nodiscard]] __m256i gather(int byte, __m256i idx) const {
    return _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(base + byte), idx, 1);
  }
  [[nodiscard]] __m256i head(__m256i idx) const { return gather(4, idx); }
  /// The key field out of the dword at byte 0 (c8: its low int16).
  [[nodiscard]] static __m256i key_of(__m256i w0) {
    if constexpr (sizeof(Node) == 16) {
      return w0;
    } else {
      return _mm256_srai_epi32(_mm256_slli_epi32(w0, 16), 16);
    }
  }
  [[nodiscard]] Lanes decode(__m256i idx, __m256i head) const {
    const __m256i w0 = gather(0, idx);
    if constexpr (sizeof(Node) == 16) {
      return {w0, gather(8, idx), head};
    } else {
      return {key_of(w0), _mm256_srai_epi32(w0, 16), head};
    }
  }
  /// Leaf payload (class id) of converged lanes.
  [[nodiscard]] __m256i payload(__m256i idx, __m256i /*head*/) const {
    return key_of(gather(0, idx));
  }
};

/// Gather/decode step of the 4-byte word: `head` is the whole word (its
/// sign bit is the leaf tag), decoded with the pack-time bit split.
struct Q4Step {
  const int* words;
  __m256i key_mask;
  __m256i feature_mask;
  __m256i offset_mask;
  __m128i feature_shift;
  __m128i offset_shift;

  explicit Q4Step(const CompactNode4* nodes, const Q4Geometry& g)
      : words(reinterpret_cast<const int*>(nodes)),
        key_mask(_mm256_set1_epi32(static_cast<int>(g.key_mask()))),
        feature_mask(_mm256_set1_epi32(static_cast<int>(g.feature_mask()))),
        offset_mask(_mm256_set1_epi32(static_cast<int>(g.offset_mask()))),
        feature_shift(_mm_cvtsi32_si128(static_cast<int>(g.feature_shift()))),
        offset_shift(_mm_cvtsi32_si128(static_cast<int>(g.offset_shift()))) {}

  [[nodiscard]] static __m256i index(__m256i cur) { return cur; }
  [[nodiscard]] __m256i head(__m256i idx) const {
    return _mm256_i32gather_epi32(words, idx, 4);
  }
  [[nodiscard]] Lanes decode(__m256i /*idx*/, __m256i w) const {
    return {_mm256_and_si256(w, key_mask),
            _mm256_and_si256(_mm256_srl_epi32(w, feature_shift),
                             feature_mask),
            _mm256_and_si256(_mm256_srl_epi32(w, offset_shift), offset_mask)};
  }
  /// The last word a converged lane gathered is its leaf: payload = key.
  [[nodiscard]] __m256i payload(__m256i /*idx*/, __m256i w) const {
    return _mm256_and_si256(w, key_mask);
  }
};

/// Independent tiles walked concurrently per tree.  A single tile is a
/// serial chain (index -> gather -> compare -> index), bound by gather
/// LATENCY (~a cache access per level); G independent chains pipeline
/// those gathers and approach gather THROUGHPUT instead.  This is the
/// vector analog of the scalar path's kBlockLockstep interleave.
constexpr std::size_t kTileGroup = 4;

/// Kept out of line with the step passed by value: inlined into the
/// exported entry points, the q4 instantiation measured ~0.5x on GCC 12
/// (x86-64 Xeon, identical instruction mix and step count), and out of line
/// it matches the hand-written per-format kernels it replaced.
template <typename Step>
[[gnu::noinline]] void walk_tiles(const Step step, const std::int32_t* roots,
                                  std::size_t trees, const std::int32_t* tiles,
                                  std::size_t n_tiles, std::size_t cols,
                                  int* votes, std::size_t classes) {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i one = _mm256_set1_epi32(1);
  for (std::size_t t = 0; t < trees; ++t) {
    const __m256i root = _mm256_set1_epi32(roots[t]);
    for (std::size_t tile0 = 0; tile0 < n_tiles; tile0 += kTileGroup) {
      const std::size_t g = std::min(kTileGroup, n_tiles - tile0);
      __m256i cur[kTileGroup];
      __m256i last[kTileGroup];
      const std::int32_t* x[kTileGroup];
      bool done[kTileGroup];
      std::size_t remaining = g;
      for (std::size_t i = 0; i < g; ++i) {
        cur[i] = root;
        x[i] = tiles + (tile0 + i) * cols * W;
        done[i] = false;
      }
      while (remaining) {
        for (std::size_t i = 0; i < g; ++i) {
          if (done[i]) continue;
          const __m256i idx = step.index(cur[i]);
          const __m256i head = step.head(idx);
          last[i] = head;
          if (_mm256_movemask_ps(_mm256_castsi256_ps(head)) == 0xFF) {
            done[i] = true;
            --remaining;
            continue;
          }
          const Lanes n = step.decode(idx, head);
          const __m256i kidx =
              _mm256_add_epi32(_mm256_slli_epi32(n.feature, 3), lane_ids);
          const __m256i kx = _mm256_i32gather_epi32(x[i], kidx, 4);
          const __m256i go_right = _mm256_cmpgt_epi32(kx, n.key);
          const __m256i leaf = _mm256_srai_epi32(head, 31);
          const __m256i advance = _mm256_andnot_si256(
              leaf, _mm256_blendv_epi8(one, n.right, go_right));
          cur[i] = _mm256_add_epi32(cur[i], advance);
        }
      }
      for (std::size_t i = 0; i < g; ++i) {
        const __m256i cls = step.payload(step.index(cur[i]), last[i]);
        alignas(32) std::int32_t cbuf[W];
        _mm256_store_si256(reinterpret_cast<__m256i*>(cbuf), cls);
        int* vrow = votes + (tile0 + i) * W * classes;
        for (std::size_t l = 0; l < W; ++l) {
          ++vrow[l * classes + static_cast<std::size_t>(cbuf[l])];
        }
      }
    }
  }
}

}  // namespace

void predict_tiles_avx2(const CompactNode16* nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes) {
  walk_tiles(CompactStep<CompactNode16>{reinterpret_cast<const char*>(nodes)},
             roots, trees, tiles, n_tiles, cols, votes, classes);
}

void predict_tiles_avx2(const CompactNode8* nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes) {
  walk_tiles(CompactStep<CompactNode8>{reinterpret_cast<const char*>(nodes)},
             roots, trees, tiles, n_tiles, cols, votes, classes);
}

void predict_tiles_avx2(const CompactNode4* nodes, const Q4Geometry& geom,
                        const std::int32_t* roots, std::size_t trees,
                        const std::int32_t* tiles, std::size_t n_tiles,
                        std::size_t cols, int* votes, std::size_t classes) {
  walk_tiles(Q4Step(nodes, geom), roots, trees, tiles, n_tiles, cols, votes,
             classes);
}

}  // namespace flint::exec::layout

#endif  // FLINT_SIMD_AVX2
