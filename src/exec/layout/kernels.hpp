// exec/layout/kernels — the AVX2 lockstep kernel over the packed node
// formats.
//
// The engine's scalar blocked loop (engine.cpp) walks kBlockLockstep
// samples in lockstep per tree; on AVX2 hosts the same algorithm runs 8
// lanes per vector instruction instead.  One kernel template serves every
// format through a per-format gather/decode step: a c16 step costs 3 node
// gathers (right offset, key, feature), a c8 step 2 (right offset, then
// the {int16 key, int16 feature} dword), and a q4 step 1 (the whole word,
// decoded with the forest's pack-time bit split) — plus one sample-key
// gather each.  The gathered image stays small, which is what pays off
// once the forest spills L2.
//
// The AVX2 translation unit is compiled only when CMake detects an x86-64
// toolchain with -mavx2 (the FLINT_SIMD option); callers must additionally
// check layout_avx2_supported() at runtime before dispatching.
//
// Sample keys arrive as feature-major int32 tiles of 8 lanes
// (tile[c*8 + l] = narrow key of lane l, feature c), written by the
// image's remap with an 8-element stride; votes are laid out
// votes[(tile*8 + l) * classes + c].
#pragma once

#include <cstddef>
#include <cstdint>

#include "exec/layout/compact.hpp"
#include "exec/layout/quant4.hpp"

namespace flint::exec::layout {

#if defined(FLINT_SIMD_AVX2)

/// Runtime check (the TU is compiled with -mavx2, the host must agree).
[[nodiscard]] bool layout_avx2_supported() noexcept;

/// Walks every tree over `n_tiles` 8-lane key tiles and accumulates
/// per-lane votes (see file comment for layouts).  The q4 overload decodes
/// words with `geom`.  Thread-safe: touches only its arguments.
void predict_tiles_avx2(const CompactNode16* nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes);
void predict_tiles_avx2(const CompactNode8* nodes, const std::int32_t* roots,
                        std::size_t trees, const std::int32_t* tiles,
                        std::size_t n_tiles, std::size_t cols, int* votes,
                        std::size_t classes);
void predict_tiles_avx2(const CompactNode4* nodes, const Q4Geometry& geom,
                        const std::int32_t* roots, std::size_t trees,
                        const std::int32_t* tiles, std::size_t n_tiles,
                        std::size_t cols, int* votes, std::size_t classes);

#endif  // FLINT_SIMD_AVX2

}  // namespace flint::exec::layout
