// exec/artifacts — the one-stop execution-artifact bundle, and the only
// code that plans and packs compact images.  Built once per forest, it owns
//
//   * KeyTableSet            — per-feature monotone threshold tables,
//   * NarrowFit + LayoutPlan — the auto-tuner verdict (the width ladder,
//                              including the q4 pack-then-demote step),
//                              tuned from ForestStats (one DFS, not kept),
//   * PackedNode image       — via the wide Encoded interpreter engine,
//   * CompactForest<16/8>    — compact images, cached per hot_depth,
//   * Q4Forest               — the 4-byte quantized image + its QuantPlan,
//   * content_hash           — a structural FNV-1a digest keying the JIT
//                              compile cache.
//
// The eager part of construction is the cheap summary set (tables, plan);
// each packed image is built lazily on first access and cached.
// The layout:* factory builds one bundle and takes its planned image with
// release_planned_image(), which MOVES the image out of the cache: the
// engine then owns the very bytes the bundle packed, and it outlives the
// bundle and the forest without a second resident copy.  verify_model
// checks the planned image (plan().width at plan().hot_depth) of its own
// bundle; planning and packing are deterministic, so on the same host those
// are the bytes layout:auto serves.  The bundle borrows the forest — it
// must outlive the ExecArtifacts object.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>

#include "exec/interpreter.hpp"
#include "exec/layout/compact.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "trees/forest.hpp"

namespace flint::exec::artifacts {

template <typename T>
class ExecArtifacts {
 public:
  /// Builds the summary artifacts (key tables, narrowing fit, layout plan).  Packed images are built lazily — except when the auto-tuner
  /// picks the 4-byte width: a Q4 plan is only tentative until the image
  /// packs AND its quantization contract holds (bit-exact ranks, or every
  /// affine feature preserving its thresholds), so that image is packed
  /// eagerly here and the plan demoted (allow_q4 = false, re-tuned) when
  /// the contract fails.  A pinned force_width skips the demotion — the
  /// caller asked for that width and gets the packer's error instead.
  /// `forest` is borrowed.
  explicit ExecArtifacts(
      const trees::Forest<T>& forest, std::size_t block_size = 64,
      const layout::CacheInfo& cache = layout::detect_cache_info(),
      std::optional<layout::NodeWidth> force_width = std::nullopt);

  [[nodiscard]] const trees::Forest<T>& forest() const noexcept {
    return *forest_;
  }
  [[nodiscard]] const layout::KeyTableSet<T>& tables() const noexcept {
    return tables_;
  }
  [[nodiscard]] const layout::NarrowFit& fit() const noexcept { return fit_; }
  [[nodiscard]] const layout::LayoutPlan& plan() const noexcept {
    return plan_;
  }

  /// A compact image of any packed width.
  using Image = std::variant<layout::CompactForest<T, layout::CompactNode16>,
                             layout::CompactForest<T, layout::CompactNode8>,
                             layout::Q4Forest<T>>;

  /// Packs the planned image (plan().width at plan().hot_depth) if it is not
  /// cached yet and moves it out of the bundle: the caller owns it, and a
  /// later access at that depth re-packs.  Throws std::invalid_argument
  /// with the packer's reason when the model is not representable at the
  /// planned width, or when the plan is Wide (no compact image — callers
  /// serve the wide interpreter instead).
  [[nodiscard]] Image release_planned_image();

  /// Compact images at a given hot_depth (cached per depth).  compact16()
  /// packs at plan().hot_depth and throws std::invalid_argument with the
  /// packer's reason when the model is not representable at that width;
  /// the try_ variants return nullptr and set `why` instead (verify walks
  /// every width without aborting).
  const layout::CompactForest<T, layout::CompactNode16>& compact16();
  const layout::CompactForest<T, layout::CompactNode16>* try_compact16_at(
      std::size_t hot_depth, std::string* why = nullptr);
  const layout::CompactForest<T, layout::CompactNode8>* try_compact8_at(
      std::size_t hot_depth, std::string* why = nullptr);
  const layout::Q4Forest<T>* try_q4_at(std::size_t hot_depth,
                                       std::string* why = nullptr);

  /// The wide interpreter's packed image, via the Encoded engine (cached).
  const FlintForestEngine<T>& packed_engine();

  /// Structural content digest: forest topology, threshold bits, flags,
  /// category bitsets, leaf payloads, class/feature counts.  Any split
  /// mutation changes it.  Used (combined with model semantics and compiler
  /// options) as the JIT compile-cache key.  Cached after first call.
  [[nodiscard]] std::uint64_t content_hash() const;

 private:
  /// One width's image cache entry: the packed image, or the packer's
  /// reason when the model is not representable at that width.
  template <typename Img>
  struct Cached {
    std::optional<Img> image;
    std::string why;
  };
  template <typename Img>
  using Cache = std::map<std::size_t, Cached<Img>>;

  template <typename Img, typename Pack>
  const Img* cached(Cache<Img>& cache, layout::NodeWidth width,
                    std::size_t hot_depth, std::string* why, Pack&& pack);

  const trees::Forest<T>* forest_;
  layout::KeyTableSet<T> tables_;
  layout::NarrowFit fit_;
  layout::LayoutPlan plan_;
  Cache<layout::CompactForest<T, layout::CompactNode16>> c16_;
  Cache<layout::CompactForest<T, layout::CompactNode8>> c8_;
  Cache<layout::Q4Forest<T>> q4_;
  std::optional<FlintForestEngine<T>> packed_;
  mutable std::optional<std::uint64_t> hash_;
};

extern template class ExecArtifacts<float>;
extern template class ExecArtifacts<double>;

}  // namespace flint::exec::artifacts
