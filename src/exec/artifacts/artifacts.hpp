// exec/artifacts — the one-stop execution-artifact bundle, and the only
// code that plans and packs compact images.  Built once per forest, it owns
//
//   * KeyTableSet            — per-feature monotone threshold tables,
//   * NarrowFit + LayoutPlan — the auto-tuner verdict (the width ladder,
//                              including the q4 pack-then-demote step),
//                              tuned from ForestStats (one DFS, not kept),
//
// and packs on demand, returning by value:
//
//   * CompactForest<16/8>    — compact images at any hot_depth,
//   * Q4Forest               — the 4-byte quantized image + its QuantPlan.
//
// Only the planned image is held: the q4 image an auto Q4 plan packs to
// test its contract stays in the bundle until try_image_at on the planned
// pair MOVES it out (a demoted q4 image is dropped).  Every other image is
// packed on demand and owned by the caller, so a caller that checks images
// one at a time (verify_model) holds one at a time.  The layout:* factory
// binds the planned image: the engine owns the very bytes the bundle
// packed, and it outlives the bundle and the forest.  verify_model checks
// the planned image (plan().width at plan().hot_depth) of its own bundle;
// planning and packing are deterministic, so on the same host those are
// the bytes layout:auto serves.  The bundle borrows the forest — it must
// outlive the ExecArtifacts object.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "exec/layout/compact.hpp"
#include "exec/layout/engine.hpp"
#include "exec/layout/narrow.hpp"
#include "exec/layout/plan.hpp"
#include "exec/layout/quant4.hpp"
#include "trees/forest.hpp"

namespace flint::exec::artifacts {

template <typename T>
class ExecArtifacts {
 public:
  /// Builds the summary artifacts (key tables, narrowing fit, layout plan).
  /// Packed images are built on demand — except when the auto-tuner picks
  /// the 4-byte width: a Q4 plan is only tentative until the image packs
  /// AND its quantization contract holds (bit-exact ranks, or every affine
  /// feature preserving its thresholds), so that image is packed here and
  /// held, or dropped and the plan demoted (allow_q4 = false, re-tuned)
  /// when the contract fails.  A pinned force_width skips the demotion — the
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

  /// A packed image of any width.
  using Image = layout::PackedImage<T>;

  /// The image of `width` at `hot_depth`, packed by this call; std::nullopt
  /// with the packer's reason in `why` when the model is not representable
  /// at that width (verify walks every width without aborting).  The
  /// planned pair hands over the held q4 image instead of packing it again;
  /// a later call on that pair packs.
  [[nodiscard]] std::optional<Image> try_image_at(layout::NodeWidth width,
                                                  std::size_t hot_depth,
                                                  std::string* why = nullptr);

  /// Structural content digest: forest topology, threshold bits, flags,
  /// category bitsets, leaf payloads, class/feature counts.  Any split
  /// mutation changes it.
  [[nodiscard]] std::uint64_t content_hash() const;

 private:
  const trees::Forest<T>* forest_;
  layout::KeyTableSet<T> tables_;
  layout::NarrowFit fit_;
  layout::LayoutPlan plan_;
  /// The q4 image that passed an auto Q4 plan's contract, until released.
  std::optional<layout::Q4Forest<T>> planned_q4_;
};

extern template class ExecArtifacts<float>;
extern template class ExecArtifacts<double>;

}  // namespace flint::exec::artifacts
