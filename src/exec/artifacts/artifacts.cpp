#include "exec/artifacts/artifacts.hpp"

#include <utility>

#include "core/hash.hpp"
#include "trees/tree_stats.hpp"

namespace flint::exec::artifacts {

template <typename T>
ExecArtifacts<T>::ExecArtifacts(const trees::Forest<T>& forest,
                                std::size_t block_size,
                                const layout::CacheInfo& cache,
                                std::optional<layout::NodeWidth> force_width)
    : forest_(&forest) {
  // The stats feed only the planner, so they die with the constructor
  // instead of staying resident while the images are packed.
  const trees::ForestStats stats = trees::forest_stats(forest);
  tables_ = layout::build_key_tables(forest);
  fit_.ranks_fit_int16 = tables_.fits_int16();
  fit_.feature_count = forest.feature_count();
  fit_.num_classes = forest.num_classes();
  plan_ = layout::auto_plan(stats, fit_, block_size, cache, force_width);
  // An auto Q4 verdict is tentative: the pack-time bit budget and the
  // quantization contract (exact ranks, or threshold-preserving affine
  // maps) decide whether the 4-byte image may serve.  Pack it now and hold
  // it; on any failure drop it, demote and re-tune with the 4-byte rung
  // closed.
  if (!force_width && plan_.width == layout::NodeWidth::Q4) {
    planned_q4_ = layout::try_pack_q4<T>(forest, plan_, tables_,
                                         /*force_affine=*/false, nullptr);
    if (!planned_q4_ || !(planned_q4_->exact() ||
                          planned_q4_->qplan.accuracy_contract())) {
      planned_q4_.reset();
      fit_.allow_q4 = false;
      plan_ = layout::auto_plan(stats, fit_, block_size, cache, force_width);
    }
  }
}

template <typename T>
std::optional<typename ExecArtifacts<T>::Image> ExecArtifacts<T>::try_image_at(
    layout::NodeWidth width, std::size_t hot_depth, std::string* why) {
  if (planned_q4_ && width == plan_.width && hot_depth == plan_.hot_depth) {
    // Handing the held image over moves it: no copy, and the bundle keeps
    // nothing resident afterwards.
    Image held(std::move(*planned_q4_));
    planned_q4_.reset();
    return held;
  }
  layout::LayoutPlan plan = plan_;
  plan.width = width;
  plan.hot_depth = hot_depth;
  switch (width) {
    case layout::NodeWidth::C16:
      if (auto image = layout::try_pack<T, layout::CompactNode16>(
              *forest_, plan, tables_, why)) {
        return Image(std::move(*image));
      }
      break;
    case layout::NodeWidth::C8:
      if (auto image = layout::try_pack<T, layout::CompactNode8>(
              *forest_, plan, tables_, why)) {
        return Image(std::move(*image));
      }
      break;
    case layout::NodeWidth::Q4:
      if (auto image = layout::try_pack_q4<T>(*forest_, plan, tables_,
                                              /*force_affine=*/false, why)) {
        return Image(std::move(*image));
      }
      break;
    case layout::NodeWidth::Wide:
      if (why != nullptr) *why = "the plan serves the wide interpreter";
      break;
  }
  return std::nullopt;
}

template <typename T>
std::uint64_t ExecArtifacts<T>::content_hash() const {
  core::Fnv1a64 h;
  h.add(forest_->num_classes());
  h.add(forest_->feature_count());
  h.add(forest_->size());
  for (const auto& tree : forest_->trees()) {
    h.add(tree.size());
    for (const auto& node : tree.nodes()) {
      h.add(node.feature);
      h.add(core::si_bits(node.split));
      h.add(node.left);
      h.add(node.right);
      h.add(node.prediction);
      h.add(node.cat_slot);
      h.add(node.flags);
    }
    h.add(tree.cat_slot_count());
    for (std::int32_t s = 0; s < tree.cat_slot_count(); ++s) {
      h.add_span(tree.cat_set(s));
    }
  }
  return h.digest();
}

template class ExecArtifacts<float>;
template class ExecArtifacts<double>;

}  // namespace flint::exec::artifacts
