#include "exec/artifacts/artifacts.hpp"

#include <stdexcept>
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
  // maps) decide whether the 4-byte image may serve.  Pack it now; on any
  // failure demote and re-tune with the 4-byte rung closed.
  if (!force_width && plan_.width == layout::NodeWidth::Q4) {
    const layout::Q4Forest<T>* img = try_q4_at(plan_.hot_depth);
    if (img == nullptr || !(img->exact() || img->qplan.accuracy_contract())) {
      fit_.allow_q4 = false;
      plan_ = layout::auto_plan(stats, fit_, block_size, cache, force_width);
    }
  }
}

template <typename T>
template <typename Img, typename Pack>
const Img* ExecArtifacts<T>::cached(Cache<Img>& cache, layout::NodeWidth width,
                                    std::size_t hot_depth, std::string* why,
                                    Pack&& pack) {
  auto it = cache.find(hot_depth);
  if (it == cache.end()) {
    layout::LayoutPlan plan = plan_;
    plan.width = width;
    plan.hot_depth = hot_depth;
    Cached<Img> entry;
    entry.image = pack(plan, &entry.why);
    it = cache.emplace(hot_depth, std::move(entry)).first;
  }
  if (!it->second.image) {
    if (why != nullptr) *why = it->second.why;
    return nullptr;
  }
  return &*it->second.image;
}

template <typename T>
const layout::CompactForest<T, layout::CompactNode16>*
ExecArtifacts<T>::try_compact16_at(std::size_t hot_depth, std::string* why) {
  return cached(c16_, layout::NodeWidth::C16, hot_depth, why,
                [&](const layout::LayoutPlan& plan, std::string* reason) {
                  return layout::try_pack<T, layout::CompactNode16>(
                      *forest_, plan, tables_, reason);
                });
}

template <typename T>
const layout::CompactForest<T, layout::CompactNode8>*
ExecArtifacts<T>::try_compact8_at(std::size_t hot_depth, std::string* why) {
  return cached(c8_, layout::NodeWidth::C8, hot_depth, why,
                [&](const layout::LayoutPlan& plan, std::string* reason) {
                  return layout::try_pack<T, layout::CompactNode8>(
                      *forest_, plan, tables_, reason);
                });
}

template <typename T>
const layout::Q4Forest<T>* ExecArtifacts<T>::try_q4_at(std::size_t hot_depth,
                                                       std::string* why) {
  return cached(q4_, layout::NodeWidth::Q4, hot_depth, why,
                [&](const layout::LayoutPlan& plan, std::string* reason) {
                  return layout::try_pack_q4<T>(*forest_, plan, tables_,
                                                /*force_affine=*/false,
                                                reason);
                });
}

template <typename T>
const layout::CompactForest<T, layout::CompactNode16>&
ExecArtifacts<T>::compact16() {
  std::string why;
  const auto* packed = try_compact16_at(plan_.hot_depth, &why);
  if (packed == nullptr) {
    throw std::invalid_argument("ExecArtifacts::compact16: " + why);
  }
  return *packed;
}

template <typename T>
typename ExecArtifacts<T>::Image ExecArtifacts<T>::release_planned_image() {
  const std::size_t depth = plan_.hot_depth;
  // Extracting the cache node hands its image over without a copy.
  const auto take = [depth](auto& cache) {
    return Image(std::move(*cache.extract(depth).mapped().image));
  };
  std::string why = "the plan serves the wide interpreter";
  switch (plan_.width) {
    case layout::NodeWidth::C16:
      if (try_compact16_at(depth, &why)) return take(c16_);
      break;
    case layout::NodeWidth::C8:
      if (try_compact8_at(depth, &why)) return take(c8_);
      break;
    case layout::NodeWidth::Q4:
      if (try_q4_at(depth, &why)) return take(q4_);
      break;
    case layout::NodeWidth::Wide:
      break;
  }
  throw std::invalid_argument(why);
}

template <typename T>
const FlintForestEngine<T>& ExecArtifacts<T>::packed_engine() {
  if (!packed_) {
    packed_.emplace(*forest_, FlintVariant::Encoded);
  }
  return *packed_;
}

template <typename T>
std::uint64_t ExecArtifacts<T>::content_hash() const {
  if (hash_) return *hash_;
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
  hash_ = h.digest();
  return *hash_;
}

template class ExecArtifacts<float>;
template class ExecArtifacts<double>;

}  // namespace flint::exec::artifacts
