// Code-generator tests: Listing-shaped golden checks plus JIT-backed
// bit-exact equivalence of every generated flavor against the reference
// interpreter, for float and double, across datasets (parameterized).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "core/flint.hpp"

#include "codegen/cgen_cags.hpp"
#include "codegen/cgen_ifelse.hpp"
#include "codegen/cgen_native.hpp"
#include "data/split.hpp"
#include "data/synth.hpp"
#include "exec/interpreter.hpp"
#include "jit/jit.hpp"
#include "trees/forest.hpp"
#include "trees/tree_stats.hpp"

namespace {

using flint::codegen::CGenOptions;
using flint::codegen::GeneratedCode;
using flint::trees::Forest;
using flint::trees::Tree;

/// Listing 1/2 example tree: three nested positive splits + one negative.
Tree<float> listing_tree() {
  using flint::core::from_si_bits;
  Tree<float> t(126);
  // Split constants reconstructed from the paper's exact bit patterns.
  const auto n0 = t.add_split(3, from_si_bits<float>(0x41213087));
  const auto n1 = t.add_split(83, from_si_bits<float>(0x413F986E));
  const auto n2 = t.add_split(24, from_si_bits<float>(0x4622FA08));
  const auto n3 =
      t.add_split(125, from_si_bits<float>(static_cast<std::int32_t>(0xC03BDDDE)));
  const auto l0 = t.add_leaf(0);
  const auto l1 = t.add_leaf(1);
  const auto l2 = t.add_leaf(2);
  const auto l3 = t.add_leaf(3);
  const auto l4 = t.add_leaf(0);
  t.link(n0, n1, l0);
  t.link(n1, n2, l1);
  t.link(n2, n3, l2);
  t.link(n3, l3, l4);
  return t;
}

TEST(IfElseGolden, FloatBodyMatchesListing1Shape) {
  CGenOptions opt;
  const auto body = flint::codegen::ifelse_tree_body(listing_tree(), opt);
  EXPECT_NE(body.find("if (pX[3] <= 10.0743475f) {"), std::string::npos) << body;
  EXPECT_NE(body.find("if (pX[83] <= 11.9747143f) {"), std::string::npos) << body;
  EXPECT_NE(body.find("if (pX[24] <= 10430.5078f) {"), std::string::npos) << body;
  EXPECT_NE(body.find("return 0;"), std::string::npos);
}

TEST(IfElseGolden, FlintBodyMatchesListing2And4Shape) {
  CGenOptions opt;
  opt.flint = true;
  const auto body = flint::codegen::ifelse_tree_body(listing_tree(), opt);
  // Listing 2 immediates.
  EXPECT_NE(body.find("forest_ld(pX + 3) <= ((int32_t)0x41213087)"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("forest_ld(pX + 83) <= ((int32_t)0x413f986e)"),
            std::string::npos);
  EXPECT_NE(body.find("forest_ld(pX + 24) <= ((int32_t)0x4622fa08)"),
            std::string::npos);
  // Listing 4 negative split: flipped immediate on the left, xor on the load.
  EXPECT_NE(body.find("((int32_t)0x403bddde) <= (forest_ld(pX + 125) ^ "
                      "((int32_t)0x80000000))"),
            std::string::npos)
      << body;
  // No float literal anywhere in the FLInt body.
  EXPECT_EQ(body.find("10.0743475f"), std::string::npos);
}

TEST(CagsGolden, SwapsBranchesByProbability) {
  // Tree: root f0 <= 0 ? A : B; all probe traffic goes right, so CAGS must
  // emit the goto toward the LEFT (cold) child with the original <=
  // condition, falling through to the right child.
  Tree<float> t(1);
  const auto root = t.add_split(0, 0.0f);
  const auto a = t.add_leaf(0);
  const auto b = t.add_leaf(1);
  t.link(root, a, b);
  flint::trees::BranchStats stats;
  stats.visits = {10, 1, 9};
  stats.left_probability = {0.1, 0.5, 0.5};
  CGenOptions opt;
  opt.use_builtin_expect = false;
  const auto body = flint::codegen::cags_tree_body(t, stats, opt);
  EXPECT_NE(body.find("if (pX[0] <= 0.0f) goto L1;"), std::string::npos) << body;
  EXPECT_LT(body.find("return 1;"), body.find("return 0;")) << body;
}

TEST(CagsGolden, KernelBoundariesAppearUnderTinyBudget) {
  const auto full = flint::data::generate<float>(flint::data::wine_spec(), 3, 400);
  flint::trees::ForestOptions fopt;
  fopt.n_trees = 1;
  fopt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(full, fopt);
  const auto stats = flint::trees::collect_branch_stats(forest, full);
  CGenOptions opt;
  opt.kernel_budget_bytes = 64;  // force many kernels
  const auto body =
      flint::codegen::cags_tree_body(forest.tree(0), stats[0], opt);
  EXPECT_NE(body.find("/* --- kernel boundary --- */"), std::string::npos);
  EXPECT_NE(body.find("__builtin_expect"), std::string::npos);
}

TEST(CagsGolden, StatsSizeMismatchThrows) {
  const auto t = listing_tree();
  flint::trees::BranchStats stats;  // wrong size
  CGenOptions opt;
  EXPECT_THROW((void)flint::codegen::cags_tree_body(t, stats, opt),
               std::invalid_argument);
}

TEST(Generators, EmptyForestThrows) {
  const Forest<float> empty;
  CGenOptions opt;
  EXPECT_THROW((void)flint::codegen::generate_ifelse(empty, opt),
               std::invalid_argument);
  EXPECT_THROW((void)flint::codegen::generate_native(empty, opt),
               std::invalid_argument);
  EXPECT_THROW((void)flint::codegen::generate_cags(empty, {}, opt),
               std::invalid_argument);
}

// ---- JIT-backed equivalence across flavors and datasets ----------------- //

enum class Flavor { IfElseFloat, IfElseFlint, CagsFloat, CagsFlint, NativeFloat, NativeFlint };

const char* flavor_name(Flavor f) {
  switch (f) {
    case Flavor::IfElseFloat: return "IfElseFloat";
    case Flavor::IfElseFlint: return "IfElseFlint";
    case Flavor::CagsFloat: return "CagsFloat";
    case Flavor::CagsFlint: return "CagsFlint";
    case Flavor::NativeFloat: return "NativeFloat";
    case Flavor::NativeFlint: return "NativeFlint";
  }
  return "?";
}

class FlavorEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, Flavor>> {};

TEST_P(FlavorEquivalence, JitMatchesReferenceEngine) {
  const auto& [dataset_name, flavor] = GetParam();
  const auto spec = flint::data::spec_by_name(dataset_name);
  const auto full = flint::data::generate<float>(spec, 47, 1000);
  const auto split = flint::data::train_test_split(full, 0.3, 47);

  flint::trees::ForestOptions fopt;
  fopt.n_trees = 3;
  fopt.tree.max_depth = 9;
  fopt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  const auto forest = flint::trees::train_forest(split.train, fopt);

  CGenOptions opt;
  GeneratedCode code;
  switch (flavor) {
    case Flavor::IfElseFloat:
      code = flint::codegen::generate_ifelse(forest, opt);
      break;
    case Flavor::IfElseFlint:
      opt.flint = true;
      code = flint::codegen::generate_ifelse(forest, opt);
      break;
    case Flavor::CagsFloat:
    case Flavor::CagsFlint: {
      opt.flint = flavor == Flavor::CagsFlint;
      opt.kernel_budget_bytes = 256;  // exercise multi-kernel layout
      const auto stats = flint::trees::collect_branch_stats(forest, split.train);
      code = flint::codegen::generate_cags(forest, stats, opt);
      break;
    }
    case Flavor::NativeFloat:
      code = flint::codegen::generate_native(forest, opt);
      break;
    case Flavor::NativeFlint:
      opt.flint = true;
      code = flint::codegen::generate_native(forest, opt);
      break;
  }
  ASSERT_EQ(code.classify_symbol, "forest_classify");

  const auto module = flint::jit::compile(code);
  auto* classify =
      module.function<flint::jit::ClassifyFn<float>>(code.classify_symbol);
  const flint::exec::FloatForestEngine<float> reference(forest);
  for (std::size_t r = 0; r < split.test.rows(); ++r) {
    const auto x = split.test.row(r);
    ASSERT_EQ(classify(x.data()), reference.predict(x)) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasetsAndFlavors, FlavorEquivalence,
    ::testing::Combine(::testing::Values("eye", "gas", "magic", "sensorless",
                                         "wine"),
                       ::testing::Values(Flavor::IfElseFloat, Flavor::IfElseFlint,
                                         Flavor::CagsFloat, Flavor::CagsFlint,
                                         Flavor::NativeFloat, Flavor::NativeFlint)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + flavor_name(std::get<1>(info.param));
    });

TEST(DoubleWidthCodegen, IfElseFlintMatchesReference) {
  const auto full = flint::data::generate<double>(flint::data::magic_spec(), 53, 800);
  flint::trees::ForestOptions fopt;
  fopt.n_trees = 3;
  fopt.tree.max_depth = 8;
  const auto forest = flint::trees::train_forest(full, fopt);
  for (const bool flint_mode : {false, true}) {
    CGenOptions opt;
    opt.flint = flint_mode;
    const auto code = flint::codegen::generate_ifelse(forest, opt);
    const auto module = flint::jit::compile(code);
    auto* classify =
        module.function<flint::jit::ClassifyFn<double>>(code.classify_symbol);
    for (std::size_t r = 0; r < full.rows(); ++r) {
      ASSERT_EQ(classify(full.row(r).data()), forest.predict(full.row(r)))
          << "flint=" << flint_mode << " row " << r;
    }
  }
}

TEST(FlintCodegenPurity, NoFloatLiteralsInFlintModule) {
  const auto full = flint::data::generate<float>(flint::data::sensorless_spec(), 3, 600);
  flint::trees::ForestOptions fopt;
  fopt.n_trees = 2;
  fopt.tree.max_depth = 6;
  const auto forest = flint::trees::train_forest(full, fopt);
  CGenOptions opt;
  opt.flint = true;
  const auto code = flint::codegen::generate_ifelse(forest, opt);
  const std::string& src = code.files.at(0).content;
  // The only float mention allowed is the pX pointer type and the loader.
  EXPECT_EQ(src.find(" <= -"), std::string::npos);
  EXPECT_EQ(src.find("f) {"), std::string::npos) << "float literal present";
  EXPECT_NE(src.find("memcpy"), std::string::npos);
}

}  // namespace
