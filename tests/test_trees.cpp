// Unit tests for trees/: structure, validation, training, forests,
// serialization and branch statistics.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "core/flint.hpp"
#include "data/synth.hpp"
#include "exec/interpreter.hpp"
#include "predict/predictor.hpp"
#include "trees/forest.hpp"
#include "trees/serialize.hpp"
#include "trees/train.hpp"
#include "trees/tree.hpp"
#include "trees/tree_stats.hpp"

namespace {

using flint::trees::Forest;
using flint::trees::Node;
using flint::trees::Tree;

/// Builds the 2-level example tree used across this file:
///   root: f0 <= 1.5 ? (f1 <= -2.0 ? class0 : class1) : class2
Tree<float> example_tree() {
  Tree<float> t(2);
  const auto root = t.add_split(0, 1.5f);
  const auto inner = t.add_split(1, -2.0f);
  const auto l0 = t.add_leaf(0);
  const auto l1 = t.add_leaf(1);
  const auto l2 = t.add_leaf(2);
  t.link(root, inner, l2);
  t.link(inner, l0, l1);
  return t;
}

TEST(Tree, PredictFollowsTraversalRule) {
  const auto t = example_tree();
  EXPECT_EQ(t.predict(std::vector<float>{1.0f, -3.0f}), 0);
  EXPECT_EQ(t.predict(std::vector<float>{1.0f, 0.0f}), 1);
  EXPECT_EQ(t.predict(std::vector<float>{2.0f, 0.0f}), 2);
  // Boundary: <= is inclusive.
  EXPECT_EQ(t.predict(std::vector<float>{1.5f, -2.0f}), 0);
}

TEST(Tree, ShapeAccessors) {
  const auto t = example_tree();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.leaf_count(), 3u);
  EXPECT_EQ(t.inner_count(), 2u);
  EXPECT_EQ(t.depth(), 2u);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
}

TEST(Tree, SingleLeafIsValid) {
  Tree<float> t(1);
  t.add_leaf(4);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.predict(std::vector<float>{0.0f}), 4);
}

TEST(Tree, ValidateCatchesBrokenStructure) {
  {
    Tree<float> t(1);
    EXPECT_FALSE(t.validate().empty());  // no nodes
  }
  {
    Tree<float> t(1);
    const auto root = t.add_split(0, 1.0f);
    t.link(root, 7, 8);  // out of range children
    EXPECT_NE(t.validate().find("out of range"), std::string::npos);
  }
  {
    Tree<float> t(1);
    const auto root = t.add_split(0, 1.0f);
    const auto leaf = t.add_leaf(0);
    t.link(root, leaf, leaf);  // identical children
    EXPECT_NE(t.validate().find("identical"), std::string::npos);
  }
  {
    Tree<float> t(1);
    t.add_leaf(-5);  // leaf without prediction
    EXPECT_NE(t.validate().find("prediction"), std::string::npos);
  }
  {
    Tree<float> t(1);
    const auto root = t.add_split(5, 1.0f);  // feature out of range
    const auto a = t.add_leaf(0);
    const auto b = t.add_leaf(1);
    t.link(root, a, b);
    EXPECT_NE(t.validate().find("feature"), std::string::npos);
  }
}

TEST(Tree, AddSplitRejectsNegativeFeature) {
  Tree<float> t(2);
  EXPECT_THROW((void)t.add_split(-1, 0.0f), std::invalid_argument);
}

TEST(Train, PerfectFitOnSeparableData) {
  flint::data::Dataset<float> ds("sep", 1);
  for (int i = 0; i < 50; ++i) {
    ds.add_row(std::vector<float>{static_cast<float>(i)}, i < 25 ? 0 : 1);
  }
  flint::trees::TrainOptions opt;
  opt.max_depth = 4;
  const auto tree = flint::trees::train_tree(ds, opt);
  EXPECT_TRUE(tree.validate().empty());
  EXPECT_EQ(flint::trees::accuracy(tree, ds), 1.0);
  EXPECT_EQ(tree.depth(), 1u);  // one split suffices
}

TEST(Train, RespectsMaxDepth) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 3, 1500);
  for (const int depth : {1, 3, 7}) {
    flint::trees::TrainOptions opt;
    opt.max_depth = depth;
    const auto tree = flint::trees::train_tree(ds, opt);
    EXPECT_LE(tree.depth(), static_cast<std::size_t>(depth));
    EXPECT_TRUE(tree.validate().empty());
  }
}

TEST(Train, DeterministicInSeed) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 3, 800);
  flint::trees::TrainOptions opt;
  opt.max_depth = 8;
  opt.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  opt.seed = 99;
  const auto a = flint::trees::train_tree(ds, opt);
  const auto b = flint::trees::train_tree(ds, opt);
  std::ostringstream sa, sb;
  flint::trees::write_tree(sa, a);
  flint::trees::write_tree(sb, b);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Train, DeeperTreesFitTrainingDataBetter) {
  const auto ds = flint::data::generate<float>(flint::data::eye_spec(), 3, 2000);
  flint::trees::TrainOptions opt;
  opt.max_depth = 2;
  const double shallow = flint::trees::accuracy(flint::trees::train_tree(ds, opt), ds);
  opt.max_depth = 12;
  const double deep = flint::trees::accuracy(flint::trees::train_tree(ds, opt), ds);
  EXPECT_GT(deep, shallow);
}

TEST(Train, ConstantFeaturesYieldSingleLeaf) {
  flint::data::Dataset<float> ds("const", 2);
  for (int i = 0; i < 10; ++i) {
    ds.add_row(std::vector<float>{1.0f, 2.0f}, i % 2);
  }
  flint::trees::TrainOptions opt;
  opt.max_depth = 5;
  const auto tree = flint::trees::train_tree(ds, opt);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.node(0).is_leaf());
}

TEST(Train, MinSamplesLeafRespected) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 4, 600);
  flint::trees::TrainOptions opt;
  opt.max_depth = 20;
  opt.min_samples_leaf = 10;
  const auto tree = flint::trees::train_tree(ds, opt);
  // Every leaf must have been reachable by >= 10 training rows.
  const auto stats = flint::trees::collect_branch_stats(tree, ds);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (tree.node(static_cast<std::int32_t>(i)).is_leaf()) {
      EXPECT_GE(stats.visits[i], 10u) << "leaf " << i;
    }
  }
}

TEST(Train, SplitsNeverNegativeZero) {
  // The trainer normalizes -0.0 thresholds; splits must never carry the
  // negative-zero bit pattern (FLInt engines rely on this).
  flint::data::Dataset<float> ds("zeros", 1);
  for (int i = 0; i < 20; ++i) {
    ds.add_row(std::vector<float>{i < 10 ? -0.0f : 1.0f}, i < 10 ? 0 : 1);
  }
  flint::trees::TrainOptions opt;
  opt.max_depth = 3;
  const auto tree = flint::trees::train_tree(ds, opt);
  for (const auto& n : tree.nodes()) {
    if (!n.is_leaf() && n.split == 0.0f) {
      EXPECT_EQ(flint::core::si_bits(n.split), 0) << "split is -0.0";
    }
  }
  EXPECT_EQ(flint::trees::accuracy(tree, ds), 1.0);
}

TEST(Train, EmptyDatasetThrows) {
  flint::data::Dataset<float> empty("e", 2);
  EXPECT_THROW((void)flint::trees::train_tree(empty, {}), std::invalid_argument);
}

TEST(Forest, MajorityVoteAndTieBreak) {
  // Two single-leaf trees voting class 1, one voting class 0 -> class 1;
  // one vote each -> lowest class id wins.
  Tree<float> t0(1), t1(1), t2(1);
  t0.add_leaf(1);
  t1.add_leaf(1);
  t2.add_leaf(0);
  {
    Forest<float> f({t0, t1, t2}, 2);
    EXPECT_EQ(f.predict(std::vector<float>{0.0f}), 1);
    const auto votes = f.vote(std::vector<float>{0.0f});
    EXPECT_EQ(votes[0], 1);
    EXPECT_EQ(votes[1], 2);
  }
  {
    Tree<float> t3(1);
    t3.add_leaf(2);
    Forest<float> f({t0, t2, t3}, 3);  // one vote for 1, 0, 2 each
    EXPECT_EQ(f.predict(std::vector<float>{0.0f}), 0);
  }
}

TEST(Forest, TrainIsDeterministicAndAccurate) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 5, 1500);
  flint::trees::ForestOptions opt;
  opt.n_trees = 7;
  opt.tree.max_depth = 8;
  opt.tree.max_features = flint::trees::TrainOptions::kSqrtFeatures;
  opt.tree.seed = 17;
  const auto a = flint::trees::train_forest(ds, opt);
  const auto b = flint::trees::train_forest(ds, opt);
  EXPECT_EQ(a.size(), 7u);
  std::ostringstream sa, sb;
  flint::trees::write_forest(sa, a);
  flint::trees::write_forest(sb, b);
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_GT(flint::trees::accuracy(a, ds), 0.7);
  EXPECT_GT(a.max_depth(), 0u);
  EXPECT_GT(a.total_nodes(), 7u);
}

TEST(Forest, BootstrapTreesDiffer) {
  const auto ds = flint::data::generate<float>(flint::data::magic_spec(), 5, 800);
  flint::trees::ForestOptions opt;
  opt.n_trees = 2;
  opt.tree.max_depth = 6;
  const auto forest = flint::trees::train_forest(ds, opt);
  std::ostringstream s0, s1;
  flint::trees::write_tree(s0, forest.tree(0));
  flint::trees::write_tree(s1, forest.tree(1));
  EXPECT_NE(s0.str(), s1.str());
}

TEST(Forest, InvalidOptionsThrow) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 5, 100);
  flint::trees::ForestOptions opt;
  opt.n_trees = 0;
  EXPECT_THROW((void)flint::trees::train_forest(ds, opt), std::invalid_argument);
  flint::data::Dataset<float> empty("e", 2);
  EXPECT_THROW((void)flint::trees::train_forest(empty, {}), std::invalid_argument);
}

TEST(Serialize, TreeRoundTripIsBitExact) {
  const auto t = example_tree();
  std::ostringstream out;
  flint::trees::write_tree(out, t);
  std::istringstream in(out.str());
  const auto back = flint::trees::read_tree<float>(in);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& a = t.node(static_cast<std::int32_t>(i));
    const auto& b = back.node(static_cast<std::int32_t>(i));
    EXPECT_EQ(a.feature, b.feature);
    EXPECT_EQ(flint::core::si_bits(a.split), flint::core::si_bits(b.split));
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.prediction, b.prediction);
  }
}

TEST(Serialize, ForestFileRoundTrip) {
  const auto ds = flint::data::generate<float>(flint::data::wine_spec(), 5, 400);
  flint::trees::ForestOptions opt;
  opt.n_trees = 3;
  opt.tree.max_depth = 5;
  const auto forest = flint::trees::train_forest(ds, opt);
  const std::string path = ::testing::TempDir() + "/flint_forest_roundtrip.txt";
  flint::trees::save_forest(path, forest);
  const auto back = flint::trees::load_forest<float>(path);
  EXPECT_EQ(back.size(), forest.size());
  EXPECT_EQ(back.num_classes(), forest.num_classes());
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    EXPECT_EQ(back.predict(ds.row(r)), forest.predict(ds.row(r)));
  }
}

TEST(Serialize, MalformedInputThrows) {
  {
    std::istringstream in("not a tree\n");
    EXPECT_THROW((void)flint::trees::read_tree<float>(in), std::runtime_error);
  }
  {
    std::istringstream in("tree 1 1\n");  // truncated: header promises 1 node
    EXPECT_THROW((void)flint::trees::read_tree<float>(in), std::runtime_error);
  }
  {
    // Structurally invalid content is rejected by validate().
    std::istringstream in("tree 1 1\nn 0 3f800000 5 6 -1\n");
    EXPECT_THROW((void)flint::trees::read_tree<float>(in), std::runtime_error);
  }
  EXPECT_THROW((void)flint::trees::load_forest<float>("/nonexistent/f.txt"),
               std::runtime_error);
}

/// Extracts what() from the parse failure of `content` via read_forest.
std::string forest_parse_error(const std::string& content) {
  std::istringstream in(content);
  try {
    (void)flint::trees::read_forest<float>(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Serialize, ErrorsCarryLineNumbersAndTokens) {
  // Corrupt split bits on the second node line = physical line 4 (the
  // comment line counts; line numbers are positions in the FILE).
  const std::string corrupt =
      "# comment\n"
      "forest v1 2 1\n"
      "tree 1 3\n"
      "n 0 zzzz 1 2 -1\n"
      "n -1 0 -1 -1 0\n"
      "n -1 0 -1 -1 1\n";
  const std::string err = forest_parse_error(corrupt);
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("zzzz"), std::string::npos) << err;

  // Truncated file: the header promises a node that never arrives; the
  // error points one past the last line read.
  const std::string truncated =
      "forest v1 2 1\n"
      "tree 1 3\n"
      "n 0 3f800000 1 2 -1\n"
      "n -1 0 -1 -1 0\n";
  const std::string trunc_err = forest_parse_error(truncated);
  EXPECT_NE(trunc_err.find("line 4"), std::string::npos) << trunc_err;
  EXPECT_NE(trunc_err.find("end of input"), std::string::npos) << trunc_err;

  // Non-numeric child index: the offending token is named.
  const std::string bad_child =
      "forest v1 2 1\n"
      "tree 1 1\n"
      "n -1 0 oops -1 0\n";
  const std::string child_err = forest_parse_error(bad_child);
  EXPECT_NE(child_err.find("line 3"), std::string::npos) << child_err;
  EXPECT_NE(child_err.find("oops"), std::string::npos) << child_err;

  // Wrong header tag: names the token it saw.
  const std::string bad_header = "woods v1 2 1\n";
  const std::string header_err = forest_parse_error(bad_header);
  EXPECT_NE(header_err.find("line 1"), std::string::npos) << header_err;
  EXPECT_NE(header_err.find("woods"), std::string::npos) << header_err;
}

/// Split values the FLInt encodings must survive: signed zeros, denormals,
/// the normal extremes and both infinities.
std::vector<float> adversarial_splits() {
  using L = std::numeric_limits<float>;
  return {0.0f,       -0.0f,        L::denorm_min(), -L::denorm_min(),
          L::min(),   -L::min(),    L::infinity(),   -L::infinity(),
          L::max(),   L::lowest(),  1.5f,            -1.5f};
}

// The hex bit-pattern format must reproduce -0.0, denormals and infinities
// exactly: the reloaded forest packs to the same encoded image, and the
// encoded interpreter and the compact layout built from it still match
// Forest::predict at every special value.
TEST(Serialize, AdversarialThresholdsRoundTripBitExact) {
  std::vector<Tree<float>> trees;
  for (const float split : adversarial_splits()) {
    Tree<float> tree(1);
    const auto root = tree.add_split(0, split);
    const auto l = tree.add_leaf(1);
    const auto r = tree.add_leaf(0);
    tree.link(root, l, r);
    trees.push_back(tree);
  }
  const Forest<float> forest(std::move(trees), 2);
  std::stringstream buf;
  flint::trees::write_forest(buf, forest);
  const auto reloaded = flint::trees::read_forest<float>(buf);
  ASSERT_EQ(reloaded.size(), forest.size());
  for (std::size_t t = 0; t < forest.size(); ++t) {
    const float original = forest.tree(t).node(0).split;
    const float back = reloaded.tree(t).node(0).split;
    EXPECT_EQ(flint::core::si_bits(original), flint::core::si_bits(back))
        << "split " << original << " did not round-trip bit-exactly";
  }
  using flint::exec::FlintForestEngine;
  using flint::exec::FlintVariant;
  const FlintForestEngine<float> before(forest, FlintVariant::Encoded);
  const FlintForestEngine<float> after(reloaded, FlintVariant::Encoded);
  ASSERT_EQ(after.nodes().size(), before.nodes().size());
  for (std::size_t i = 0; i < before.nodes().size(); ++i) {
    EXPECT_EQ(after.nodes()[i].payload, before.nodes()[i].payload) << i;
    EXPECT_EQ(after.nodes()[i].flags, before.nodes()[i].flags) << i;
  }
  for (const char* backend : {"encoded", "layout:auto"}) {
    const auto predictor = flint::predict::make_predictor(reloaded, backend);
    for (const float x : adversarial_splits()) {
      EXPECT_EQ(predictor->predict_one({&x, 1}), forest.predict({&x, 1}))
          << backend << " x=" << x;
    }
  }
}

TEST(TreeStats, BranchProbabilitiesSumCorrectly) {
  const auto t = example_tree();
  flint::data::Dataset<float> ds("probe", 2);
  // 3 rows to the far left leaf, 1 to the middle, 4 to the right.
  for (int i = 0; i < 3; ++i) ds.add_row(std::vector<float>{1.0f, -3.0f}, 0);
  ds.add_row(std::vector<float>{1.0f, 5.0f}, 1);
  for (int i = 0; i < 4; ++i) ds.add_row(std::vector<float>{9.0f, 0.0f}, 2);
  const auto stats = flint::trees::collect_branch_stats(t, ds);
  EXPECT_EQ(stats.visits[0], 8u);                     // root
  EXPECT_DOUBLE_EQ(stats.left_probability[0], 0.5);   // 4 of 8 left
  EXPECT_EQ(stats.visits[1], 4u);                     // inner
  EXPECT_DOUBLE_EQ(stats.left_probability[1], 0.75);  // 3 of 4 left
}

TEST(TreeStats, UnvisitedNodesGetPrior) {
  const auto t = example_tree();
  flint::data::Dataset<float> ds("empty-side", 2);
  ds.add_row(std::vector<float>{9.0f, 0.0f}, 2);  // right side only
  const auto stats = flint::trees::collect_branch_stats(t, ds);
  EXPECT_DOUBLE_EQ(stats.left_probability[1], 0.5);  // inner never visited
}

TEST(TreeStats, ShapeMetrics) {
  const auto t = example_tree();
  const auto shape = flint::trees::tree_shape(t);
  EXPECT_EQ(shape.nodes, 5u);
  EXPECT_EQ(shape.leaves, 3u);
  EXPECT_EQ(shape.depth, 2u);
  EXPECT_EQ(shape.negative_splits, 1u);     // the -2.0 split
  EXPECT_EQ(shape.nonnegative_splits, 1u);  // the 1.5 split
  EXPECT_NEAR(shape.mean_leaf_depth, (2 + 2 + 1) / 3.0, 1e-12);
}

}  // namespace
