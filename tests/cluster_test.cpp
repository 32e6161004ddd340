// Tests for hierarchical clustering, distances and tree cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/distance.hpp"
#include "cluster/hclust.hpp"
#include "expr/synth.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

namespace cl = fv::cluster;
namespace ex = fv::expr;

ex::ExpressionMatrix two_blob_matrix(std::size_t per_blob, std::size_t cols,
                                     std::uint64_t seed) {
  // Rows 0..per_blob-1 follow +pattern, the rest -pattern, plus small noise.
  fv::Rng rng(seed);
  ex::ExpressionMatrix m(2 * per_blob, cols);
  for (std::size_t r = 0; r < 2 * per_blob; ++r) {
    const double sign = r < per_blob ? 1.0 : -1.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double pattern = std::sin(0.7 * static_cast<double>(c + 1));
      m.set(r, c,
            static_cast<float>(sign * pattern + rng.normal(0.0, 0.05)));
    }
  }
  return m;
}

TEST(DistanceTest, PearsonDistanceZeroForIdenticalProfiles) {
  const std::vector<float> a{1, 2, 3, 4, 5};
  EXPECT_NEAR(cl::profile_distance(a, a, cl::Metric::kPearson), 0.0, 1e-9);
}

TEST(DistanceTest, PearsonDistanceTwoForAnticorrelated) {
  const std::vector<float> a{1, 2, 3, 4, 5};
  const std::vector<float> b{5, 4, 3, 2, 1};
  EXPECT_NEAR(cl::profile_distance(a, b, cl::Metric::kPearson), 2.0, 1e-9);
}

TEST(DistanceTest, EuclideanMatchesHandComputation) {
  const std::vector<float> a{0, 0, 0};
  const std::vector<float> b{1, 2, 2};
  EXPECT_NEAR(cl::profile_distance(a, b, cl::Metric::kEuclidean), 3.0, 1e-9);
}

TEST(DistanceTest, EuclideanScalesForMissingCoverage) {
  const float kMissing = fv::stats::missing_value();
  const std::vector<float> a{0, 0, kMissing, 0};
  const std::vector<float> b{3, 4, 5, kMissing};
  // Present pairs: (0,3), (0,4) -> sum 25 over 2 of 4 coords -> 25*4/2 = 50.
  EXPECT_NEAR(cl::profile_distance(a, b, cl::Metric::kEuclidean),
              std::sqrt(50.0), 1e-9);
}

TEST(DistanceTest, MatrixIsSymmetricWithZeroDiagonal) {
  const auto m = two_blob_matrix(6, 10, 3);
  const auto d = cl::row_distances(m, cl::Metric::kPearson);
  ASSERT_EQ(d.size(), 12u);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_FLOAT_EQ(d.at(i, i), 0.0f);
    for (std::size_t j = 0; j < d.size(); ++j) {
      EXPECT_FLOAT_EQ(d.at(i, j), d.at(j, i));
    }
  }
}

TEST(DistanceTest, SquaredDistancesAreExactSquares) {
  // The squared condensed writer must emit exactly the float square of the
  // Euclidean writer, cell for cell — the Lance–Williams input contract for
  // Ward/centroid/median.
  const auto m = two_blob_matrix(5, 12, 7);
  fv::par::ThreadPool pool(2);
  const auto plain = cl::row_distances(m, cl::Metric::kEuclidean, pool);
  const auto squared = cl::row_squared_distances(m, pool);
  ASSERT_EQ(squared.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    for (std::size_t j = i + 1; j < plain.size(); ++j) {
      EXPECT_FLOAT_EQ(squared.at(i, j), plain.at(i, j) * plain.at(i, j));
    }
  }
  const auto squared_cols = cl::column_squared_distances(m, pool);
  const auto plain_cols = cl::column_distances(m, cl::Metric::kEuclidean, pool);
  ASSERT_EQ(squared_cols.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      EXPECT_FLOAT_EQ(squared_cols.at(i, j),
                      plain_cols.at(i, j) * plain_cols.at(i, j));
    }
  }
}

TEST(ClusterTest, WardClusterGenesBuildsValidTree) {
  const auto m = two_blob_matrix(6, 16, 19);
  fv::par::ThreadPool pool(2);
  auto merges = cl::agglomerate(cl::row_squared_distances(m, pool),
                                cl::Linkage::kWard);
  const auto tree = cl::merges_to_tree(merges, m.rows(),
                                       cl::negated_similarity);
  EXPECT_TRUE(tree.is_complete());
  // Ward separates the two planted blobs at k = 2.
  const auto clusters = cl::cut_tree_k(tree, 2);
  ASSERT_EQ(clusters.size(), 2u);
  for (const auto& cluster : clusters) {
    EXPECT_EQ(cluster.size(), 6u);
    const bool first_blob = cluster.front() < 6;
    for (const std::size_t leaf : cluster) {
      EXPECT_EQ(leaf < 6, first_blob);
    }
  }
}

TEST(ClusterTest, SquaredLinkagesRejectCorrelationMetrics) {
  auto genome = ex::make_genome(ex::GenomeSpec::yeast_like(40), 23);
  ex::StressDatasetSpec spec;
  spec.missing_rate = 0.0;
  auto ds = ex::make_stress_dataset(genome, spec, 9);
  fv::par::ThreadPool pool(2);
  EXPECT_THROW(cl::cluster_genes(ds, cl::Metric::kPearson,
                                 cl::Linkage::kWard, pool),
               fv::InvalidArgument);
  // With the Euclidean metric all three squared linkages attach trees.
  for (const auto linkage : {cl::Linkage::kWard, cl::Linkage::kCentroid,
                             cl::Linkage::kMedian}) {
    cl::cluster_genes(ds, cl::Metric::kEuclidean, linkage, pool);
    ASSERT_TRUE(ds.gene_tree().has_value());
    EXPECT_TRUE(ds.gene_tree()->is_complete());
    EXPECT_EQ(ds.gene_tree()->leaf_count(), ds.gene_count());
  }
}

TEST(DistanceTest, ColumnDistancesMatchManualColumns) {
  const auto m = two_blob_matrix(4, 6, 5);
  fv::par::ThreadPool pool(2);
  const auto d = cl::column_distances(m, cl::Metric::kEuclidean, pool);
  ASSERT_EQ(d.size(), 6u);
  const auto c0 = m.column(0);
  const auto c3 = m.column(3);
  EXPECT_NEAR(d.at(0, 3),
              cl::profile_distance(c0, c3, cl::Metric::kEuclidean), 1e-5);
}

TEST(HclustTest, MergesAreMonotoneNonDecreasing) {
  const auto m = two_blob_matrix(8, 12, 7);
  for (const auto linkage :
       {cl::Linkage::kSingle, cl::Linkage::kComplete, cl::Linkage::kAverage}) {
    const auto merges = cl::agglomerate(
        cl::row_distances(m, cl::Metric::kPearson), linkage);
    ASSERT_EQ(merges.size(), m.rows() - 1);
    for (std::size_t i = 1; i < merges.size(); ++i) {
      EXPECT_GE(merges[i].distance + 1e-9, merges[i - 1].distance);
    }
  }
}

TEST(HclustTest, RecoversPlantedBlobsAtTopSplit) {
  const std::size_t per_blob = 10;
  const auto m = two_blob_matrix(per_blob, 14, 9);
  const auto merges = cl::agglomerate(
      cl::row_distances(m, cl::Metric::kPearson), cl::Linkage::kAverage);
  const auto tree = cl::merges_to_tree(merges, m.rows(),
                                       cl::correlation_similarity);
  const auto clusters = cl::cut_tree_k(tree, 2);
  ASSERT_EQ(clusters.size(), 2u);
  // Each cluster must be exactly one blob.
  for (const auto& cluster : clusters) {
    ASSERT_EQ(cluster.size(), per_blob);
    const bool first_blob = cluster[0] < per_blob;
    for (std::size_t leaf : cluster) {
      EXPECT_EQ(leaf < per_blob, first_blob);
    }
  }
}

TEST(HclustTest, SingleElementNeedsNoMerges) {
  cl::DistanceMatrix d(1);
  const auto merges = cl::agglomerate(std::move(d), cl::Linkage::kAverage);
  EXPECT_TRUE(merges.empty());
}

TEST(HclustTest, TreeFromMergesIsComplete) {
  const auto m = two_blob_matrix(5, 8, 11);
  const auto merges = cl::agglomerate(
      cl::row_distances(m, cl::Metric::kEuclidean), cl::Linkage::kComplete);
  const auto tree =
      cl::merges_to_tree(merges, m.rows(), cl::negated_similarity);
  EXPECT_TRUE(tree.is_complete());
  EXPECT_EQ(tree.leaf_count(), m.rows());
}

TEST(HclustTest, WrongMergeCountThrows) {
  std::vector<cl::Merge> merges;  // empty but leaf_count 3
  EXPECT_THROW(cl::merges_to_tree(merges, 3, cl::correlation_similarity),
               fv::InvalidArgument);
}

TEST(HclustTest, ClusterGenesAttachesTree) {
  auto genome = ex::make_genome(ex::GenomeSpec::yeast_like(120), 3);
  ex::StressDatasetSpec spec;
  spec.missing_rate = 0.0;
  auto ds = ex::make_stress_dataset(genome, spec, 5);
  fv::par::ThreadPool pool(2);
  cl::cluster_genes(ds, cl::Metric::kPearson, cl::Linkage::kAverage, pool);
  ASSERT_TRUE(ds.gene_tree().has_value());
  EXPECT_EQ(ds.gene_tree()->leaf_count(), ds.gene_count());
  // Display order is a permutation of all rows.
  auto order = ds.display_order();
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(HclustTest, ClusterArraysAttachesTree) {
  auto genome = ex::make_genome(ex::GenomeSpec::yeast_like(80), 3);
  ex::StressDatasetSpec spec;
  spec.missing_rate = 0.0;
  auto ds = ex::make_stress_dataset(genome, spec, 5);
  fv::par::ThreadPool pool(2);
  cl::cluster_arrays(ds, cl::Metric::kEuclidean, cl::Linkage::kAverage, pool);
  ASSERT_TRUE(ds.array_tree().has_value());
  EXPECT_EQ(ds.array_tree()->leaf_count(), ds.condition_count());
}

TEST(TreeCutTest, SimilarityCutPartitionsLeaves) {
  const auto m = two_blob_matrix(6, 10, 13);
  const auto merges = cl::agglomerate(
      cl::row_distances(m, cl::Metric::kPearson), cl::Linkage::kAverage);
  const auto tree =
      cl::merges_to_tree(merges, m.rows(), cl::correlation_similarity);
  for (const double threshold : {-1.0, 0.0, 0.5, 0.9, 1.1}) {
    const auto clusters = cl::cut_tree_at_similarity(tree, threshold);
    std::set<std::size_t> seen;
    for (const auto& cluster : clusters) {
      for (std::size_t leaf : cluster) {
        EXPECT_TRUE(seen.insert(leaf).second) << "duplicate leaf";
      }
    }
    EXPECT_EQ(seen.size(), m.rows());
  }
}

TEST(TreeCutTest, ThresholdAboveAllMergesGivesSingletons) {
  const auto m = two_blob_matrix(4, 8, 15);
  const auto merges = cl::agglomerate(
      cl::row_distances(m, cl::Metric::kPearson), cl::Linkage::kAverage);
  const auto tree =
      cl::merges_to_tree(merges, m.rows(), cl::correlation_similarity);
  const auto clusters = cl::cut_tree_at_similarity(tree, 2.0);
  EXPECT_EQ(clusters.size(), m.rows());
}

TEST(TreeCutTest, CutKExtremes) {
  const auto m = two_blob_matrix(5, 8, 17);
  const auto merges = cl::agglomerate(
      cl::row_distances(m, cl::Metric::kPearson), cl::Linkage::kAverage);
  const auto tree =
      cl::merges_to_tree(merges, m.rows(), cl::correlation_similarity);
  EXPECT_EQ(cl::cut_tree_k(tree, 1).size(), 1u);
  EXPECT_EQ(cl::cut_tree_k(tree, m.rows()).size(), m.rows());
  EXPECT_THROW(cl::cut_tree_k(tree, 0), fv::InvalidArgument);
  EXPECT_THROW(cl::cut_tree_k(tree, m.rows() + 1), fv::InvalidArgument);
}

TEST(TreeCutTest, SingleLeafTreeCuts) {
  // A one-gene dataset has a leaf-only tree: no merges, but both cut
  // operations must still return the one-singleton partition.
  const ex::HierTree tree(1);
  const auto by_sim = cl::cut_tree_at_similarity(tree, 0.5);
  ASSERT_EQ(by_sim.size(), 1u);
  EXPECT_EQ(by_sim[0], std::vector<std::size_t>{0});
  const auto by_k = cl::cut_tree_k(tree, 1);
  ASSERT_EQ(by_k.size(), 1u);
  EXPECT_EQ(by_k[0], std::vector<std::size_t>{0});
  EXPECT_THROW(cl::cut_tree_k(tree, 2), fv::InvalidArgument);
}

TEST(TreeCutTest, TiedMergeHeightsCutDeterministically) {
  // Two pairs merge at the same similarity (0.8), the root far below. Cuts
  // exactly at the tie and inside the tie band must be deterministic.
  std::vector<cl::Merge> merges{
      {0, 1, 0.2}, {2, 3, 0.2}, {4, 5, 0.7}};  // distances; sim = 1 - d
  const auto tree = cl::merges_to_tree(merges, 4, cl::correlation_similarity);
  // Threshold equal to the tied similarity: both pairs survive (>= is
  // inclusive), root does not.
  const auto at_tie = cl::cut_tree_at_similarity(tree, 0.8);
  ASSERT_EQ(at_tie.size(), 2u);
  for (const auto& cluster : at_tie) EXPECT_EQ(cluster.size(), 2u);
  // Just above the tie: everything dissolves to singletons.
  EXPECT_EQ(cl::cut_tree_at_similarity(tree, 0.8 + 1e-9).size(), 4u);
  // k = 2 keeps both tied pairs.
  const auto two = cl::cut_tree_k(tree, 2);
  ASSERT_EQ(two.size(), 2u);
  for (const auto& cluster : two) EXPECT_EQ(cluster.size(), 2u);
  // k = 3 must undo exactly one of the tied merges — deterministically the
  // higher node id (the later-emitted pair) — leaving a 2-1-1 partition.
  const auto three = cl::cut_tree_k(tree, 3);
  ASSERT_EQ(three.size(), 3u);
  std::multiset<std::size_t> sizes;
  for (const auto& cluster : three) sizes.insert(cluster.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 1, 2}));
  // Deterministic: repeated cuts agree.
  EXPECT_EQ(three, cl::cut_tree_k(tree, 3));
}

TEST(TreeCutTest, AllMergesTiedStillPartition) {
  // Every merge at the same height: cut_tree_k must still produce exactly k
  // clusters for every k (id order breaks the ties).
  const auto n = std::size_t{6};
  std::vector<cl::Merge> merges;
  // Left comb: (0,1), (6,2), (7,3), ... all at distance 0.5.
  merges.push_back({0, 1, 0.5});
  for (std::size_t i = 2; i < n; ++i) {
    merges.push_back({static_cast<int>(n + i - 2), static_cast<int>(i), 0.5});
  }
  const auto tree = cl::merges_to_tree(merges, n, cl::correlation_similarity);
  for (std::size_t k = 1; k <= n; ++k) {
    const auto clusters = cl::cut_tree_k(tree, k);
    EXPECT_EQ(clusters.size(), k);
    std::set<std::size_t> seen;
    for (const auto& cluster : clusters) {
      for (const std::size_t leaf : cluster) seen.insert(leaf);
    }
    EXPECT_EQ(seen.size(), n);
  }
}

// Property sweep: cut_tree_k returns exactly k clusters forming a partition.
class CutKPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CutKPropertyTest, PartitionWithExactlyK) {
  const auto m = two_blob_matrix(8, 10, 21);
  const auto merges = cl::agglomerate(
      cl::row_distances(m, cl::Metric::kPearson), cl::Linkage::kComplete);
  const auto tree =
      cl::merges_to_tree(merges, m.rows(), cl::correlation_similarity);
  const auto k = static_cast<std::size_t>(GetParam());
  const auto clusters = cl::cut_tree_k(tree, k);
  EXPECT_EQ(clusters.size(), k);
  std::set<std::size_t> seen;
  for (const auto& cluster : clusters) {
    for (std::size_t leaf : cluster) seen.insert(leaf);
  }
  EXPECT_EQ(seen.size(), m.rows());
}

INSTANTIATE_TEST_SUITE_P(KSweep, CutKPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
