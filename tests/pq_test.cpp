// Tests for the product-quantization substrate: k-means, encoders, and the
// classic PQ train/query path of §II-B.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "pq/encoder.hpp"
#include "pq/kmeans.hpp"
#include "pq/pq.hpp"

namespace dart::pq {
namespace {

/// Well-separated clusters: k groups at distance >> intra-cluster spread.
nn::Tensor clustered_data(std::size_t n, std::size_t v, std::size_t k, std::uint64_t seed) {
  nn::Tensor data = nn::Tensor::randn({n, v}, 0.05f, seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % k;
    for (std::size_t j = 0; j < v; ++j) {
      data.at(i, j) += static_cast<float>(c) * 2.0f + static_cast<float>(j % 2);
    }
  }
  return data;
}

TEST(KMeans, RecoversSeparatedClusters) {
  const std::size_t k = 4;
  nn::Tensor data = clustered_data(400, 3, k, 1);
  KMeansResult res = kmeans(data, k, {20, 1e-6, 7});
  // Every point must be close to its centroid (within the cluster spread).
  for (std::size_t i = 0; i < data.dim(0); ++i) {
    const float* row = data.row(i);
    const float* c = res.centroids.row(res.assignment[i]);
    float d = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) d += (row[j] - c[j]) * (row[j] - c[j]);
    EXPECT_LT(std::sqrt(d), 0.8f);
  }
}

TEST(KMeans, DeterministicForSeed) {
  nn::Tensor data = clustered_data(100, 4, 3, 2);
  KMeansResult a = kmeans(data, 8, {10, 1e-4, 5});
  KMeansResult b = kmeans(data, 8, {10, 1e-4, 5});
  for (std::size_t i = 0; i < a.centroids.numel(); ++i) {
    EXPECT_EQ(a.centroids[i], b.centroids[i]);
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  nn::Tensor data = nn::Tensor::randn({500, 4}, 1.0f, 3);
  const double i2 = kmeans(data, 2, {15, 1e-6, 9}).inertia;
  const double i16 = kmeans(data, 16, {15, 1e-6, 9}).inertia;
  EXPECT_LT(i16, i2);
}

TEST(KMeans, HandlesFewerRowsThanCentroids) {
  nn::Tensor data = nn::Tensor::randn({3, 2}, 1.0f, 4);
  KMeansResult res = kmeans(data, 8, {5, 1e-4, 1});
  EXPECT_EQ(res.centroids.dim(0), 8u);
  for (auto a : res.assignment) EXPECT_LT(a, 8u);
}

TEST(KMeans, RejectsBadInput) {
  nn::Tensor bad({2, 2, 2});
  EXPECT_THROW(kmeans(bad, 2), std::invalid_argument);
  nn::Tensor ok({4, 2});
  EXPECT_THROW(kmeans(ok, 0), std::invalid_argument);
}

TEST(ExactEncoder, PicksNearestPrototype) {
  nn::Tensor protos({3, 2});
  protos.at(0, 0) = 0.0f;
  protos.at(1, 0) = 5.0f;
  protos.at(2, 0) = 10.0f;
  ExactEncoder enc(protos);
  float q1[2] = {1.0f, 0.0f};
  float q2[2] = {7.9f, 0.0f};
  EXPECT_EQ(enc.encode(q1), 0u);
  EXPECT_EQ(enc.encode(q2), 2u);
}

/// The scalar argmin the lane-blocked ExactEncoder must reproduce bit for
/// bit: half-norms and dot products accumulated in ascending j, prototypes
/// scanned in ascending k with strict `<` from FLT_MAX (ties to the lowest
/// index; a row with no score below FLT_MAX encodes to 0).
std::uint32_t scalar_argmin(const nn::Tensor& protos, const float* row) {
  const std::size_t k = protos.dim(0), v = protos.dim(1);
  // Stored first, as the encoder does, so `0.5f * norm - dot` cannot be
  // contracted into one fused multiply-subtract.
  std::vector<float> half_norms(k);
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = protos.row(c);
    float norm = 0.0f;
    for (std::size_t j = 0; j < v; ++j) norm += p[j] * p[j];
    half_norms[c] = 0.5f * norm;
  }
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = protos.row(c);
    float dot = 0.0f;
    for (std::size_t j = 0; j < v; ++j) dot += row[j] * p[j];
    const float d = half_norms[c] - dot;
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

/// Probe rows for one (K, V) shape: random rows, the prototypes themselves
/// (exact ties when prototypes repeat), large-magnitude rows whose dot
/// products overflow to ±inf, and all-zero and NaN rows.
nn::Tensor equivalence_probes(const nn::Tensor& protos, std::uint64_t seed) {
  const std::size_t k = protos.dim(0), v = protos.dim(1);
  const std::size_t n_rand = 24, n_big = 8;
  nn::Tensor probes({n_rand + k + n_big + 2, v});
  nn::Tensor noise = nn::Tensor::randn({n_rand + n_big, v}, 1.0f, seed);
  std::size_t r = 0;
  for (std::size_t i = 0; i < n_rand; ++i, ++r) {
    for (std::size_t j = 0; j < v; ++j) probes.at(r, j) = noise.at(i, j);
  }
  for (std::size_t c = 0; c < k; ++c, ++r) {
    for (std::size_t j = 0; j < v; ++j) probes.at(r, j) = protos.at(c, j);
  }
  for (std::size_t i = 0; i < n_big; ++i, ++r) {
    const float scale = i % 2 == 0 ? 1e19f : 3e37f;
    for (std::size_t j = 0; j < v; ++j) probes.at(r, j) = scale * noise.at(n_rand + i, j);
  }
  ++r;  // all-zero row
  for (std::size_t j = 0; j < v; ++j) probes.at(r, j) = std::numeric_limits<float>::quiet_NaN();
  return probes;
}

/// Prototype sets for one (K, V) shape: random, with duplicates spread
/// across lane blocks, and large-magnitude (half-norms overflow to +inf).
std::vector<nn::Tensor> equivalence_prototypes(std::size_t k, std::size_t v, std::uint64_t seed) {
  std::vector<nn::Tensor> sets;
  sets.push_back(nn::Tensor::randn({k, v}, 1.0f, seed));
  nn::Tensor dup = nn::Tensor::randn({k, v}, 1.0f, seed + 1);
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t src = c % 5;  // 0..4 repeat every 5: ties across lanes and blocks
    for (std::size_t j = 0; j < v; ++j) dup.at(c, j) = dup.at(src, j);
  }
  sets.push_back(std::move(dup));
  nn::Tensor big = nn::Tensor::randn({k, v}, 1.0f, seed + 2);
  for (std::size_t i = 0; i < big.numel(); ++i) big[i] *= (i % 3 == 0) ? 1e20f : 1.0f;
  sets.push_back(std::move(big));
  sets.push_back(nn::Tensor({k, v}));  // all-zero: every score ties
  return sets;
}

TEST(ExactEncoder, LaneSearchMatchesScalarArgminBitExact) {
  std::uint64_t seed = 100;
  for (std::size_t k : {1, 3, 15, 16, 17, 128, 130}) {
    for (std::size_t v : {1, 3, 16, 64}) {
      for (const nn::Tensor& protos : equivalence_prototypes(k, v, seed += 3)) {
        SCOPED_TRACE("K=" + std::to_string(k) + " V=" + std::to_string(v));
        const ExactEncoder enc(protos);
        const nn::Tensor probes = equivalence_probes(protos, ++seed);
        const std::size_t n = probes.dim(0);
        std::vector<std::uint32_t> want(n);
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = scalar_argmin(protos, probes.row(i));
          ASSERT_EQ(enc.encode(probes.row(i)), want[i]) << "row " << i;
        }
        // encode_batch over rows embedded in a wider matrix, codes strided;
        // every batch length covers full and partial row blocks.
        const std::size_t row_stride = v + 5, code_stride = 3;
        std::vector<float> wide(n * row_stride, -7.0f);
        for (std::size_t i = 0; i < n; ++i) {
          std::copy(probes.row(i), probes.row(i) + v, wide.begin() + i * row_stride + 2);
        }
        for (std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{5}, n}) {
          std::vector<std::uint32_t> codes(len * code_stride, 0xDEADu);
          enc.encode_batch(wide.data() + 2, row_stride, len, codes.data(), code_stride);
          for (std::size_t i = 0; i < len; ++i) {
            ASSERT_EQ(codes[i * code_stride], want[i]) << "batch " << len << " row " << i;
            ASSERT_EQ(codes[i * code_stride + 1], 0xDEADu);
            ASSERT_EQ(codes[i * code_stride + 2], 0xDEADu);
          }
        }
      }
    }
  }
}

TEST(ExactEncoder, TiesGoToLowestIndex) {
  // Prototypes 2, 9 and 23 (three different lane blocks at K=30) are equal
  // to the probe; 2 must win.
  nn::Tensor protos = nn::Tensor::randn({30, 4}, 1.0f, 12);
  for (std::size_t c : {9, 23}) {
    for (std::size_t j = 0; j < 4; ++j) protos.at(c, j) = protos.at(2, j);
  }
  ExactEncoder enc(protos);
  EXPECT_EQ(enc.encode(protos.row(23)), 2u);
  std::uint32_t codes[3];
  const float rows[12] = {protos.at(9, 0), protos.at(9, 1), protos.at(9, 2), protos.at(9, 3),
                          protos.at(2, 0), protos.at(2, 1), protos.at(2, 2), protos.at(2, 3),
                          protos.at(23, 0), protos.at(23, 1), protos.at(23, 2), protos.at(23, 3)};
  enc.encode_batch(rows, 4, 3, codes, 1);
  EXPECT_EQ(codes[0], 2u);
  EXPECT_EQ(codes[1], 2u);
  EXPECT_EQ(codes[2], 2u);
}

class HashTreeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashTreeSizes, LogDepthAndValidIndices) {
  const std::size_t k = GetParam();
  nn::Tensor data = clustered_data(std::max<std::size_t>(4 * k, 64), 4, k, 5);
  KMeansResult res = kmeans(data, k, {10, 1e-4, 3});
  HashTreeEncoder enc(res.centroids);
  std::size_t expect_depth = 0;
  while ((1ULL << expect_depth) < k) ++expect_depth;
  EXPECT_EQ(enc.comparisons_per_encode(), expect_depth);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_LT(enc.encode(data.row(i)), k);
  }
}

TEST_P(HashTreeSizes, AgreesWithExactOnClusteredData) {
  const std::size_t k = GetParam();
  nn::Tensor data = clustered_data(std::max<std::size_t>(8 * k, 128), 4, k, 6);
  KMeansResult res = kmeans(data, k, {15, 1e-5, 11});
  HashTreeEncoder tree(res.centroids);
  ExactEncoder exact(res.centroids);
  std::size_t agree = 0;
  const std::size_t probes = 128;
  for (std::size_t i = 0; i < probes; ++i) {
    if (tree.encode(data.row(i)) == exact.encode(data.row(i))) ++agree;
  }
  // The hash tree is an approximation, but on well-clustered data it should
  // agree with exact assignment for the large majority of points.
  EXPECT_GT(agree, probes * 6 / 10);
}

INSTANTIATE_TEST_SUITE_P(PrototypeCounts, HashTreeSizes, ::testing::Values(2, 4, 8, 16, 32));

TEST(ProductQuantizer, ReconstructionIsNearestPrototypeConcat) {
  nn::Tensor data = clustered_data(200, 8, 4, 7);
  PqConfig cfg;
  cfg.num_subspaces = 2;
  cfg.num_prototypes = 8;
  ProductQuantizer pq(data, cfg);
  const auto rec = pq.reconstruct(data.row(0));
  ASSERT_EQ(rec.size(), 8u);
  // Reconstruction error must be bounded by cluster spread.
  float err = 0.0f;
  for (std::size_t j = 0; j < 8; ++j) {
    err += (rec[j] - data.at(0, j)) * (rec[j] - data.at(0, j));
  }
  EXPECT_LT(std::sqrt(err), 1.0f);
}

TEST(ProductQuantizer, DotProductApproximation) {
  nn::Tensor data = clustered_data(500, 8, 8, 8);
  PqConfig cfg;
  cfg.num_subspaces = 4;
  cfg.num_prototypes = 16;
  ProductQuantizer pq(data, cfg);
  nn::Tensor w = nn::Tensor::randn({8}, 1.0f, 9);
  const auto table = pq.build_table(w.data());
  double max_err = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const auto code = pq.encode(data.row(i));
    const float approx = ProductQuantizer::query(table, code, cfg.num_prototypes);
    float exact = 0.0f;
    for (std::size_t j = 0; j < 8; ++j) exact += data.at(i, j) * w[j];
    max_err = std::max(max_err, static_cast<double>(std::fabs(approx - exact)));
  }
  EXPECT_LT(max_err, 1.5);  // bounded by quantization error * |w|
}

class PqPrototypeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PqPrototypeSweep, ErrorShrinksAsPrototypesGrow) {
  // Property: average quantization error with K prototypes is no worse than
  // with K/4 prototypes (monotone improvement, Fig. 8's mechanism).
  const std::size_t k = GetParam();
  nn::Tensor data = nn::Tensor::randn({600, 8}, 1.0f, 10);
  auto avg_err = [&](std::size_t protos) {
    PqConfig cfg;
    cfg.num_subspaces = 2;
    cfg.num_prototypes = protos;
    ProductQuantizer pq(data, cfg);
    double err = 0.0;
    for (std::size_t i = 0; i < 200; ++i) {
      const auto rec = pq.reconstruct(data.row(i));
      for (std::size_t j = 0; j < 8; ++j) {
        err += (rec[j] - data.at(i, j)) * (rec[j] - data.at(i, j));
      }
    }
    return err;
  };
  EXPECT_LE(avg_err(k), avg_err(std::max<std::size_t>(1, k / 4)) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Ks, PqPrototypeSweep, ::testing::Values(8, 16, 32, 64));

TEST(ProductQuantizer, RejectsIndivisibleSubspaces) {
  nn::Tensor data({10, 7});
  PqConfig cfg;
  cfg.num_subspaces = 2;
  EXPECT_THROW(ProductQuantizer(data, cfg), std::invalid_argument);
}

TEST(ProductQuantizer, EncodeAllMatchesEncode) {
  nn::Tensor data = clustered_data(64, 4, 4, 11);
  PqConfig cfg;
  cfg.num_subspaces = 2;
  cfg.num_prototypes = 4;
  ProductQuantizer pq(data, cfg);
  const auto codes = pq.encode_all(data);
  for (std::size_t i = 0; i < 64; ++i) {
    const auto one = pq.encode(data.row(i));
    for (std::size_t c = 0; c < 2; ++c) EXPECT_EQ(codes[i * 2 + c], one[c]);
  }
}

}  // namespace
}  // namespace dart::pq
