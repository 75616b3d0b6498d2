#include "pq/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "pq/kmeans.hpp"

namespace dart::pq {

ExactEncoder::ExactEncoder(nn::Tensor prototypes) : prototypes_(std::move(prototypes)) {
  if (prototypes_.ndim() != 2) throw std::invalid_argument("ExactEncoder: prototypes must be 2-D");
  const std::size_t k = prototypes_.dim(0), v = prototypes_.dim(1);
  kp_ = (k + kLanes - 1) / kLanes * kLanes;
  transposed_.assign(v * kp_, 0.0f);
  half_norms_.assign(kp_, std::numeric_limits<float>::infinity());
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = prototypes_.row(c);
    float acc = 0.0f;
    for (std::size_t j = 0; j < v; ++j) {
      acc += p[j] * p[j];
      transposed_[j * kp_ + c] = p[j];
    }
    half_norms_[c] = 0.5f * acc;
  }
}

namespace {

/// Nearest prototype for `R` rows at once (rows `row_stride` floats apart,
/// codes `code_stride` apart): every block of kLanes transposed prototypes
/// is loaded once for all R rows. Each lane keeps its own running best with
/// strict `<` over ascending blocks; the final cross-lane pick takes the
/// lowest score and, among equal scores, the lowest prototype index. That is
/// the ascending strict-`<` scalar scan: a lane never updated still holds
/// (FLT_MAX, UINT32_MAX) and loses to the initial (FLT_MAX, 0).
///
/// The lane loops carry `#pragma GCC unroll 1`: left to itself GCC fully
/// unrolls them before the vectorizer runs and then emits kLanes scalar
/// FMA chains, which measured 3-10x slower than the vectorized lanes.
template <std::size_t R>
void nearest_rows(const float* transposed, const float* half_norms, std::size_t kp,
                  std::size_t v, const float* rows, std::size_t row_stride,
                  std::uint32_t* codes_out, std::size_t code_stride) {
  constexpr std::size_t L = ExactEncoder::kLanes;
  float best_d[R][L];
  std::uint32_t best_c[R][L];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t l = 0; l < L; ++l) {
      best_d[r][l] = std::numeric_limits<float>::max();
      best_c[r][l] = std::numeric_limits<std::uint32_t>::max();
    }
  }
  for (std::size_t c0 = 0; c0 < kp; c0 += L) {
    float acc[R][L] = {};
    for (std::size_t j = 0; j < v; ++j) {
      const float* p = transposed + j * kp + c0;
      for (std::size_t r = 0; r < R; ++r) {
        const float x = rows[r * row_stride + j];
#pragma GCC unroll 1
        for (std::size_t l = 0; l < L; ++l) acc[r][l] += x * p[l];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 1
      for (std::size_t l = 0; l < L; ++l) {
        const float d = half_norms[c0 + l] - acc[r][l];
        const bool lt = d < best_d[r][l];
        best_d[r][l] = lt ? d : best_d[r][l];
        best_c[r][l] = lt ? static_cast<std::uint32_t>(c0 + l) : best_c[r][l];
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float d = std::numeric_limits<float>::max();
    std::uint32_t code = 0;
    for (std::size_t l = 0; l < L; ++l) {
      if (best_d[r][l] < d || (best_d[r][l] == d && best_c[r][l] < code)) {
        d = best_d[r][l];
        code = best_c[r][l];
      }
    }
    codes_out[r * code_stride] = code;
  }
}

}  // namespace

std::uint32_t ExactEncoder::encode(const float* row) const {
  std::uint32_t code = 0;
  encode_batch(row, 0, 1, &code, 1);
  return code;
}

void ExactEncoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                                std::uint32_t* codes_out, std::size_t code_stride) const {
  constexpr std::size_t kRows = 4;
  const std::size_t v = prototypes_.dim(1);
  const float* pt = transposed_.data();
  const float* hn = half_norms_.data();
  std::size_t i = 0;
  for (; i + kRows <= n; i += kRows) {
    nearest_rows<kRows>(pt, hn, kp_, v, rows + i * row_stride, row_stride,
                        codes_out + i * code_stride, code_stride);
  }
  for (; i < n; ++i) {
    nearest_rows<1>(pt, hn, kp_, v, rows + i * row_stride, row_stride,
                    codes_out + i * code_stride, code_stride);
  }
}

HashTreeEncoder::HashTreeEncoder(const nn::Tensor& prototypes) {
  if (prototypes.ndim() != 2) throw std::invalid_argument("HashTreeEncoder: prototypes must be 2-D");
  k_ = prototypes.dim(0);
  v_ = prototypes.dim(1);
  depth_ = 0;
  while ((1ULL << depth_) < k_) ++depth_;
  // Full heap with 2^depth leaves.
  const std::size_t node_count = (1ULL << (depth_ + 1)) - 1;
  hot_.assign(node_count, HotNode{});
  protos_.assign(node_count, -1);
  std::vector<std::uint32_t> all(k_);
  std::iota(all.begin(), all.end(), 0);
  build(std::move(all), prototypes, 0);
  // Uniform iff no leaf sits above the last level.
  uniform_ = true;
  const std::size_t internal = (1ULL << depth_) - 1;
  for (std::size_t i = 0; i < internal; ++i) {
    if (protos_[i] >= 0) {
      uniform_ = false;
      break;
    }
  }
}

HashTreeEncoder::HashTreeEncoder(std::vector<HotNode> nodes, std::vector<std::int32_t> leaves,
                                 std::size_t k, std::size_t v)
    : hot_(std::move(nodes)), protos_(std::move(leaves)), k_(k), v_(v) {
  if (k_ == 0 || v_ == 0) throw std::invalid_argument("HashTreeEncoder: empty tree");
  while ((1ULL << depth_) < k_) ++depth_;
  const std::size_t node_count = (1ULL << (depth_ + 1)) - 1;
  if (hot_.size() != node_count || protos_.size() != node_count) {
    throw std::invalid_argument("HashTreeEncoder: node arrays do not match prototype count");
  }
  // Walk safety: every reachable node must either be a valid leaf or an
  // internal node with a valid split dimension and in-bounds children.
  // Iterative DFS over the (at most node_count) reachable slots.
  std::vector<std::size_t> stack = {0};
  while (!stack.empty()) {
    const std::size_t idx = stack.back();
    stack.pop_back();
    const std::int32_t leaf = protos_[idx];
    if (leaf >= 0) {
      if (static_cast<std::size_t>(leaf) >= k_) {
        throw std::invalid_argument("HashTreeEncoder: leaf prototype id out of range");
      }
      continue;
    }
    if (2 * idx + 2 >= node_count) {
      throw std::invalid_argument("HashTreeEncoder: walk escapes the node heap");
    }
    if (hot_[idx].split_dim >= v_) {
      throw std::invalid_argument("HashTreeEncoder: split dimension out of range");
    }
    stack.push_back(2 * idx + 1);
    stack.push_back(2 * idx + 2);
  }
  uniform_ = true;
  const std::size_t internal = (1ULL << depth_) - 1;
  for (std::size_t i = 0; i < internal; ++i) {
    if (protos_[i] >= 0) {
      uniform_ = false;
      break;
    }
  }
}

void HashTreeEncoder::build(std::vector<std::uint32_t> protos, const nn::Tensor& prototypes,
                            std::size_t node_idx) {
  if (protos.size() == 1 || 2 * node_idx + 2 >= protos_.size()) {
    protos_[node_idx] = static_cast<std::int32_t>(protos.front());
    return;
  }
  // Pick the dimension with the largest variance among this node's protos.
  std::size_t best_dim = 0;
  double best_var = -1.0;
  for (std::size_t d = 0; d < v_; ++d) {
    double mean = 0.0;
    for (auto p : protos) mean += prototypes.at(p, d);
    mean /= static_cast<double>(protos.size());
    double var = 0.0;
    for (auto p : protos) {
      const double diff = prototypes.at(p, d) - mean;
      var += diff * diff;
    }
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  // Median split (by sorted order, so ties still split evenly).
  std::sort(protos.begin(), protos.end(), [&](std::uint32_t a, std::uint32_t b) {
    return prototypes.at(a, best_dim) < prototypes.at(b, best_dim);
  });
  const std::size_t mid = protos.size() / 2;
  hot_[node_idx].split_dim = static_cast<std::uint32_t>(best_dim);
  hot_[node_idx].threshold =
      0.5f * (prototypes.at(protos[mid - 1], best_dim) + prototypes.at(protos[mid], best_dim));
  protos_[node_idx] = -1;
  std::vector<std::uint32_t> left(protos.begin(), protos.begin() + mid);
  std::vector<std::uint32_t> right(protos.begin() + mid, protos.end());
  build(std::move(left), prototypes, 2 * node_idx + 1);
  build(std::move(right), prototypes, 2 * node_idx + 2);
}

std::uint32_t HashTreeEncoder::encode(const float* row) const {
  const HotNode* hot = hot_.data();
  if (uniform_) {
    // Branchless fixed-depth walk: the step direction is an integer add.
    std::size_t idx = 0;
    for (std::size_t l = 0; l < depth_; ++l) {
      const HotNode nd = hot[idx];
      idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
    }
    return static_cast<std::uint32_t>(protos_[idx]);
  }
  std::size_t idx = 0;
  while (protos_[idx] < 0) {
    const HotNode nd = hot[idx];
    idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
  }
  return static_cast<std::uint32_t>(protos_[idx]);
}

void HashTreeEncoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                                   std::uint32_t* codes_out, std::size_t code_stride) const {
  const HotNode* hot = hot_.data();
  const std::int32_t* leaf = protos_.data();
  if (uniform_) {
    // Level-synchronous walk over chunks of rows: the ~depth_ dependent
    // loads of different rows interleave, hiding each other's latency.
    constexpr std::size_t kChunk = 16;
    std::size_t idx[kChunk];
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
      const std::size_t c = std::min(kChunk, n - i0);
      for (std::size_t j = 0; j < c; ++j) idx[j] = 0;
      for (std::size_t l = 0; l < depth_; ++l) {
        for (std::size_t j = 0; j < c; ++j) {
          const HotNode nd = hot[idx[j]];
          const float x = rows[(i0 + j) * row_stride + nd.split_dim];
          idx[j] = 2 * idx[j] + 1 + static_cast<std::size_t>(x > nd.threshold);
        }
      }
      for (std::size_t j = 0; j < c; ++j) {
        codes_out[(i0 + j) * code_stride] = static_cast<std::uint32_t>(leaf[idx[j]]);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = rows + i * row_stride;
    std::size_t idx = 0;
    while (leaf[idx] < 0) {
      const HotNode nd = hot[idx];
      idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
    }
    codes_out[i * code_stride] = static_cast<std::uint32_t>(leaf[idx]);
  }
}

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, const nn::Tensor& prototypes) {
  switch (kind) {
    case EncoderKind::kExact:
      return std::make_unique<ExactEncoder>(prototypes);
    case EncoderKind::kHashTree:
      return std::make_unique<HashTreeEncoder>(prototypes);
  }
  throw std::invalid_argument("make_encoder: unknown kind");
}

}  // namespace dart::pq
