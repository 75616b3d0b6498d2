// Tests for model checkpointing and the fused multi-layer table (the
// paper's §VIII future-work feature).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "nn/transformer.hpp"
#include "tabular/complexity.hpp"
#include "tabular/fused_kernel.hpp"

namespace dart {
namespace {

nn::ModelConfig tiny_arch() {
  nn::ModelConfig a;
  a.seq_len = 4;
  a.addr_dim = 4;
  a.pc_dim = 4;
  a.dim = 8;
  a.ffn_dim = 16;
  a.out_dim = 12;
  a.heads = 2;
  a.layers = 1;
  return a;
}

TEST(Serialize, RoundTripsAddressPredictor) {
  const std::string path = "/tmp/dart_ckpt_roundtrip.bin";
  nn::AddressPredictor a(tiny_arch(), 3);
  ASSERT_TRUE(nn::save_model(a, path));
  nn::AddressPredictor b(tiny_arch(), 99);  // different init
  nn::load_model(b, path);
  nn::Tensor addr = nn::Tensor::randn({2, 4, 4}, 0.5f, 5);
  nn::Tensor pc = nn::Tensor::randn({2, 4, 4}, 0.5f, 6);
  nn::Tensor ya = a.forward(addr, pc);
  nn::Tensor yb = b.forward(addr, pc);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsWrongArchitecture) {
  const std::string path = "/tmp/dart_ckpt_badarch.bin";
  nn::AddressPredictor a(tiny_arch(), 3);
  ASSERT_TRUE(nn::save_model(a, path));
  nn::ModelConfig other = tiny_arch();
  other.dim = 16;  // different shapes
  nn::AddressPredictor b(other, 3);
  EXPECT_THROW(nn::load_model(b, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsMissingAndCorruptFiles) {
  nn::AddressPredictor a(tiny_arch(), 3);
  EXPECT_THROW(nn::load_model(a, "/tmp/does_not_exist_dart.bin"), std::runtime_error);
  const std::string path = "/tmp/dart_ckpt_corrupt.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_THROW(nn::load_model(a, path), std::runtime_error);
  std::remove(path.c_str());
}

/// Overwrites the u64 at byte `offset` of `path` with `value`.
void patch_u64(const std::string& path, long offset, std::uint64_t value) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
  std::fclose(f);
}

TEST(Serialize, RejectsCorruptedLengthFieldsBeforeAllocating) {
  // Layout: u32 magic, u64 count, then per parameter u64 name_len, name,
  // u64 ndim, ndim × u64 dims, payload. A 1 TiB length must be a typed
  // error, not std::bad_alloc (or an abort under ASan).
  const std::string path = "/tmp/dart_ckpt_badlen.bin";
  nn::AddressPredictor a(tiny_arch(), 3);
  const std::string& first = a.params().front()->name;
  const long name_len_at = 4 + 8;
  const long ndim_at = name_len_at + 8 + static_cast<long>(first.size());
  for (long offset : {name_len_at, ndim_at}) {
    ASSERT_TRUE(nn::save_model(a, path));
    patch_u64(path, offset, std::uint64_t{1} << 40);
    EXPECT_THROW(nn::load_model(a, path), std::runtime_error) << "field at byte " << offset;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------- FusedKernel

TEST(FusedKernel, ExactOnPrototypeInputs) {
  // Identity stack: table rows are the prototypes themselves; querying a
  // training point equal to a prototype must return it exactly.
  nn::Tensor rows({8, 4});
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) rows.at(i, j) = static_cast<float>(i * 7 + j);
  }
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 8;
  cfg.kmeans_iters = 25;
  tabular::FusedKernel fused(4, 4, [](const nn::Tensor& x) { return x; }, rows, cfg);
  nn::Tensor out = fused.query(rows);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_NEAR(out[i], rows[i], 1e-3f);
}

TEST(FusedKernel, ApproximatesAnFfnStack) {
  // Fuse hidden -> ReLU -> out into one table and compare against the exact
  // stack on held-out points drawn from the same distribution.
  nn::FeedForward ffn(6, 12, 7);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({2048, 6}, 1.0f, 8);
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 512;
  tabular::FusedKernel fused(6, 6, stack, train, cfg);
  nn::Tensor test = nn::Tensor::randn({128, 6}, 1.0f, 9);
  nn::Tensor approx = fused.query(test);
  nn::Tensor exact = ffn.forward(test);
  EXPECT_GT(nn::ops::cosine_similarity(approx, exact), 0.7);
}

TEST(FusedKernel, MoreVqPrototypesReduceError) {
  nn::FeedForward ffn(6, 12, 11);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({2048, 6}, 1.0f, 12);
  nn::Tensor test = nn::Tensor::randn({128, 6}, 1.0f, 13);
  nn::Tensor exact = ffn.forward(test);
  auto mse_for = [&](std::size_t k) {
    tabular::FusedKernelConfig cfg;
    cfg.num_prototypes = k;
    tabular::FusedKernel fused(6, 6, stack, train, cfg);
    nn::Tensor approx = fused.query(test);
    double mse = 0.0;
    for (std::size_t i = 0; i < approx.numel(); ++i) {
      const double d = approx[i] - exact[i];
      mse += d * d;
    }
    return mse;
  };
  EXPECT_LE(mse_for(512), mse_for(16) * 1.05);
}

TEST(FusedKernel, LatencyBeatsTwoChainedLinearKernels) {
  nn::FeedForward ffn(8, 16, 21);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({256, 8}, 1.0f, 22);
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 256;
  tabular::FusedKernel fused(8, 8, stack, train, cfg);
  // Two linear kernels at K=128, C=2 cost 2*(7+1+1) = 18 cycles; the fused
  // table at K=256 costs log2(256)+1 = 9.
  EXPECT_LT(fused.latency_cycles(),
            2 * tabular::linear_kernel_latency(128, 2));
}

TEST(FusedKernel, RejectsBadShapes) {
  nn::Tensor train({10, 3});
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 4;
  EXPECT_THROW(
      tabular::FusedKernel(4, 4, [](const nn::Tensor& x) { return x; }, train, cfg),
      std::invalid_argument);
}

}  // namespace
}  // namespace dart
