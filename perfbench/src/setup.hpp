// Set-up products shared by the query and serve phases: the deployed
// predictor (saved to and reloaded from a `.dart` artifact), its int8 twin,
// and a pool of feature windows drawn from the workload's traces together
// with the reference probabilities every later answer is checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "tabular/tabular_predictor.hpp"
#include "trace/preprocess.hpp"
#include "trace/workloads.hpp"

namespace perfbench {

/// [T, S] feature windows, contiguous per sample, plus reference outputs.
struct FeaturePool {
  std::size_t n = 0;       ///< samples (a multiple of 16)
  std::size_t t = 0;       ///< history length T
  std::size_t sa = 0;      ///< address segments per row
  std::size_t sp = 0;      ///< PC segments per row
  std::size_t out = 0;     ///< output width DO
  std::vector<float> addr, pc;
  std::vector<float> ref;       ///< float-table probabilities, [n, out]
  std::vector<float> ref_int8;  ///< int8-table probabilities, [n, out]

  const float* addr_of(std::size_t s) const { return addr.data() + s * t * sa; }
  const float* pc_of(std::size_t s) const { return pc.data() + s * t * sp; }
  const float* ref_of(std::size_t s) const { return ref.data() + s * out; }
  const float* ref_int8_of(std::size_t s) const { return ref_int8.data() + s * out; }
};

struct Setup {
  std::string artifact_path;  ///< the saved `.dart` the serve phase loads
  std::shared_ptr<const dart::tabular::TabularPredictor> model;  ///< float tables
  std::shared_ptr<const dart::tabular::TabularPredictor> int8;   ///< int8 twin
  FeaturePool pool;
  std::vector<dart::trace::MemoryTrace> replay_traces;  ///< replay phase inputs
  double generate_s = 0.0;  ///< trace generation time
  double save_ms = 0.0;     ///< artifact save time
  double load_ms = 0.0;     ///< artifact load time (one load)
};

/// Input traces of a workload: the workload specs its phases draw from.
std::vector<dart::trace::Workload> workload_traces(const std::string& workload);
/// The single workload a pipeline cell trains on.
dart::trace::Workload cell_workload(const std::string& workload);

/// Workspace demand of `model`'s block query over up to 16 samples.
dart::tabular::TabularArch block_arch(const dart::tabular::TabularPredictor& model);

/// Builds every set-up product for `opts` (spans into `tracer`).
Setup build_setup(const RunOptions& opts, Tracer& tracer);

/// Runs `model` over the whole pool in blocks of 16 into `out`.
void forward_pool(const dart::tabular::TabularPredictor& model, const FeaturePool& pool,
                  std::vector<float>& out);

}  // namespace perfbench
