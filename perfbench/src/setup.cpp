#include "setup.hpp"

#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/configs.hpp"
#include "synthetic_model.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace dt = dart::trace;

std::vector<dt::Workload> workload_traces(const std::string& workload) {
  if (workload == "apps") {
    std::vector<dt::Workload> out;
    for (dt::App app : dt::all_apps()) out.emplace_back(app);
    return out;
  }
  if (workload == "ycsb") {
    return {dt::Workload::parse("trace:zipfian"), dt::Workload::parse("trace:ycsb-b")};
  }
  throw std::invalid_argument("unknown workload '" + workload + "' (expected apps or ycsb)");
}

dt::Workload cell_workload(const std::string& workload) {
  if (workload == "apps") return dt::Workload(dt::App::kMilc);
  // YCSB-E (short scans): the corpus family on which the deployed DART
  // prefetches at all; on zipfian and ycsb-b it learns to stay silent.
  if (workload == "ycsb") return dt::Workload::parse("trace:ycsb-e");
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

namespace {

constexpr std::size_t kPoolSamples = 4096;
// Replay inputs: about half a million accesses per workload, split evenly
// over its traces, so both workloads replay the same amount of work.
constexpr std::size_t kReplayAccesses = 480000;

/// Fills the pool with [T, S] history windows taken at seeded positions of
/// the traces, round-robin (the segmentation the serving front-end uses).
void fill_pool(FeaturePool& pool, const std::vector<dt::MemoryTrace>& traces,
               const dt::PreprocessOptions& prep, std::uint64_t seed) {
  pool.n = kPoolSamples;
  pool.t = prep.history;
  pool.sa = prep.addr_segments;
  pool.sp = prep.pc_segments;
  pool.out = prep.bitmap_size;
  pool.addr.assign(pool.n * pool.t * pool.sa, 0.0f);
  pool.pc.assign(pool.n * pool.t * pool.sp, 0.0f);
  dart::common::Rng rng(seed);
  for (std::size_t s = 0; s < pool.n; ++s) {
    const dt::MemoryTrace& tr = traces[s % traces.size()];
    if (tr.size() <= pool.t) throw std::runtime_error("trace too short for a feature window");
    const std::size_t off = rng.below(tr.size() - pool.t);
    for (std::size_t t = 0; t < pool.t; ++t) {
      const dt::MemoryAccess& a = tr[off + t];
      dt::segment_value(dt::block_of(a.addr), pool.sa, prep.segment_bits,
                        pool.addr.data() + (s * pool.t + t) * pool.sa);
      dt::segment_value(a.pc >> 2, pool.sp, prep.segment_bits,
                        pool.pc.data() + (s * pool.t + t) * pool.sp);
    }
  }
}

double ms_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

}  // namespace

dart::tabular::TabularArch block_arch(const dart::tabular::TabularPredictor& model) {
  dart::tabular::TabularArch ta = model.tabular_arch();
  ta.float_slots *= 16;
  ta.code_slots *= 16;
  return ta;
}

void forward_pool(const dart::tabular::TabularPredictor& model, const FeaturePool& pool,
                  std::vector<float>& out) {
  out.assign(pool.n * pool.out, 0.0f);
  dart::tabular::InferenceWorkspace ws(block_arch(model));
  for (std::size_t s = 0; s < pool.n; s += 16) {
    model.forward_block_into(pool.addr_of(s), pool.pc_of(s), 16, out.data() + s * pool.out, ws);
  }
}

Setup build_setup(const RunOptions& opts, Tracer& tracer) {
  Setup st;
  const dt::PreprocessOptions prep = dart::core::default_preprocess();
  const std::vector<dt::Workload> specs = workload_traces(opts.workload);

  std::uint64_t t0 = now_ns();
  {
    Scope span(tracer, "trace.generate");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      st.replay_traces.push_back(specs[i].generate(
          kReplayAccesses / specs.size(), dart::common::derive_seed(opts.seed, 100 + i)));
    }
  }
  st.generate_s = ms_since(t0) / 1e3;

  {
    Scope span(tracer, "trace.features");
    fill_pool(st.pool, st.replay_traces, prep, dart::common::derive_seed(opts.seed, 200));
  }

  // The deployed configuration: the paper student over hash-tree encoders,
  // saved as a `.dart` artifact and served from the reloaded copy.
  st.artifact_path = opts.out_dir + "/perfbench-" + opts.workload + "-" +
                     std::to_string(opts.seed) + "-" + std::to_string(getpid()) + ".dart";
  {
    dart::tabular::TabularPredictor built = [&] {
      Scope span(tracer, "tabular.synthetic_build");
      return dart::bench::synthetic_predictor(dart::core::paper_student_config());
    }();
    t0 = now_ns();
    {
      Scope span(tracer, "io.save");
      built.save(st.artifact_path);
    }
    st.save_ms = ms_since(t0);
  }
  t0 = now_ns();
  {
    Scope span(tracer, "io.load");
    st.model = std::make_shared<const dart::tabular::TabularPredictor>(
        dart::tabular::TabularPredictor::load(st.artifact_path));
  }
  st.load_ms = ms_since(t0);
  {
    Scope span(tracer, "io.load");
    auto twin = std::make_shared<dart::tabular::TabularPredictor>(
        dart::tabular::TabularPredictor::load(st.artifact_path));
    twin->set_quant_mode(dart::tabular::QuantMode::kInt8);
    st.int8 = std::move(twin);
  }

  {
    Scope span(tracer, "tabular.reference");
    forward_pool(*st.model, st.pool, st.pool.ref);
    forward_pool(*st.int8, st.pool, st.pool.ref_int8);
  }
  return st;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
