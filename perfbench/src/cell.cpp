// Cell phase: one paper pipeline cell end to end at reduced scale, through
// the public core::Pipeline stages — trace generation and LLC extraction,
// teacher training, the distilled student, dart() (k-means tabularization
// plus fine-tuning, default exact encoders), F1 on the held-out split, and
// replay of baseline, BO and DART through sim::Simulator. The cell repeats
// while time remains; every repetition must reproduce the first one's IPC
// and F1 exactly.
//
// The cell's inputs are one fixed configuration per workload, not drawn
// from the run's seed: its simulated IPC gains and F1 are exact, and only
// values that are the same on every run can carry a bound tight enough to
// catch the loss of DART's sub-1% IPC gain.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/configs.hpp"
#include "core/pipeline.hpp"
#include "phases.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tabular/complexity.hpp"

namespace perfbench {

namespace {

namespace tb = dart::tabular;

/// Seed of the cell's trace, training and tabularization.
constexpr std::uint64_t kCellSeed = 1;

/// Reduced-scale cell: the paper student and DART tables, a small teacher,
/// and few samples and epochs, so one cell takes seconds.
dart::core::PipelineOptions cell_options() {
  dart::core::PipelineOptions o;
  o.prep = dart::core::default_preprocess();
  // 900 training and 900 held-out windows: the F1 of a smaller test split
  // swings with the seed.
  o.prep.max_samples = 1800;
  o.train_frac = 0.5;
  o.teacher_arch = dart::core::paper_student_config();
  o.teacher_arch.dim = 48;
  o.teacher_arch.heads = 2;
  o.teacher_arch.ffn_dim = 96;
  o.student_arch = dart::core::paper_student_config();
  o.teacher_train.epochs = 3;
  o.teacher_train.batch_size = 64;
  o.teacher_train.lr = 1e-3f;
  o.student_train = o.teacher_train;
  o.kd.temperature = 2.0f;
  o.kd.lambda = 0.5f;
  o.tab.tables = dart::core::dart_table_config();
  o.tab.max_train_samples = 400;
  o.raw_accesses = 20000;
  o.seed = dart::common::derive_seed(kCellSeed, 400);
  return o;
}

/// The deployed DART adapter, counting the predictions it makes: the
/// prediction path of prefetch::DartPrefetcher plus one increment.
class CountingDart final : public dart::prefetch::NnPrefetcherBase {
 public:
  CountingDart(std::shared_ptr<const tb::TabularPredictor> model,
               const dart::prefetch::NnAdapterOptions& options)
      : NnPrefetcherBase(options), model_(std::move(model)) {}
  std::size_t storage_bytes() const override { return model_->storage_bytes(); }
  std::string name() const override { return "DART"; }
  std::uint64_t predictions = 0;

 protected:
  dart::nn::Tensor predict(const dart::nn::Tensor& addr, const dart::nn::Tensor& pc) override {
    ++predictions;
    return model_->forward(addr, pc);
  }

 private:
  std::shared_ptr<const tb::TabularPredictor> model_;
};

struct CellResult {
  double cell_s = 0.0;
  double prepare_s = 0.0, teacher_s = 0.0, distill_s = 0.0, build_s = 0.0, eval_s = 0.0;
  double base_s = 0.0, bo_s = 0.0, dart_s = 0.0;
  dart::sim::SimStats base, bo, dart;
  double f1 = 0.0;
  std::uint64_t predictions = 0;
};

double since_s(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

CellResult run_one(const RunOptions& opts, Tracer& tracer) {
  CellResult r;
  const dart::core::PipelineOptions o = cell_options();
  const std::uint64_t t_cell = now_ns();
  Scope cell_span(tracer, "core.cell");
  dart::core::Pipeline pipe(cell_workload(opts.workload), o);
  std::uint64_t t0 = now_ns();
  {
    Scope s(tracer, "core.prepare");
    pipe.prepare();
  }
  r.prepare_s = since_s(t0);
  t0 = now_ns();
  {
    Scope s(tracer, "nn.teacher");
    pipe.teacher();
  }
  r.teacher_s = since_s(t0);
  t0 = now_ns();
  {
    Scope s(tracer, "nn.distill");
    pipe.student();
  }
  r.distill_s = since_s(t0);
  t0 = now_ns();
  const tb::TabularPredictor* model = nullptr;
  {
    Scope s(tracer, "tabular.build");
    model = &pipe.dart();
  }
  r.build_s = since_s(t0);
  t0 = now_ns();
  {
    Scope s(tracer, "core.eval");
    r.f1 = pipe.eval_tabular(*model).f1;
  }
  r.eval_s = since_s(t0);

  dart::sim::Simulator sim(o.sim);
  const dart::trace::MemoryTrace& raw = pipe.raw_trace();
  t0 = now_ns();
  {
    Scope s(tracer, "sim.cell.baseline");
    r.base = sim.run(raw, nullptr);
  }
  r.base_s = since_s(t0);
  t0 = now_ns();
  {
    Scope s(tracer, "sim.cell.bo");
    auto bo = dart::sim::make_prefetcher("bo");
    r.bo = sim.run(raw, bo.get());
  }
  r.bo_s = since_s(t0);

  // The pipeline owns the model and outlives the replay: a non-owning handle.
  const std::shared_ptr<const tb::TabularPredictor> handle(model, [](const tb::TabularPredictor*) {});
  dart::prefetch::NnAdapterOptions ao;
  ao.prep = o.prep;
  ao.degree = o.sim.max_degree;
  ao.latency = tb::tabular_model_cost(o.student_arch, o.tab.tables).latency_cycles;
  t0 = now_ns();
  {
    Scope s(tracer, "sim.cell.dart");
    CountingDart pf(handle, ao);
    r.dart = sim.run(raw, &pf);
    r.predictions = pf.predictions;
  }
  r.dart_s = since_s(t0);
  r.cell_s = since_s(t_cell);
  return r;
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class CellPhase final : public Phase {
 public:
  CellPhase(const RunOptions& opts, Tracer& tracer) : opts_(opts), tracer_(tracer) {}

  /// Runs whole cells while the phase has spent less than its budget so
  /// far (a cell lasts seconds, so a round may run none); at least three
  /// cells over the run.
  void run(double budget_s, bool last) override {
    owed_s_ += budget_s;
    while (spent_s_ < owed_s_ || (last && cells_.size() < 3)) {
      const std::uint64_t t0 = now_ns();
      cells_.push_back(run_one(opts_, tracer_));
      spent_s_ += static_cast<double>(now_ns() - t0) / 1e9;
      if (opts_.corrupt == "cell" && cells_.size() == 2) cells_.back().f1 += 1.0;
      const CellResult& c = cells_.back();
      const CellResult& first = cells_.front();
      if (c.f1 != first.f1 || stats_key(c.base) != stats_key(first.base) ||
          stats_key(c.bo) != stats_key(first.bo) || stats_key(c.dart) != stats_key(first.dart)) {
        ++failed_;
      }
    }
  }

  void report() override;

 private:
  const RunOptions& opts_;
  Tracer& tracer_;
  std::vector<CellResult> cells_;
  std::uint64_t failed_ = 0;
  double owed_s_ = 0.0, spent_s_ = 0.0;
};

void CellPhase::report() {
  const std::vector<CellResult>& cells = cells_;
  const RunOptions& opts = opts_;
  auto values = [&cells](double CellResult::*field) {
    std::vector<double> v;
    for (const CellResult& c : cells) v.push_back(c.*field);
    return v;
  };
  auto med = [&values](double CellResult::*field) { return median(values(field)); };
  const CellResult& c = cells.front();
  const double dart_gain = c.dart.ipc() / c.base.ipc();
  const double bo_gain = c.bo.ipc() / c.base.ipc();
  const double cell_s = second_lowest(values(&CellResult::cell_s));
  std::printf("note cell: %zu cells, second-fastest %.3f s, median %.3f s; baseline ipc %.6f, bo "
              "%.6f, dart %.6f, dart f1 %.6f\n",
              cells.size(), cell_s, med(&CellResult::cell_s),
              c.base.ipc(), c.bo.ipc(), c.dart.ipc(), c.f1);
  // The second-fastest cell: a cell lasts seconds, and the machine's slow
  // stretches last about as long, so the median wanders between runs.
  metric("cell_s", cell_s, "s");
  metric("dart_ipc_gain", dart_gain, "x");
  metric("bo_ipc_gain", bo_gain, "x");
  metric("dart_f1", c.f1, "ratio");
  exact("cell.dart_ipc_gain", g17(dart_gain));
  exact("cell.bo_ipc_gain", g17(bo_gain));
  exact("cell.dart_f1", g17(c.f1));

  if (opts.trace) {
    metric("core.prepare_s", med(&CellResult::prepare_s), "s");
    metric("nn.teacher_s", med(&CellResult::teacher_s), "s");
    metric("nn.distill_s", med(&CellResult::distill_s), "s");
    metric("tabular.build_s", med(&CellResult::build_s), "s");
    metric("core.eval_s", med(&CellResult::eval_s), "s");
    metric("sim.cell.baseline.replay_s", med(&CellResult::base_s), "s");
    metric("sim.cell.bo.replay_s", med(&CellResult::bo_s), "s");
    metric("sim.cell.dart.replay_s", med(&CellResult::dart_s), "s");
    metric("prefetch.dart_predictions", static_cast<double>(c.predictions), "count");
    metric("prefetch.dart_predict_us",
           (med(&CellResult::dart_s) - med(&CellResult::base_s)) * 1e6 /
               static_cast<double>(std::max<std::uint64_t>(1, c.predictions)),
           "us");
    metric("prefetch.cell_bo.useful_ratio", c.bo.accuracy(), "ratio");
    metric("prefetch.cell_dart.useful_ratio", c.dart.accuracy(), "ratio");
  }
  ops("cell", cells.size(), failed_);
}

}  // namespace

std::unique_ptr<Phase> make_cell_phase(const RunOptions& opts, Tracer& tracer) {
  return std::make_unique<CellPhase>(opts, tracer);
}

}  // namespace perfbench
