// The four measured phases of a benchmark run. A run interleaves them in
// rounds (main.cpp), so each phase samples the whole run rather than one
// stretch of it: the machine's speed changes over seconds, and a phase that
// ran only in a slow stretch would misreport. `run` is called once per
// round with that round's share of the phase's time; `report` then prints
// the metrics, exact outputs and op counts over all rounds in the line
// protocol of bench.hpp.
#pragma once

#include <memory>
#include <string>

#include "bench.hpp"
#include "setup.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

class Phase {
 public:
  virtual ~Phase() = default;
  /// Measures for about `budget_s`; `last` marks the final round, in which
  /// a phase completes whatever minimum work its estimators need.
  virtual void run(double budget_s, bool last) = 0;
  virtual void report() = 0;
};

/// Serial single-thread queries on the deployed predictor: batch 1, batch
/// 16, and batch 16 on the int8 twin. With tracing, a staged replay of the
/// block query splits the time by stage and must match it bit for bit.
std::unique_ptr<Phase> make_query_phase(const RunOptions& opts, const Setup& st,
                                        Tracer& tracer);

/// Open-loop Poisson load against a 2-shard PrefetchServer built from the
/// set-up artifact, over a fixed ladder of offered rates; `total_s` is the
/// phase's time over all `rounds`.
std::unique_ptr<Phase> make_serve_phase(const RunOptions& opts, const Setup& st, Tracer& tracer,
                                        double total_s, int rounds);

/// One paper pipeline cell end to end (trace, teacher, distilled student,
/// tabularization, replay of baseline / BO / DART), repeated. Its inputs
/// are fixed per workload, so its exact outputs are the same on every run.
std::unique_ptr<Phase> make_cell_phase(const RunOptions& opts, Tracer& tracer);

/// Every SimStats counter as one string: two replays agree exactly when
/// their keys are equal.
std::string stats_key(const dart::sim::SimStats& s);

/// Trace replay of the NN-free prefetchers over the workload's traces.
std::unique_ptr<Phase> make_replay_phase(const RunOptions& opts, const Setup& st,
                                         Tracer& tracer);

}  // namespace perfbench
