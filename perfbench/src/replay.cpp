// Replay phase: the trace-replay simulator with the NN-free prefetchers
// (baseline, stride, BO, ISB) over the workload's traces. Each pass replays
// every trace under every prefetcher with fresh prefetcher state; the
// summed SimStats of every pass must equal the first pass's exactly.
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "phases.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

namespace ds = dart::sim;

constexpr const char* kPrefetchers[] = {"baseline", "stride", "bo", "isb"};
constexpr std::size_t kNumPf = 4;

void add(ds::SimStats& a, const ds::SimStats& b) {
  a.instructions += b.instructions;
  a.cycles += b.cycles;
  a.llc_accesses += b.llc_accesses;
  a.llc_hits += b.llc_hits;
  a.llc_demand_misses += b.llc_demand_misses;
  a.pf_issued += b.pf_issued;
  a.pf_useful += b.pf_useful;
  a.pf_late += b.pf_late;
  a.pf_dropped += b.pf_dropped;
}

class ReplayPhase final : public Phase {
 public:
  ReplayPhase(const RunOptions& opts, const Setup& st, Tracer& tracer)
      : opts_(opts), st_(st), tracer_(tracer), sim_(ds::SimConfig{}), pf_s_(kNumPf),
        unit_s_(kNumPf, std::vector<std::vector<double>>(st.replay_traces.size())),
        first_(kNumPf), first_stats_(kNumPf) {}

  /// Replays whole passes while the round's time lasts (at least one, and
  /// at least three over the run).
  void run(double budget_s, bool last) override {
    const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    do {
      pass();
    } while (now_ns() < stop || (last && passes_ < 3));
  }

  void report() override;

 private:
  void pass() {
    for (std::size_t p = 0; p < kNumPf; ++p) {
      ds::SimStats total;
      const std::uint64_t t0 = now_ns();
      {
        Scope span(tracer_, "sim.replay");
        for (std::size_t t = 0; t < st_.replay_traces.size(); ++t) {
          const std::uint64_t u0 = now_ns();
          if (p == 0) {
            add(total, sim_.run(st_.replay_traces[t], nullptr, ws_));
          } else {
            auto pf = ds::make_prefetcher(kPrefetchers[p]);
            add(total, sim_.run(st_.replay_traces[t], pf.get(), ws_));
          }
          unit_s_[p][t].push_back(static_cast<double>(now_ns() - u0) / 1e9);
        }
      }
      pf_s_[p].push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (opts_.corrupt == "replay" && pf_s_[p].size() == 2) ++total.cycles;
      const std::string key = stats_key(total);
      ++attempted_;
      if (first_[p].empty()) {
        first_[p] = key;
        first_stats_[p] = total;
      } else if (key != first_[p]) {
        ++failed_;
      }
    }
    ++passes_;
  }

  const RunOptions& opts_;
  const Setup& st_;
  Tracer& tracer_;
  ds::Simulator sim_;
  ds::SimWorkspace ws_;
  std::vector<std::vector<double>> pf_s_;  ///< pass time per prefetcher
  /// unit_s_[p][t]: every replay time of trace t under prefetcher p.
  std::vector<std::vector<std::vector<double>>> unit_s_;
  std::vector<std::string> first_;
  std::vector<ds::SimStats> first_stats_;
  std::size_t passes_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

void ReplayPhase::report() {
  std::size_t accesses = 0;
  for (const auto& t : st_.replay_traces) accesses += t.size();
  // Each (prefetcher, trace) replay counts at its fastest time: the
  // machine's speed changes over seconds (shared cores), and the fast-mode
  // time repeats across runs where a median does not.
  double fast_s = 0.0;
  for (const auto& per_pf : unit_s_) {
    for (const std::vector<double>& v : per_pf) fast_s += *std::min_element(v.begin(), v.end());
  }
  const double maccess = static_cast<double>(accesses * kNumPf) / fast_s / 1e6;
  std::vector<double> all_s;
  for (const auto& v : pf_s_) all_s.insert(all_s.end(), v.begin(), v.end());
  std::printf("note replay: %zu passes of %zu accesses x %zu prefetchers, %.2f Maccess/s "
              "(whole-run %.2f)\n",
              passes_, accesses, kNumPf, maccess,
              static_cast<double>(accesses * kNumPf * passes_) /
                  std::accumulate(all_s.begin(), all_s.end(), 0.0) / 1e6);
  metric("replay_maccess_s", maccess, "M/s");
  for (std::size_t p = 0; p < kNumPf; ++p) exact(std::string("replay.") + kPrefetchers[p], first_[p]);

  if (opts_.trace) {
    for (std::size_t p = 0; p < kNumPf; ++p) {
      const std::string n = std::string("sim.") + kPrefetchers[p] + ".";
      const double s = median(pf_s_[p]);
      const ds::SimStats& st_p = first_stats_[p];
      metric(n + "replay_s", s, "s");
      metric(n + "maccess_s", static_cast<double>(accesses) / s / 1e6, "M/s");
      metric(n + "cycles", static_cast<double>(st_p.cycles), "count");
      metric(n + "llc_hits", static_cast<double>(st_p.llc_hits), "count");
      metric(n + "llc_demand_misses", static_cast<double>(st_p.llc_demand_misses), "count");
      if (p == 0) continue;
      metric(n + "pf_issued", static_cast<double>(st_p.pf_issued), "count");
      metric(n + "pf_useful", static_cast<double>(st_p.pf_useful), "count");
      metric(n + "pf_late", static_cast<double>(st_p.pf_late), "count");
      metric(std::string("prefetch.") + kPrefetchers[p] + ".useful_ratio", st_p.accuracy(),
             "ratio");
    }
  }
  ops("replay", attempted_, failed_);
}

}  // namespace

std::string stats_key(const ds::SimStats& s) {
  return std::to_string(s.instructions) + "," + std::to_string(s.cycles) + "," +
         std::to_string(s.llc_accesses) + "," + std::to_string(s.llc_hits) + "," +
         std::to_string(s.llc_demand_misses) + "," + std::to_string(s.pf_issued) + "," +
         std::to_string(s.pf_useful) + "," + std::to_string(s.pf_late) + "," +
         std::to_string(s.pf_dropped);
}

std::unique_ptr<Phase> make_replay_phase(const RunOptions& opts, const Setup& st,
                                         Tracer& tracer) {
  return std::make_unique<ReplayPhase>(opts, st, tracer);
}

}  // namespace perfbench
