// Shared plumbing of the repository benchmark (perfbench/README.md): run
// options, clocks, sample statistics, the in-memory span recorder and the
// line protocol the measuring program prints for perfbench/run.py.
//
// Output lines (stdout), one fact each:
//   metric <name> <value> <unit>   a measured value (end-to-end or per-layer)
//   exact <key> <value>            a deterministic output, compared to pins
//   ops <phase> <attempted> <failed>  operations tried / failed in a phase
//   note <text>                    human-readable context, ignored by run.py
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;       ///< "apps" or "ycsb"
  std::uint64_t seed = 1;     ///< workload seed: every input is drawn from it
  double seconds = 10.0;      ///< measured time, split across the phases
  bool trace = false;         ///< record spans and print per-layer metrics
  std::string out_dir = ".";  ///< span dump + temporary artifacts
  std::string corrupt;        ///< test hook: phase whose output gets corrupted
};

/// Sample statistics: a median plus the highest percentile that still has
/// at least ten samples beyond it (choosing-metrics §1).
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;       ///< p99, or the highest percentile with ten samples beyond
  std::size_t n = 0;
};

/// Percentile `q` in [0, 1] of sorted `v` (nearest rank).
inline double pct_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Median and tail of `v`; the tail is p99 when at least ten samples lie
/// beyond it, otherwise the highest percentile that keeps ten beyond.
inline Summary summarize(std::vector<double> v, double want = 0.99) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = pct_sorted(v, 0.5);
  const double n = static_cast<double>(v.size());
  double q = want;
  if (n * (1.0 - q) < 10.0) q = n > 10.0 ? (n - 10.0) / n : 0.5;
  s.tail = pct_sorted(v, q);
  return s;
}

inline double median(std::vector<double> v) { return summarize(std::move(v)).p50; }

/// The second-lowest of `v` (the lowest when it holds one value): a best-of
/// estimator for a host whose speed changes over seconds, which one lucky
/// sample does not set.
inline double second_lowest(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[std::min<std::size_t>(1, v.size() - 1)];
}

/// One recorded span: a call into a layer, with the span that caused it.
struct Span {
  const char* name;
  std::uint32_t parent;  ///< index + 1 of the enclosing span, 0 = root
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// In-memory span recorder (choosing-metrics §4): spans nest by a stack,
/// are kept in memory, and are written out once at exit. Disabled, every
/// call is one branch.
class Tracer {
 public:
  bool on = false;

  /// Opens a span; a null `name` records nothing (conditional spans).
  std::uint32_t begin(const char* name) {
    if (!on || name == nullptr) return 0;
    const auto parent = stack_.empty() ? 0u : stack_.back();
    spans_.push_back({name, parent, now_ns(), 0});
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
    return stack_.back();
  }
  void end(std::uint32_t id) {
    if (!on || id == 0) return;
    spans_[id - 1].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Total duration and self time (duration minus the children's) of every
  /// span named `name` among spans [from, to).
  struct Totals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::size_t count = 0;
  };
  Totals totals(const std::string& name, std::size_t from, std::size_t to) const;

  std::size_t size() const { return spans_.size(); }
  /// Writes every span as a tab-separated line: id, parent, name, start, end.
  void dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

/// Printing helpers for the line protocol.
inline void metric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
}
inline void exact(const std::string& key, const std::string& value) {
  std::printf("exact %s %s\n", key.c_str(), value.c_str());
}
inline void ops(const char* phase, std::uint64_t attempted, std::uint64_t failed) {
  std::printf("ops %s %llu %llu\n", phase, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
}
std::string hex64(std::uint64_t v);

}  // namespace perfbench
