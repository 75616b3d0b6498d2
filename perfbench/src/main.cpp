// perfbench: the repository benchmark's measuring program (see
// perfbench/README.md). perfbench/run.py builds it, runs it and turns its
// line protocol (bench.hpp) into the benchmark's result line.
//
//   perfbench --workload apps|ycsb --seed N --seconds S [--trace 0|1]
//             [--out-dir DIR] [--corrupt query|serve|cell|replay]
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "phases.hpp"
#include "setup.hpp"

namespace perfbench {

Tracer::Totals Tracer::totals(const std::string& name, std::size_t from,
                              std::size_t to) const {
  // Children's durations, charged to their parents: self = total - children.
  to = std::min(to, spans_.size());
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = spans_[i];
    if (s.parent != 0 && s.parent - 1 >= from) {
      child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  Totals t;
  for (std::size_t i = from; i < to; ++i) {
    if (name != spans_[i].name) continue;
    const double d = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
    ++t.count;
  }
  return t;
}

void Tracer::dump(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%s\t%llu\t%llu\n", i + 1, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload apps|ycsb --seed N --seconds S "
               "[--trace 0|1] [--out-dir DIR] [--corrupt PHASE]\n",
               msg);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--corrupt") {
      o.corrupt = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// Set-up is repeated and its median reported, so one slow repetition on a
// shared machine does not decide setup_s.
constexpr int kSetupRepeats = 7;
constexpr int kRounds = 4;

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opts = parse(argc, argv);
  // The cell's thread pool: fixed, never above the machine's threads, and
  // independent of the caller's environment.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  setenv("DART_THREADS", hw >= 2 ? "2" : "1", 1);

  try {
    Tracer tracer;
    tracer.on = opts.trace;
    std::vector<double> setup_s;
    Setup st;
    for (int r = 0; r < kSetupRepeats; ++r) {
      const std::uint64_t t0 = now_ns();
      Tracer quiet;  // only the last repetition's spans are kept
      st = build_setup(opts, r + 1 == kSetupRepeats ? tracer : quiet);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    metric("setup_s", median(setup_s), "s");
    if (opts.trace) {
      metric("trace.generate_s", st.generate_s, "s");
      metric("io.artifact_save_ms", st.save_ms, "ms");
      metric("io.artifact_load_ms", st.load_ms, "ms");
    }

    // Phases take turns in kRounds rounds, each round giving every phase
    // its share of the run; a slow stretch of the machine then hits every
    // phase a little instead of one phase entirely.
    const double s = opts.seconds;
    struct Slot {
      std::unique_ptr<Phase> phase;
      double share;
    };
    Slot slots[] = {{make_query_phase(opts, st, tracer), 0.22},
                    {make_replay_phase(opts, st, tracer), 0.15},
                    {make_serve_phase(opts, st, tracer, 0.33 * s, kRounds), 0.33},
                    {make_cell_phase(opts, tracer), 0.30}};
    for (int r = 0; r < kRounds; ++r) {
      for (Slot& slot : slots) slot.phase->run(slot.share * s / kRounds, r + 1 == kRounds);
    }
    for (Slot& slot : slots) slot.phase->report();

    std::remove(st.artifact_path.c_str());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    if (opts.trace) {
      metric("bench.spans", static_cast<double>(tracer.size()), "count");
      tracer.dump(opts.out_dir + "/spans-" + opts.workload + "-" + std::to_string(opts.seed) +
                  ".tsv");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
