// Wall-clock timing helpers for benchmarks and progress reporting.
#pragma once

#include <chrono>

namespace dart::common {

/// Monotonic stopwatch; `elapsed_ms()` can be called repeatedly.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(clock::now() - start_).count();
  }

  double elapsed_s() const { return elapsed_ms() / 1000.0; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace dart::common
