// Deterministic random number generation (DESIGN.md §12).
//
// Every stochastic component in the library (weight init, k-means seeding,
// synthetic trace generation, data shuffling, workload sampling) draws from
// this header. Nothing here touches std::mt19937 or std::*_distribution:
// the standard distributions are implementation-defined, so two standard
// libraries (libstdc++ vs libc++) produce different streams from the same
// seed, which would make every trace, model, and `.dart` content hash
// platform-specific. All algorithms below are pinned — same seed, same
// stream, on every platform and standard library.
//
// Core: a counter-based wyrand generator (one 64x64->128 widening multiply
// per draw, `umul128`-style) with SplitMix64 used for seed derivation and
// stateless counter-indexed draws. Bounded integers use Lemire's debiased
// multiply-shift; doubles take the top 53 bits; gaussians use the Marsaglia
// polar method over det:: math (common/detmath.hpp), so even the
// FP-dependent samplers are bit-stable across libms.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/detmath.hpp"

namespace dart::common {

/// 64x64 -> 128-bit widening multiply: returns the low half, stores the
/// high half in `*hi`. One `mulx` on x86-64; the portable split fallback
/// computes the same bits on compilers without __int128.
inline std::uint64_t umul128(std::uint64_t a, std::uint64_t b, std::uint64_t* hi) {
#if defined(__SIZEOF_INT128__)
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  *hi = static_cast<std::uint64_t>(p >> 64);
  return static_cast<std::uint64_t>(p);
#else
  const std::uint64_t a_lo = a & 0xffffffffULL, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffULL, b_hi = b >> 32;
  const std::uint64_t p0 = a_lo * b_lo, p1 = a_lo * b_hi, p2 = a_hi * b_lo, p3 = a_hi * b_hi;
  const std::uint64_t mid = p1 + (p0 >> 32) + (p2 & 0xffffffffULL);
  *hi = p3 + (p1 >> 32) + (p2 >> 32) + (mid >> 32);
  return (mid << 32) | (p0 & 0xffffffffULL);
#endif
}

/// SplitMix64 finalizer: a bijective 64-bit mix (the classic
/// multiply-xorshift chain). Also the scramble function of the
/// scrambled-zipfian sampler.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One SplitMix64 step: advances `state` by the golden-ratio gamma and
/// returns the mixed draw. Passes BigCrush; cheap enough for per-request
/// hot paths (serve::IdGenerator sits on this).
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  return mix64(state += 0x9e3779b97f4a7c15ULL);
}

/// Derives a child seed from a parent seed and a stream id — the
/// counter-indexed (stateless) form of SplitMix64, so parallel components
/// get decorrelated streams deterministically. derive_seed(s, n) is draw
/// `n` of the SplitMix64 stream anchored at `s`.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix64(seed + 0x9e3779b97f4a7c15ULL * (stream + 1));
}

/// One wyrand step: golden-gamma counter plus a 128-bit mum fold. The
/// counter-based core of Rng — state is a plain counter, so any draw index
/// is random-accessible and streams never correlate.
inline std::uint64_t wyrand_next(std::uint64_t& state) {
  state += 0xa0761d6478bd642fULL;
  std::uint64_t hi;
  const std::uint64_t lo = umul128(state ^ 0xe7037ed1a0b428dbULL, state, &hi);
  return lo ^ hi;
}

/// Top 53 bits of `x` as a double in [0, 1). The only u64 -> double
/// conversion used anywhere; one exact multiply, no libm.
inline double to_unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Stateless uniform double in [0, 1) for counter-indexed Bernoulli draws
/// (common/fault.cpp): depends only on (seed, n), never on call order.
inline double counter_u01(std::uint64_t seed, std::uint64_t n) {
  return to_unit_double(derive_seed(seed, n));
}

/// Deterministic counter-based generator with the sampling helpers the
/// library needs. Same seed => bit-identical stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : state_(derive_seed(seed, 0)) {}

  /// The raw 64-bit draw every helper below is built from.
  std::uint64_t next_u64() { return wyrand_next(state_); }

  /// Uniform integer in [0, n), n > 0: Lemire's multiply-shift with the
  /// standard debiasing rejection, so every value is exactly equally likely.
  std::uint64_t below(std::uint64_t n) {
    std::uint64_t hi;
    std::uint64_t lo = umul128(next_u64(), n, &hi);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) lo = umul128(next_u64(), n, &hi);
    }
    return hi;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (span == ~0ULL) return static_cast<std::int64_t>(next_u64());
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + below(span + 1));
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    // fma pins the affine map as one rounding step.
    return std::fma(to_unit_double(next_u64()), hi - lo, lo);
  }

  /// Gaussian with the given mean / stddev (Marsaglia polar, det::log —
  /// bit-stable, unlike std::normal_distribution).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// True with probability p.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return to_unit_double(next_u64()) < p;
  }

  /// Geometric-ish heavy-tail sample in [0, n): index i with prob ~ decay^i.
  /// (Inverse-CDF over a truncated geometric distribution; kept for the
  /// legacy gcc-like generator — the YCSB-grade samplers live below.)
  std::size_t zipf_like(std::size_t n, double decay) {
    double u = uniform();
    double p = 1.0 - decay;
    double cum = 0.0;
    double w = p;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      cum += w;
      if (u < cum) return i;
      w *= decay;
    }
    return n - 1;
  }

  /// Fisher-Yates over our bounded draws (std::shuffle's draw pattern is
  /// implementation-defined; this one is pinned).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

// --------------------------------------------------------------------------
// YCSB-grade key-distribution samplers (DESIGN.md §12). Each returns ranks /
// keys in [0, items); the trace layer maps keys onto address streams.
// Algorithms and constants are pinned; all FP goes through det:: math.

/// Zipfian ranks with parameter theta (Gray et al., the YCSB generator):
/// rank 0 is the hottest key. Construction is O(min(items, 2^18)) — the
/// harmonic normalizer zeta(items, theta) is summed exactly up to 2^18
/// items and extended by the integral tail for larger footprints (pinned
/// approximation, documented in DESIGN.md §12).
class ZipfianSampler {
 public:
  explicit ZipfianSampler(std::uint64_t items, double theta = kDefaultTheta);

  std::uint64_t next(Rng& rng) const;
  std::uint64_t items() const { return items_; }
  double theta() const { return theta_; }

  static constexpr double kDefaultTheta = 0.99;

 private:
  std::uint64_t items_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// Zipfian popularity without rank locality: the hot keys are scattered
/// over the whole key space by the SplitMix64 finalizer (mix64), like
/// YCSB's scrambled-zipfian (fnv hash there; the scramble function is part
/// of the pinned contract).
class ScrambledZipfianSampler {
 public:
  explicit ScrambledZipfianSampler(std::uint64_t items,
                                   double theta = ZipfianSampler::kDefaultTheta)
      : inner_(items, theta) {}

  std::uint64_t next(Rng& rng) const { return mix64(inner_.next(rng)) % inner_.items(); }
  std::uint64_t items() const { return inner_.items(); }

 private:
  ZipfianSampler inner_;
};

/// "Latest" distribution (YCSB-D): recently inserted keys are hottest.
/// next(rng, max) returns a key in [0, max) skewed toward max-1 by a
/// zipfian offset; `max` grows as the workload inserts.
class LatestSampler {
 public:
  explicit LatestSampler(std::uint64_t items, double theta = ZipfianSampler::kDefaultTheta)
      : zipf_(items, theta) {}

  std::uint64_t next(Rng& rng, std::uint64_t max) const {
    const std::uint64_t off = zipf_.next(rng) % (max > 0 ? max : 1);
    return max - 1 - off;
  }

 private:
  ZipfianSampler zipf_;
};

/// Exponentially decaying recency offsets: offset o with prob ~ e^{-o/mean}
/// via inverse CDF over det::log, truncated to [0, items).
class ExponentialSampler {
 public:
  /// `mean` is the mean offset in keys (must be > 0).
  ExponentialSampler(std::uint64_t items, double mean) : items_(items), mean_(mean) {}

  std::uint64_t next(Rng& rng) const {
    const double u = to_unit_double(rng.next_u64());  // [0, 1); 1-u in (0, 1]
    const double v = -det::log(1.0 - u) * mean_;
    const std::uint64_t o = static_cast<std::uint64_t>(v);
    return o < items_ ? o : items_ - 1;
  }

 private:
  std::uint64_t items_;
  double mean_;
};

}  // namespace dart::common
