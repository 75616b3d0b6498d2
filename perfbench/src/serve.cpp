// Serve phase: open-loop load against a 2-shard PrefetchServer loaded from
// the set-up `.dart` artifact.
//
// One generator thread multiplexes 8 client sessions. Arrivals follow a
// Poisson schedule drawn from the counter-based RNG, so a seed replays the
// same schedule bit for bit. Every request is timed from its *intended*
// send time to the poll that returns its answer, so a stall is charged to
// every request it delays (no coordinated omission). The offered rate steps
// through a fixed ladder; a step meets the limit only when its p99 is under
// kLimitUs, nothing failed, the generator kept up and no backlog built up.
#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/detmath.hpp"
#include "common/rng.hpp"
#include "io/bytes.hpp"
#include "phases.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace sv = dart::serve;

constexpr std::size_t kSessions = 8;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWindow = 512;        ///< in-flight slots per session
constexpr double kLimitUs = 1000.0;         ///< p99 latency limit
constexpr double kLagLimitUs = 200.0;       ///< generator lateness limit (p99)
constexpr std::size_t kHashedArrivals = 1000;  ///< arrivals per step in the schedule hash
constexpr double kWindowS = 0.1;            ///< latency window for the step p99
/// Offered rates (requests/s). Step kRefStep is the reference rate for the
/// latency metrics: low enough that linger, not queueing, dominates. The
/// top rung sits well above the knee (about 190K/s with 2 shards on a
/// 4-thread host), so a faster server can still show a higher maximum.
constexpr double kLadder[] = {20000, 50000, 100000, 200000, 300000};
constexpr std::size_t kSteps = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr std::size_t kRefStep = 1;
/// Attempts at the reference rate per round (the other rungs get one): the
/// second-lowest-p99 attempt counts, and more attempts catch calm stretches
/// of the shared host more reliably.
constexpr std::size_t kRefAttempts = 2;
/// Steps per round: the ladder plus the extra reference attempts.
constexpr std::size_t kRoundSteps = kSteps + kRefAttempts - 1;
constexpr std::size_t kProbes = 3;  ///< bisection probes past the ladder
constexpr std::size_t kProbeAttempts = 3;  ///< attempts per probe rate
constexpr std::size_t kProbeIds = 1000;  ///< schedule ids of probe steps start here

/// What one step leaves behind once its samples are summarized.
struct StepResult {
  double rate = 0.0;
  double p50_us = 0.0;       ///< client latency median
  double p99_us = 0.0;       ///< median over 100 ms windows of the window p99
  double lag_p99_us = 0.0;   ///< generator lateness p99
  double submit_ns = 0.0;    ///< median submit() call (traced steps only)
  std::size_t samples = 0, windows = 0;
  std::uint64_t generated = 0, completed = 0, shed = 0;
  std::uint64_t lost = 0, id_mismatches = 0, wrong = 0, checked = 0;
  std::uint64_t rejects = 0;     ///< backpressure refusals (retried)
  std::uint64_t backlog_end = 0; ///< due but unanswered when arrivals stopped
  sv::ServeStatsSummary server;
  std::uint64_t schedule_hash = 0;

  bool failed_any() const { return lost + id_mismatches + wrong + shed != 0; }
  bool meets_limit() const {
    const double backlog_cap = std::max(64.0, rate * kLimitUs * 1e-6);
    return !failed_any() && p99_us <= kLimitUs && lag_p99_us <= kLagLimitUs &&
           static_cast<double>(backlog_end) <= backlog_cap;
  }
};

struct Pending {
  std::uint64_t intended;
  std::uint32_t sample;
};

struct Session {
  std::unique_ptr<sv::ClientSession> client;
  std::vector<float> probs;                 ///< kWindow answer buffers
  std::vector<std::uint64_t> expect_id, intended;
  std::vector<std::uint32_t> sample;
  std::vector<std::uint32_t> free_slots;
  std::deque<Pending> pending;              ///< due, waiting for a slot or admission
};

/// The Poisson arrival schedule of one step: exponential gaps from the
/// counter-based RNG through the libm-free log, so offsets are
/// bit-identical on every platform.
class Schedule {
 public:
  Schedule(std::uint64_t seed, std::size_t step, double rate, std::size_t pool_n)
      : rng_(dart::common::derive_seed(seed, 300 + step)), gap_ns_(1e9 / rate), pool_n_(pool_n) {}
  /// Next arrival: offset from the step start (ns) and feature sample.
  void next(std::uint64_t& offset_ns, std::uint32_t& sample) {
    t_ += -dart::common::det::log(1.0 - rng_.uniform()) * gap_ns_;
    offset_ns = static_cast<std::uint64_t>(t_);
    sample = static_cast<std::uint32_t>(rng_.below(pool_n_));
  }

 private:
  dart::common::Rng rng_;
  double gap_ns_;
  std::size_t pool_n_;
  double t_ = 0.0;
};

/// FNV-1a over the first kHashedArrivals arrivals of a step's schedule,
/// independent of how long the step runs.
std::uint64_t schedule_hash(std::uint64_t seed, std::size_t step, double rate,
                            std::size_t pool_n) {
  Schedule sched(seed, step, rate, pool_n);
  std::uint64_t h = dart::io::kFnv1aBasis;
  for (std::size_t i = 0; i < kHashedArrivals; ++i) {
    std::uint64_t offset;
    std::uint32_t sample;
    sched.next(offset, sample);
    h = dart::io::fnv1a64(&offset, sizeof offset, h);
    h = dart::io::fnv1a64(&sample, sizeof sample, h);
  }
  return h;
}

/// Runs one ladder step at `rate` for `seconds` of arrivals, then drains.
StepResult run_step(const Setup& st, std::uint64_t seed, std::size_t step, double rate,
                    double seconds, bool trace_calls, Tracer& tracer, bool corrupt) {
  StepResult r;
  r.rate = rate;
  const FeaturePool& pool = st.pool;
  sv::ServeConfig cfg;
  cfg.shards = kShards;
  sv::PrefetchServer server(st.artifact_path, cfg);

  std::vector<Session> sessions(kSessions);
  for (Session& s : sessions) {
    s.client = server.connect(kWindow);
    s.probs.assign(kWindow * pool.out, 0.0f);
    s.expect_id.assign(kWindow, 0);
    s.intended.assign(kWindow, 0);
    s.sample.assign(kWindow, 0);
    for (std::uint32_t i = 0; i < kWindow; ++i) s.free_slots.push_back(kWindow - 1 - i);
  }

  Schedule sched(seed, step, rate, pool.n);
  const std::uint64_t window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t offset = 0;
  std::uint32_t next_sample = 0;
  sched.next(offset, next_sample);

  // (intended time, latency) per answered request, and the lateness of the
  // generator per arrival.
  std::vector<std::pair<std::uint64_t, double>> lat;
  std::vector<double> lag_us, submit_ns;
  const std::size_t bytes = pool.out * sizeof(float);
  std::uint64_t check_counter = 0;
  auto poll_all = [&]() {
    for (Session& s : sessions) {
      sv::Response resp;
      while (s.client->poll(resp)) {
        const std::uint64_t t = now_ns();
        const std::size_t slot =
            static_cast<std::size_t>(resp.probs - s.probs.data()) / pool.out;
        if (slot >= kWindow || s.expect_id[slot] != resp.trace_id) {
          ++r.id_mismatches;
          continue;
        }
        if (resp.status == sv::Response::Status::kShed) {
          ++r.shed;
        } else {
          ++r.completed;
          // Deterministic spot check: every 8th answer against the
          // in-process reference for the same features.
          if (check_counter++ % 8 == 0) {
            ++r.checked;
            if (corrupt && r.checked == 1) resp.probs[0] = -resp.probs[0] - 1.0f;
            if (std::memcmp(resp.probs, pool.ref_of(s.sample[slot]), bytes) != 0) ++r.wrong;
          }
        }
        lat.emplace_back(s.intended[slot], static_cast<double>(t - s.intended[slot]) / 1e3);
        s.free_slots.push_back(static_cast<std::uint32_t>(slot));
      }
    }
  };
  auto submit_pending = [&]() {
    for (Session& s : sessions) {
      while (!s.pending.empty() && !s.free_slots.empty()) {
        const Pending p = s.pending.front();
        const std::uint32_t slot = s.free_slots.back();
        const std::uint64_t t0 = now_ns();
        std::uint64_t id;
        {
          Scope span(tracer, trace_calls ? "serve.submit" : nullptr);
          id = s.client->submit(pool.addr_of(p.sample), pool.pc_of(p.sample),
                                s.probs.data() + slot * pool.out);
        }
        if (trace_calls) submit_ns.push_back(static_cast<double>(now_ns() - t0));
        if (id == 0) {
          ++r.rejects;
          break;  // admission refused: retry after the next poll
        }
        s.free_slots.pop_back();
        s.expect_id[slot] = id;
        s.intended[slot] = p.intended;
        s.sample[slot] = p.sample;
        s.pending.pop_front();
      }
    }
  };

  const std::uint64_t start = now_ns() + 1000000;  // 1 ms lead for the shards to park
  while (now_ns() < start) {
  }
  std::size_t rr = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    while (offset < window_ns && start + offset <= now) {
      lag_us.push_back(static_cast<double>(now - (start + offset)) / 1e3);
      sessions[rr].pending.push_back({start + offset, next_sample});
      rr = (rr + 1) % kSessions;
      ++r.generated;
      sched.next(offset, next_sample);
    }
    submit_pending();
    poll_all();
    if (offset >= window_ns) break;
  }
  // Arrivals stopped: whatever is due and unanswered now is the backlog.
  // The rest drains, and its (long) latencies count.
  r.backlog_end = r.generated - r.completed - r.shed;
  const std::uint64_t drain_deadline = now_ns() + 10000000000ULL;
  while (r.completed + r.shed < r.generated && now_ns() < drain_deadline) {
    submit_pending();
    poll_all();
  }
  r.lost = r.generated - r.completed - r.shed;
  r.server = server.stats();
  server.stop();

  // p99 per 100 ms window of intended send times, then the median over
  // windows with at least 1000 answers (ten beyond their p99): one stall of
  // a shared core moves one window, not the step.
  const std::size_t nwin = static_cast<std::size_t>(seconds / kWindowS) + 1;
  std::vector<std::vector<double>> win(nwin);
  for (const auto& [intended, us] : lat) {
    const std::size_t w = std::min<std::size_t>(
        nwin - 1, static_cast<std::size_t>(static_cast<double>(intended - start) /
                                           (kWindowS * 1e9)));
    win[w].push_back(us);
  }
  std::vector<double> win_p99, all;
  for (const auto& w : win) {
    if (w.size() >= 1000) win_p99.push_back(summarize(w).tail);
  }
  lat = {};
  for (auto& w : win) {
    all.insert(all.end(), w.begin(), w.end());
    w = {};
  }
  const Summary overall = summarize(std::move(all));
  r.samples = overall.n;
  r.windows = win_p99.size();
  r.p50_us = overall.p50;
  r.p99_us = win_p99.empty() ? overall.tail : median(win_p99);
  r.lag_p99_us = summarize(lag_us).tail;
  r.submit_ns = submit_ns.empty() ? 0.0 : median(submit_ns);
  r.schedule_hash = schedule_hash(seed, step, rate, pool.n);
  return r;
}

class ServePhase final : public Phase {
 public:
  ServePhase(const RunOptions& opts, const Setup& st, Tracer& tracer, double total_s,
             int rounds)
      : opts_(opts), st_(st), tracer_(tracer),
        step_s_(total_s / static_cast<double>(rounds * kRoundSteps + kProbeAttempts * kProbes)),
        ladder_(kSteps) {}

  /// One pass over the ladder per round, then the reference rate again
  /// (steps have a fixed length, so the round's budget is spent by
  /// construction); the last round then bisects the knee.
  void run(double /*budget_s*/, bool last) override {
    for (std::size_t k = 0; k < kRoundSteps; ++k) {
      const std::size_t i = k < kSteps ? k : kRefStep;
      const std::size_t id = rounds_ * kRoundSteps + k;
      ladder_[i].push_back(run_step(st_, opts_.seed, id, kLadder[i], step_s_,
                                    opts_.trace && i == kRefStep, tracer_,
                                    opts_.corrupt == "serve" && id == 0));
    }
    ++rounds_;
    if (last) bisect();
  }

  void report() override;

 private:
  /// A rung passes when any of its attempts met the limit: the machine's
  /// speed changes over seconds, and a rate it serves in a calm stretch is
  /// a rate the server can serve.
  bool passes(const std::vector<StepResult>& attempts) const {
    return std::any_of(attempts.begin(), attempts.end(),
                       [](const StepResult& s) { return s.meets_limit(); });
  }
  /// The attempt with the second-lowest p99 (bench.hpp second_lowest).
  static const StepResult& best(const std::vector<StepResult>& attempts) {
    std::vector<double> p99;
    for (const StepResult& s : attempts) p99.push_back(s.p99_us);
    const double pick = second_lowest(p99);
    return *std::find_if(attempts.begin(), attempts.end(),
                         [pick](const StepResult& s) { return s.p99_us == pick; });
  }

  /// Bisects between the highest passing rung and the next one; each probe
  /// rate gets up to kProbeAttempts attempts.
  void bisect() {
    std::size_t top = kSteps;
    for (std::size_t i = 0; i < kSteps; ++i) {
      if (passes(ladder_[i])) top = i;
    }
    max_rps_ = top < kSteps ? kLadder[top] : 0.0;
    if (top + 1 >= kSteps) return;
    double lo = kLadder[top], hi = kLadder[top + 1];
    for (std::size_t k = 0; k < kProbes; ++k) {
      const double mid = 0.5 * (lo + hi);
      std::vector<StepResult> attempts;
      for (std::size_t a = 0; a < kProbeAttempts && !passes(attempts); ++a) {
        attempts.push_back(run_step(st_, opts_.seed, kProbeIds + kProbeAttempts * k + a, mid,
                                    step_s_, false, tracer_, false));
      }
      (passes(attempts) ? lo : hi) = mid;
      probes_.insert(probes_.end(), attempts.begin(), attempts.end());
    }
    max_rps_ = lo;
  }

  const RunOptions& opts_;
  const Setup& st_;
  Tracer& tracer_;
  double step_s_;
  std::size_t rounds_ = 0;
  std::vector<std::vector<StepResult>> ladder_;  ///< attempts per rung
  std::vector<StepResult> probes_;
  double max_rps_ = 0.0;
};

void ServePhase::report() {
  std::uint64_t attempted = 0, failed = 0, hash = dart::io::kFnv1aBasis;
  auto account = [&](const StepResult& s, bool hashed) {
    attempted += s.generated;
    failed += s.lost + s.id_mismatches + s.wrong + s.shed;
    // Probe rates depend on earlier outcomes; only ladder steps are hashed.
    if (hashed) hash = dart::io::fnv1a64(&s.schedule_hash, sizeof s.schedule_hash, hash);
    std::printf("note serve: rate %.0f/s gen %llu p50 %.1f us p99 %.1f us (%zu windows, %zu "
                "answers) lag_p99 %.1f us backlog %llu rejects %llu avg_batch %.2f %s\n",
                s.rate, static_cast<unsigned long long>(s.generated), s.p50_us, s.p99_us,
                s.windows, s.samples, s.lag_p99_us,
                static_cast<unsigned long long>(s.backlog_end),
                static_cast<unsigned long long>(s.rejects), s.server.avg_batch,
                s.meets_limit() ? "meets" : "MISSES");
  };
  for (const std::vector<StepResult>& rung : ladder_) {
    for (const StepResult& s : rung) account(s, true);
  }
  for (const StepResult& s : probes_) account(s, false);

  // The reference rate ran kRefAttempts times per round; the attempt with
  // the second-lowest p99 counts.
  const StepResult& ref = best(ladder_[kRefStep]);
  metric("serve_p50_us", ref.p50_us, "us");
  metric("serve_p99_us", ref.p99_us, "us");
  exact("serve.schedule_hash", hex64(hash));

  if (opts_.trace) {
    std::uint64_t retries = 0, depth_max = 0;
    for (const auto& sh : ref.server.shards) {
      retries += sh.completion_retries;
      depth_max = std::max(depth_max, sh.queue_depth_max);
    }
    // Per-layer only: on a shared 4-thread host the rate at which the p99
    // crosses 1 ms swung between 100K/s and 250K/s across runs of the same
    // code, far wider than any bound an end-to-end metric can carry.
    metric("serve.max_rps", max_rps_, "1/s");
    metric("serve.gen_lag_p99_us", ref.lag_p99_us, "us");
    metric("serve.submit_ns", ref.submit_ns, "ns");
    metric("serve.server_p50_us", static_cast<double>(ref.server.p50_ns) / 1e3, "us");
    metric("serve.server_p99_us", static_cast<double>(ref.server.p99_ns) / 1e3, "us");
    metric("serve.client_extra_us", ref.p50_us - static_cast<double>(ref.server.p50_ns) / 1e3,
           "us");
    metric("serve.avg_batch", ref.server.avg_batch, "count");
    metric("serve.batches", static_cast<double>(ref.server.batches), "count");
    metric("serve.queue_depth_max", static_cast<double>(depth_max), "count");
    metric("serve.backpressure_rejects", static_cast<double>(ref.rejects), "count");
    metric("serve.shed", static_cast<double>(ref.shed), "count");
    metric("serve.completion_retries", static_cast<double>(retries), "count");
    metric("serve.backlog_end", static_cast<double>(ref.backlog_end), "count");
    for (std::size_t i = 0; i < kSteps; ++i) {
      const StepResult& b = best(ladder_[i]);
      const std::string p = "serve.rate" + std::to_string(i) + ".";
      metric(p + "p99_us", b.p99_us, "us");
      metric(p + "gen_lag_p99_us", b.lag_p99_us, "us");
      metric(p + "backlog_end", static_cast<double>(b.backlog_end), "count");
    }
  }
  ops("serve", attempted, failed);
}

}  // namespace

std::unique_ptr<Phase> make_serve_phase(const RunOptions& opts, const Setup& st, Tracer& tracer,
                                        double total_s, int rounds) {
  return std::make_unique<ServePhase>(opts, st, tracer, total_s, rounds);
}

}  // namespace perfbench
