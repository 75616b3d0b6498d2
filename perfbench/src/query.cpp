// Query phase: serial queries on the deployed predictor (paper student,
// hash-tree encoders), with features from the workload's traces.
//
// Untraced, it times forward_sample_into (batch 1) and forward_block_into
// (batch 16, the serve sub-block size) on float and int8 tables, checking
// every answer bit for bit against the set-up reference. Traced, it also
// rebuilds forward_block_into stage by stage from the predictor's public
// members, with a span per stage; the rebuilt answers must equal the real
// ones bit for bit, so the stage split describes the real query path.
#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "io/bytes.hpp"
#include "phases.hpp"
#include "tabular/complexity.hpp"

namespace perfbench {

namespace tb = dart::tabular;

namespace {

constexpr const char* kStages[] = {"embed", "qkv",    "attn", "out_proj", "ffn_hidden",
                                   "ffn_out", "head", "ln",   "glue"};

/// Inputs of every linear-kernel call of a staged query, kept so the
/// encoders can be timed alone on the rows they really see.
struct KernelInputs {
  struct Call {
    const tb::LinearKernel* kernel;
    std::vector<float> rows;
    std::size_t n;
    std::size_t stride;
  };
  std::vector<Call> calls;
  void add(const tb::LinearKernel& k, const float* rows, std::size_t n, std::size_t stride) {
    calls.push_back({&k, std::vector<float>(rows, rows + n * stride), n, stride});
  }
};

/// TabularPredictor::forward_block_into rebuilt from the public members,
/// one span per stage. Must stay arithmetic-for-arithmetic identical to the
/// library's block query (checked bit for bit on every call).
void staged_block(const tb::TabularPredictor& m, const float* addr, const float* pc,
                  std::size_t n, float* probs_out, tb::InferenceWorkspace& ws, Tracer& tr,
                  KernelInputs* inputs) {
  const dart::nn::ModelConfig& arch = m.arch();
  const std::size_t t_len = arch.seq_len;
  const std::size_t d = arch.dim;
  const std::size_t dh = d / arch.heads;
  const std::size_t rows = n * t_len;
  const auto frame = ws.mark();
  auto linear = [&](const char* stage, const tb::LinearKernel& k, const float* in,
                    std::size_t in_stride, float* out, std::size_t out_stride) {
    if (inputs != nullptr) inputs->add(k, in, rows, in_stride);
    Scope s(tr, stage);
    k.query_into(in, rows, in_stride, out, out_stride, ws);
  };

  float* x = ws.floats(rows * d);
  float* tmp = ws.floats(rows * d);
  linear("tabular.embed", *m.addr_kernel, addr, arch.addr_dim, x, d);
  linear("tabular.embed", *m.pc_kernel, pc, arch.pc_dim, tmp, d);
  {
    Scope s(tr, "tabular.glue");
    const float* pos = m.pos_encoding.data();
    for (std::size_t smp = 0; smp < n; ++smp) {
      float* xs = x + smp * t_len * d;
      const float* ts = tmp + smp * t_len * d;
      for (std::size_t i = 0; i < t_len * d; ++i) xs[i] += ts[i] + pos[i];
    }
  }
  for (const tb::TabularEncoderLayer& layer : m.layers) {
    const auto layer_frame = ws.mark();
    float* qkv = ws.floats(rows * 3 * d);
    linear("tabular.qkv", *layer.qkv, x, d, qkv, 3 * d);
    float* concat = ws.floats(rows * d);
    {
      Scope s(tr, "tabular.attn");
      for (std::size_t h = 0; h < layer.heads.size(); ++h) {
        layer.heads[h]->query_batch_into(qkv + h * dh, 3 * d, qkv + d + h * dh, 3 * d,
                                         qkv + 2 * d + h * dh, 3 * d, n, concat + h * dh, d, ws);
      }
    }
    linear("tabular.out_proj", *layer.out_proj, concat, d, tmp, d);
    {
      Scope s(tr, "tabular.glue");
      for (std::size_t i = 0; i < rows * d; ++i) tmp[i] += x[i];
    }
    {
      Scope s(tr, "tabular.ln");
      layer.ln1.apply_into(tmp, x, rows);
    }
    float* hidden = ws.floats(rows * arch.ffn_dim);
    linear("tabular.ffn_hidden", *layer.ffn_hidden, x, d, hidden, arch.ffn_dim);
    {
      Scope s(tr, "tabular.glue");
      for (std::size_t i = 0; i < rows * arch.ffn_dim; ++i) {
        hidden[i] = hidden[i] > 0.0f ? hidden[i] : 0.0f;
      }
    }
    linear("tabular.ffn_out", *layer.ffn_out, hidden, arch.ffn_dim, tmp, d);
    {
      Scope s(tr, "tabular.glue");
      for (std::size_t i = 0; i < rows * d; ++i) tmp[i] += x[i];
    }
    {
      Scope s(tr, "tabular.ln");
      layer.ln2.apply_into(tmp, x, rows);
    }
    ws.rewind(layer_frame);
  }
  {
    Scope s(tr, "tabular.ln");
    m.final_ln.apply_into(x, x, rows);
  }
  const std::size_t out_d = arch.out_dim;
  float* per_token = ws.floats(rows * out_d);
  linear("tabular.head", *m.head_kernel, x, d, per_token, out_d);
  {
    Scope s(tr, "tabular.glue");
    const float inv_t = 1.0f / static_cast<float>(t_len);
    for (std::size_t smp = 0; smp < n; ++smp) {
      float* probs = probs_out + smp * out_d;
      const float* pt = per_token + smp * t_len * out_d;
      for (std::size_t j = 0; j < out_d; ++j) probs[j] = 0.0f;
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* row = pt + t * out_d;
        for (std::size_t j = 0; j < out_d; ++j) probs[j] += row[j] * inv_t;
      }
      m.sigmoid_lut.apply_batch(probs, out_d, probs);
    }
  }
  ws.rewind(frame);
}

/// Modeled scalar operations per query of each kernel stage (Eq. 20/21).
std::map<std::string, double> modeled_ops(const tb::TabularPredictor& m) {
  const dart::nn::ModelConfig& a = m.arch();
  const std::size_t t = a.seq_len;
  auto lin = [t](const tb::LinearKernel& k) {
    return static_cast<double>(
        tb::linear_kernel_ops(t, k.out_dim(), k.num_prototypes(), k.num_subspaces()));
  };
  std::map<std::string, double> ops;
  ops["embed"] = lin(*m.addr_kernel) + lin(*m.pc_kernel);
  ops["head"] = lin(*m.head_kernel);
  for (const tb::TabularEncoderLayer& l : m.layers) {
    ops["qkv"] += lin(*l.qkv);
    ops["out_proj"] += lin(*l.out_proj);
    ops["ffn_hidden"] += lin(*l.ffn_hidden);
    ops["ffn_out"] += lin(*l.ffn_out);
    for (const auto& h : l.heads) {
      ops["attn"] += static_cast<double>(tb::attention_kernel_ops(
          t, h->head_dim(), h->config().num_prototypes, h->config().ck));
    }
  }
  return ops;
}

/// Per-call latencies of one kind of query, in chunks of consecutive calls.
/// The machine's speed flips every few hundred milliseconds (other tenants
/// share the cores), so the estimates use only the fastest twentieth of the
/// chunks: they repeat far better across runs than whole-run statistics.
struct Series {
  std::vector<std::vector<double>> chunks;

  /// `p50`: the median of the pooled calls of the fastest twentieth of the
  /// chunks (lowest chunk medians). `tail`: the lowest chunk p99 (each
  /// chunk of 1024 calls has ten beyond its p99). A query's tail is set by
  /// whatever shares its core; the best chunk's tail is the code's own, and
  /// it repeats where pooled or median tails do not.
  Summary fast() const {
    std::vector<std::pair<double, std::size_t>> by_p50;
    double best_tail = 0.0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const Summary c = summarize(chunks[i]);
      by_p50.emplace_back(c.p50, i);
      if (i == 0 || c.tail < best_tail) best_tail = c.tail;
    }
    std::sort(by_p50.begin(), by_p50.end());
    const std::size_t keep = std::max<std::size_t>(1, chunks.size() / 20);
    std::vector<double> pooled;
    for (std::size_t i = 0; i < keep; ++i) {
      const auto& c = chunks[by_p50[i].second];
      pooled.insert(pooled.end(), c.begin(), c.end());
    }
    Summary s = summarize(pooled);
    s.tail = best_tail;
    return s;
  }
};

/// One query stream: a model, its reference answers and a batch size.
struct Stream {
  const tb::TabularPredictor& model;
  const std::vector<float>& ref;
  std::size_t n;       ///< samples per call
  std::size_t calls;   ///< calls per chunk
  Series series;
  std::size_t next = 0;  ///< next pool sample
};

/// Times one chunk of `st.calls` calls, checking every answer bit for bit.
void time_chunk(Stream& st, const FeaturePool& pool, tb::InferenceWorkspace& ws,
                std::vector<float>& out, bool corrupt, std::uint64_t& attempted,
                std::uint64_t& failed) {
  std::vector<double> ns;
  ns.reserve(st.calls);
  const std::size_t bytes = st.n * pool.out * sizeof(float);
  for (std::size_t c = 0; c < st.calls; ++c) {
    const std::size_t s = st.next;
    const std::uint64_t t0 = now_ns();
    if (st.n == 1) {
      st.model.forward_sample_into(pool.addr_of(s), pool.pc_of(s), out.data(), ws);
    } else {
      st.model.forward_block_into(pool.addr_of(s), pool.pc_of(s), st.n, out.data(), ws);
    }
    ns.push_back(static_cast<double>(now_ns() - t0));
    if (corrupt && attempted == 0) out[0] = -out[0] - 1.0f;
    ++attempted;
    if (std::memcmp(out.data(), st.ref.data() + s * pool.out, bytes) != 0) ++failed;
    st.next = (s + st.n) % pool.n;
  }
  st.series.chunks.push_back(std::move(ns));
}

class QueryPhase final : public Phase {
 public:
  QueryPhase(const RunOptions& opts, const Setup& st, Tracer& tracer)
      : opts_(opts), st_(st), tracer_(tracer), ws_(block_arch(*st.model)),
        out_(16 * st.pool.out) {}

  // Batch 1, batch 16 and int8 batch 16 take turns chunk by chunk, so all
  // three see the same mix of fast and slow periods of the machine.
  void run(double budget_s, bool last) override {
    const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    const bool corrupt = opts_.corrupt == "query";
    do {
      for (Stream* q : {&b1_, &b16_, &b16q_}) {
        time_chunk(*q, st_.pool, ws_, out_, corrupt, attempted_, failed_);
      }
    } while (now_ns() < stop || (last && b1_.series.chunks.size() < 20));
  }

  void report() override;

 private:
  void staged_replay();

  const RunOptions& opts_;
  const Setup& st_;
  Tracer& tracer_;
  tb::InferenceWorkspace ws_;
  std::vector<float> out_;
  Stream b1_{*st_.model, st_.pool.ref, 1, 1024, {}};
  Stream b16_{*st_.model, st_.pool.ref, 16, 64, {}};
  Stream b16q_{*st_.int8, st_.pool.ref_int8, 16, 64, {}};
  std::uint64_t attempted_ = 0, failed_ = 0;
};

void QueryPhase::report() {
  const FeaturePool& pool = st_.pool;
  const Summary s1 = b1_.series.fast();
  const Summary s16 = b16_.series.fast();
  const Summary s16q = b16q_.series.fast();
  std::printf("note query: %zu chunks each; b1 p50 %.0f ns over %zu calls, best-chunk p99 %.0f "
              "ns; b16 %.0f ns/block; int8 b16 %.0f ns/block\n",
              b1_.series.chunks.size(), s1.p50, s1.n, s1.tail, s16.p50, s16q.p50);
  metric("query_b1_p50_ns", s1.p50, "ns");
  metric("query_b1_p99_ns", s1.tail, "ns");
  metric("query_b16_qps", 16e9 / s16.p50, "1/s");
  metric("query_b16_int8_qps", 16e9 / s16q.p50, "1/s");
  exact("query.checksum", hex64(dart::io::fnv1a64(pool.ref.data(), pool.ref.size() * sizeof(float))));
  exact("query.int8_checksum",
        hex64(dart::io::fnv1a64(pool.ref_int8.data(), pool.ref_int8.size() * sizeof(float))));
  if (opts_.trace) staged_replay();
  ops("query", attempted_, failed_);
}

void QueryPhase::staged_replay() {
  const FeaturePool& pool = st_.pool;
  Tracer& tracer = tracer_;
  tb::InferenceWorkspace& ws = ws_;
  std::vector<float>& out = out_;
  std::uint64_t& attempted = attempted_;
  std::uint64_t& failed = failed_;
  // Staged replay: b1 and b16, float and int8, over the whole pool. Each
  // staged call follows an untraced call on the same block, so both see
  // the same machine speed; their ratio is the tracing overhead.
  const std::size_t bytes_per = pool.out * sizeof(float);
  KernelInputs in_b1, in_b16;
  struct Range {
    std::size_t from, to;
    double untraced_ns;
  };
  auto replay = [&](const tb::TabularPredictor& m, const std::vector<float>& ref,
                    std::size_t n, std::size_t rounds, KernelInputs* inputs,
                    const char* root) {
    Range rg{tracer.size(), 0, 0.0};
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t s = 0; s < pool.n; s += n) {
        const std::uint64_t t0 = now_ns();
        m.forward_block_into(pool.addr_of(s), pool.pc_of(s), n, out.data(), ws);
        rg.untraced_ns += static_cast<double>(now_ns() - t0);
        // Poisoned first, so an answer the staged path fails to write
        // cannot pass as the untraced call's.
        std::fill(out.begin(), out.begin() + n * pool.out, -1.0f);
        {
          Scope q(tracer, root);
          staged_block(m, pool.addr_of(s), pool.pc_of(s), n, out.data(), ws, tracer,
                       r == 0 && s < 256 ? inputs : nullptr);
        }
        ++attempted;
        if (std::memcmp(out.data(), ref.data() + s * pool.out, n * bytes_per) != 0) ++failed;
      }
    }
    rg.to = tracer.size();
    return rg;
  };
  const Range r1 = replay(*st_.model, pool.ref, 1, 2, &in_b1, "query.b1");
  const Range r16 = replay(*st_.model, pool.ref, 16, 8, &in_b16, "query.b16");
  replay(*st_.int8, pool.ref_int8, 1, 1, nullptr, "query.b1_int8");
  replay(*st_.int8, pool.ref_int8, 16, 4, nullptr, "query.b16_int8");

  const std::map<std::string, double> op_model = modeled_ops(*st_.model);
  // Per-query stage self times; returns the untraced per-query time.
  auto report = [&](const std::string& tag, const Range& rg, const char* root,
                    double per_call) {
    const Tracer::Totals q = tracer.totals(root, rg.from, rg.to);
    const double queries = static_cast<double>(q.count) * per_call;
    const double untraced = rg.untraced_ns / queries;
    double sum = 0.0;
    for (const char* stage : kStages) {
      const double ns =
          tracer.totals(std::string("tabular.") + stage, rg.from, rg.to).self_ns / queries;
      sum += ns;
      metric("tabular." + tag + "." + stage + "_ns", ns, "ns");
      if (tag == "b16" && op_model.count(stage)) {
        metric(std::string("tabular.ns_per_op.") + stage, ns / op_model.at(stage), "ns");
      }
    }
    metric("tabular." + tag + ".stage_sum_ratio", sum / untraced, "ratio");
    metric("bench." + tag + ".traced_over_untraced", q.total_ns / rg.untraced_ns, "ratio");
    return untraced;
  };
  const double untraced_b1 = report("b1", r1, "query.b1", 1.0);
  const double untraced_b16 = report("b16", r16, "query.b16", 16.0);
  for (const auto& [stage, count] : op_model) metric("tabular.ops." + stage, count, "count");

  // Encoders alone, on the rows each linear kernel really saw.
  auto encode_ns = [](const KernelInputs& in, double queries) {
    std::vector<std::uint32_t> codes;
    std::vector<double> rounds;
    for (int r = 0; r < 15; ++r) {
      const std::uint64_t t0 = now_ns();
      for (const KernelInputs::Call& c : in.calls) {
        const std::size_t cs = c.kernel->num_subspaces();
        const std::size_t sub = c.kernel->in_dim() / cs;
        codes.resize(c.n);
        for (std::size_t k = 0; k < cs; ++k) {
          c.kernel->encoder(k).encode_batch(c.rows.data() + k * sub, c.stride, c.n,
                                            codes.data());
        }
      }
      rounds.push_back(static_cast<double>(now_ns() - t0) / queries);
    }
    return median(rounds);
  };
  const double e1 = encode_ns(in_b1, 256.0);
  const double e16 = encode_ns(in_b16, 256.0);
  metric("pq.b1.encode_ns", e1, "ns");
  metric("pq.b1.encode_share", e1 / untraced_b1, "ratio");
  metric("pq.b16.encode_ns", e16, "ns");
  metric("pq.b16.encode_share", e16 / untraced_b16, "ratio");
}

}  // namespace

std::unique_ptr<Phase> make_query_phase(const RunOptions& opts, const Setup& st,
                                        Tracer& tracer) {
  return std::make_unique<QueryPhase>(opts, st, tracer);
}

}  // namespace perfbench
