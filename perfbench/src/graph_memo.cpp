// graph-memo: the paper's end-to-end path (§VI-C).  A closed loop of
// FusionEngine::fuse_graph calls on one long-lived engine (jobs = nproc)
// over seeded (model, sequence length) pairs, a fixed share of which
// repeat an earlier pair.  Repeats read the engine's result memo, fresh
// pairs tune and write it, and every call runs the graph partitioner and
// the digest dedup — so a memo or partitioner change that helps one use
// and costs the other shows here.
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "gpu/spec.hpp"
#include "graph/bert.hpp"
#include "graph/mixer.hpp"
#include "graph/partitioner.hpp"
#include "search/space.hpp"
#include "verify/verify.hpp"
#include "workloads/suites.hpp"

namespace perfbench {
namespace {

constexpr double kLatencyLimitMs = 1000.0;
constexpr int kSetups = 15;
/// Share of calls that repeat an earlier (model, seq) pair (3 of 4).
constexpr double kRepeatShare = 0.75;
/// Fresh pairs replayed on a fresh engine to check the winners repeat.
constexpr std::size_t kRepeatCheck = 4;
/// Calls per throughput block: one whole model x band cycle of fresh
/// pairs (20) with their 60 repeats.
constexpr std::size_t kBlock = 80;
/// Calls whose graphs are built during set-up.
constexpr std::size_t kPrebuilt = 64;

const std::vector<std::string>& models() {
  static const std::vector<std::string> k = {"bert-small", "bert-base", "bert-large",
                                             "mixer-small", "mixer-base"};
  return k;
}

/// The model's encoder graph at sequence length `seq` (0 = its default).
mcf::NetGraph build_model(const std::string& model, std::int64_t seq) {
  if (model.rfind("bert", 0) == 0) {
    mcf::BertConfig cfg = model == "bert-small"   ? mcf::bert_small()
                          : model == "bert-large" ? mcf::bert_large()
                                                  : mcf::bert_base();
    if (seq > 0) cfg.seq_len = seq;
    return mcf::build_bert(cfg);
  }
  mcf::MixerConfig cfg = model == "mixer-small" ? mcf::mixer_small() : mcf::mixer_base();
  if (seq > 0) cfg.patches = seq;
  return mcf::build_mixer(cfg);
}

/// Seeded stream of (model, seq) calls.  Every block of 4 calls holds
/// one pair not seen before and 3 repeats of uniformly chosen earlier
/// pairs (kRepeatShare).  Fresh pairs take the five models in turn and a
/// sequence length from four bands of 64..1024 in turn (multiples of 4),
/// so every run of 80 calls has the same mix of tuning costs whatever
/// the seed.  A (model, band) whose 61 lengths are used up repeats.
class PairDraw {
 public:
  explicit PairDraw(std::uint64_t seed) : rng_(seed ^ 0x6752415048ULL) {}

  /// Index of the i-th call's pair, and whether it is a repeat.
  std::pair<std::size_t, bool> at(std::size_t i) {
    while (calls_.size() <= i) {
      const std::size_t f = calls_.size() / 4;  // fresh pairs so far, if none ran out
      const std::string& model = models()[f % models().size()];
      const std::int64_t band = static_cast<std::int64_t>((f / models().size()) % 4);
      std::string key;
      std::int64_t seq = 0;
      if (calls_.size() % 4 == 0 && used_[model + std::to_string(band)]++ < 61) {
        do {
          seq = 64 + band * 240 + 4 * static_cast<std::int64_t>(rng_.below(61));
          key = model + "@" + std::to_string(seq);
        } while (!seen_.insert(key).second);
        pairs_.emplace_back(model, seq);
        graphs_.push_back(std::make_unique<mcf::NetGraph>(build_model(model, seq)));
        calls_.emplace_back(pairs_.size() - 1, false);
      } else {
        calls_.emplace_back(rng_.below(pairs_.size()), true);
      }
    }
    return calls_[i];
  }
  const mcf::NetGraph& graph(std::size_t pair) const { return *graphs_[pair]; }
  const std::pair<std::string, std::int64_t>& pair(std::size_t k) const { return pairs_[k]; }

 private:
  SeededRng rng_;
  std::unordered_set<std::string> seen_;
  std::map<std::string, int> used_;  ///< fresh draws per (model, band)
  std::vector<std::pair<std::string, std::int64_t>> pairs_;
  std::vector<std::unique_ptr<mcf::NetGraph>> graphs_;
  std::vector<std::pair<std::size_t, bool>> calls_;
};

struct ChainKey {
  double time_s;
  int measurements, estimates, generations;
  bool operator==(const ChainKey&) const = default;
};

std::vector<ChainKey> winners(const mcf::GraphFusionReport& rep) {
  std::vector<ChainKey> out;
  for (const auto& c : rep.chains) {
    const mcf::TuningStats& st = c.result->tuned.stats;
    out.push_back({c.result->time_s(), st.measurements, st.estimates, st.generations});
  }
  return out;
}

}  // namespace

Output run_graph_memo(const RunConfig& cfg) {
  Output out;
  const mcf::GpuSpec gpu = mcf::a100();
  const mcf::FusionEngineOptions opts = sim_engine_options(cfg.nproc);

  // Set-up: engine, the graphs of the first calls, and a first call that
  // starts the engine's workers (seq 60 lies outside the draw).  The loop
  // repeats it kSetups - 1 times on throwaway copies.
  const mcf::NetGraph warmup = build_model("bert-small", 60);
  std::unique_ptr<mcf::FusionEngine> engine;
  std::unique_ptr<PairDraw> draw;
  const auto set_up = [&](std::unique_ptr<mcf::FusionEngine>& e,
                          std::unique_ptr<PairDraw>& d) {
    e = std::make_unique<mcf::FusionEngine>(gpu, opts);
    d = std::make_unique<PairDraw>(cfg.seed);
    (void)d->at(kPrebuilt - 1);
    if (!e->fuse_graph(warmup).all_ok()) out.errors.push_back("warm-up fuse_graph failed");
  };
  std::vector<OpSpan> setups(1, OpSpan{now_ns(), 0});
  set_up(engine, draw);
  setups.back().end_ns = now_ns();
  const auto spare_set_up = [&] {
    std::unique_ptr<mcf::FusionEngine> e;
    std::unique_ptr<PairDraw> d;
    set_up(e, d);
  };

  // compile_s: cold fuse_graph of the five §VI-C models at sequence
  // lengths 128, 256, 384 and 512 on a fresh engine; the winners must
  // repeat every pass.
  std::vector<mcf::NetGraph> zoo;
  for (const std::string& m : models()) {
    for (const std::int64_t seq : {128, 256, 384, 512}) zoo.push_back(build_model(m, seq));
  }
  std::vector<OpSpan> compile_runs;
  std::vector<double> model_gflops;
  const auto compile_pass = [&] {
    mcf::FusionEngine fresh(gpu, opts);
    std::vector<double> g;
    for (const mcf::NetGraph& graph : zoo) {
      const mcf::GraphFusionReport rep = fresh.fuse_graph(graph);
      ++out.attempted;
      if (!rep.all_ok()) out.fail(graph.name() + ": model fuse failed");
      for (const auto& c : rep.chains) {
        g.push_back(gflops(c.result->kernel->schedule().chain(), c.result->time_s()));
      }
    }
    if (!model_gflops.empty() && g != model_gflops) out.fail("model winners differ between passes");
    model_gflops = std::move(g);
  };

  Tracer tracer;
  Tracer* tp = nullptr;
  TuneTotals totals;
  std::vector<OpSpan> ops;
  std::vector<double> fresh_ms, hit_ms, sim_us, overhead_ms, partition_ms;
  std::vector<std::shared_ptr<const mcf::FusionResult>> tuned;
  std::vector<std::pair<std::size_t, std::vector<ChainKey>>> fresh_calls;
  double subgraphs = 0, distinct = 0, reused = 0;
  std::size_t n = 0, traced_from = 0;
  double untraced_rate = 0.0, traced_t0 = 0.0;
  LoopClock clock;
  for (;; ++n) {
    clock.at_slot(kSetups, cfg.seconds, setups, spare_set_up);
    clock.at_slot(kCompilePasses, cfg.seconds, compile_runs, compile_pass);
    const double elapsed = clock.now();
    if (elapsed >= cfg.seconds) break;
    if (cfg.trace && tp == nullptr && elapsed >= cfg.seconds / 2) {
      untraced_rate = static_cast<double>(n) / elapsed;
      tp = &tracer;
      traced_from = n;
      traced_t0 = elapsed;
    }
    const auto [pair, repeat] = draw->at(n);
    const mcf::NetGraph& g = draw->graph(pair);
    double part_s = 0.0;
    if (tp != nullptr) {
      // fuse_graph partitions internally; the benchmark partitions once
      // more to learn what that share costs.
      const Tracer::Scope probe(tp, "probe.graph_partition", n);
      const std::int64_t p0 = now_ns();
      (void)mcf::partition_mbci(g, gpu);
      part_s = secs_since(p0);
      partition_ms.push_back(part_s * 1e3);
    }
    const std::int64_t t0 = now_ns();
    mcf::GraphFusionReport rep;
    {
      const Tracer::Scope op(tp, "op", n);
      const Tracer::Scope call(tp, "engine.fuse_graph", n);
      rep = engine->fuse_graph(g);
      if (tp != nullptr) {
        const std::int64_t end = now_ns();
        tp->add("graph.partition", call.start_ns(),
                call.start_ns() + static_cast<std::int64_t>(part_s * 1e9), call.id(), n);
        for (const auto& c : rep.chains) {
          if (!c.reused) add_tuner_spans(tp, c.result->tuned.stats, call.id(), end, n);
        }
      }
    }
    ops.push_back({t0, now_ns()});
    const double wall = ops.back().ms() * 1e-3;
    (rep.tuned_chains > 0 ? fresh_ms : hit_ms).push_back(wall * 1e3);
    ++out.attempted;
    if (!rep.all_ok() || rep.mbci_subgraphs == 0) {
      std::string why;
      for (const auto& c : rep.chains) {
        if (!c.result->ok()) why += " " + c.chain_desc + ": " + c.result->reason;
      }
      out.fail(g.name() + " seq " + std::to_string(draw->pair(pair).second) +
               ": fuse_graph not ok (" + std::to_string(rep.mbci_subgraphs) +
               " MBCI subgraphs)" + why);
      continue;
    }
    if (!repeat && rep.tuned_chains == rep.distinct_chains &&
        fresh_calls.size() < kRepeatCheck) {
      fresh_calls.emplace_back(pair, winners(rep));
    }
    double build_s = 0.0;
    for (const auto& c : rep.chains) {
      if (c.reused) continue;
      tuned.push_back(c.result);
      sim_us.push_back(c.result->time_s() * 1e6);
      if (tp != nullptr) {
        const std::int64_t b0 = now_ns();
        const mcf::SearchSpace space(c.result->kernel->schedule().chain(), opts.space,
                                     opts.prune, opts.sched);
        const double b = secs_since(b0);
        build_s += b;
        totals.add(*c.result, b, 0.0);
      }
    }
    if (tp != nullptr) {
      subgraphs += rep.mbci_subgraphs;
      distinct += rep.distinct_chains;
      for (const auto& c : rep.chains) reused += c.reused ? 1 : 0;
      if (rep.tuned_chains > 0) {
        overhead_ms.push_back((wall - rep.tuning_wall_s - part_s - build_s) * 1e3);
      }
    }
  }
  const double elapsed = clock.now();
  clock.finish(kSetups, setups, spare_set_up);
  clock.finish(kCompilePasses, compile_runs, compile_pass);

  // Correctness: every winner verify-safe; the engine's admission
  // identity holds; the first fresh pairs tune identically on a fresh
  // engine.
  std::size_t safe = 0;
  double verify_s = 0.0;
  for (const auto& r : tuned) {
    const std::int64_t v0 = now_ns();
    const bool ok = r->kernel.has_value() &&
                    mcf::verify::verify_schedule(r->kernel->schedule()).safe();
    verify_s += secs_since(v0);
    if (ok) {
      ++safe;
    } else {
      out.fail("graph winner not verify-safe");
    }
  }
  const mcf::EngineStats st = engine->stats();
  const bool identity = st.submitted == st.completed + st.rejected + st.cancelled +
                                            st.deadline_exceeded;
  if (!identity) out.fail("engine accounting identity broken");
  {
    mcf::FusionEngine fresh(gpu, opts);
    for (const auto& [pair, keys] : fresh_calls) {
      ++out.attempted;
      if (winners(fresh.fuse_graph(draw->graph(pair))) != keys) {
        out.fail(draw->pair(pair).first + "@" + std::to_string(draw->pair(pair).second) +
                 ": winners differ on a repeat run");
      }
    }
  }

  const BlockStats bs = block_stats(ops, kBlock, *cfg.steal);
  std::size_t within = 0;
  for (const double l : bs.lat_ms) within += l <= kLatencyLimitMs ? 1 : 0;
  std::printf("# graph-memo: %zu calls in %.3f s (%zu fresh, %zu memo hits; "
              "repeat share %.2f), %zu distinct chains tuned, %zu of %zu blocks clean\n",
              ops.size(), elapsed, fresh_ms.size(), hit_ms.size(), kRepeatShare,
              tuned.size(), bs.clean, bs.blocks);
  out.e2e["setup_s"] = clean_median_ms(setups, *cfg.steal) * 1e-3;
  out.e2e["ops_per_s"] = median(bs.rates);
  out.e2e["latency_ms_p50"] = quantile(bs.lat_ms, 0.50);
  out.e2e["latency_ms_p99"] = block_quantile(bs.lat_ms, 0.99);
  out.e2e["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted);
  out.e2e["tuned_time_us_geomean"] = geomean(sim_us);
  out.e2e["compile_s"] = clean_median_ms(compile_runs, *cfg.steal) * 1e-3;
  out.e2e["kernel_gflops"] = geomean(model_gflops);
  out.e2e["serve_max_rps"] = out.e2e["ops_per_s"] * static_cast<double>(within) /
                             static_cast<double>(bs.lat_ms.size());
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  if (cfg.trace) {
    const double traced_rate = static_cast<double>(n - traced_from) / (elapsed - traced_t0);
    out.layer["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate;
    totals.emit(out);
    out.layer["engine.fuse_overhead_ms"] = mean(overhead_ms);
    out.layer["engine.memo_hit_ratio"] = distinct > 0 ? reused / distinct : 0.0;
    out.layer["engine.dedup_ratio"] = distinct > 0 ? subgraphs / distinct : 0.0;
    out.layer["engine.rejected"] = static_cast<double>(st.rejected);
    out.layer["engine.identity_ok"] = identity ? 1.0 : 0.0;
    out.layer["engine.fresh_latency_ms_p50"] = quantile(fresh_ms, 0.5);
    out.layer["engine.memo_hit_latency_ms_p50"] = quantile(hit_ms, 0.5);
    out.layer["graph.partition_ms"] = mean(partition_ms);
    out.layer["graph.mbci_subgraphs"] =
        subgraphs / static_cast<double>(std::max<std::size_t>(1, n - traced_from));
    out.layer["verify.schedule_us"] = tuned.empty() ? 0.0 : verify_s * 1e6 / tuned.size();
    out.layer["verify.safe_frac"] =
        tuned.empty() ? 0.0 : static_cast<double>(safe) / tuned.size();
    finish_trace(tracer, cfg, out);
  }
  return out;
}

}  // namespace perfbench
