// tune-sim: the paper's "rapid tuning" path.  A closed loop with one
// caller runs FusionEngine::fuse on the sim backend over a seeded draw of
// distinct chains — search, model and simulator time only, with no
// codegen, compiler or socket on the path.
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gpu/spec.hpp"
#include "search/space.hpp"
#include "verify/verify.hpp"

namespace perfbench {
namespace {

/// A tuned chain meets the latency limit when it answers within this
/// long; serve_max_rps counts the chains per second that do.
constexpr double kLatencyLimitMs = 250.0;
/// Set-ups per run, spread over the run (the median is reported).
constexpr int kSetups = 15;
/// Chains re-tuned on a fresh engine to check the winners repeat.
constexpr std::size_t kRepeatCheck = 8;
/// Chains per throughput block: 8 whole strata cycles of the draw.
constexpr std::size_t kBlock = 64;
/// Chains drawn during set-up; the loop draws more as it needs them.
constexpr std::size_t kPredrawn = 512;

bool same_winner(const mcf::FusionResult& a, const mcf::FusionResult& b) {
  const mcf::TuningStats& x = a.tuned.stats;
  const mcf::TuningStats& y = b.tuned.stats;
  return a.status == b.status && a.tuned.best.expr_id == b.tuned.best.expr_id &&
         std::vector<std::int64_t>(a.tuned.best.tiles.begin(), a.tuned.best.tiles.end()) ==
             std::vector<std::int64_t>(b.tuned.best.tiles.begin(), b.tuned.best.tiles.end()) &&
         a.tuned.best_time_s == b.tuned.best_time_s && x.generations == y.generations &&
         x.estimates == y.estimates && x.measurements == y.measurements &&
         x.compile_failures == y.compile_failures;
}

}  // namespace

Output run_tune_sim(const RunConfig& cfg) {
  Output out;
  const mcf::GpuSpec gpu = mcf::a100();
  const mcf::FusionEngineOptions opts = sim_engine_options(cfg.nproc);
  const mcf::ChainSpec warmup = mcf::ChainSpec::gemm_chain("warmup", 1, 512, 256, 64, 64);

  // Set-up: engine, the first chains of the draw, and a first tune that
  // pays any lazy start-up (thread pool, backend state).  The loop below
  // repeats it kSetups - 1 times on throwaway copies.
  std::unique_ptr<mcf::FusionEngine> engine;
  std::unique_ptr<ChainDraw> draw;
  const auto set_up = [&] {
    engine = std::make_unique<mcf::FusionEngine>(gpu, opts);
    draw = std::make_unique<ChainDraw>(cfg.seed, "ts", true);
    (void)draw->at(kPredrawn - 1);
    if (!engine->fuse(warmup).ok()) out.errors.push_back("warm-up fuse failed");
  };
  std::vector<OpSpan> setups(1, OpSpan{now_ns(), 0});
  set_up();
  setups.back().end_ns = now_ns();
  const auto spare_set_up = [&] {
    const mcf::FusionEngine spare(gpu, opts);
    ChainDraw spare_draw(cfg.seed, "ts", true);
    (void)spare_draw.at(kPredrawn - 1);
    if (!spare.fuse(warmup).ok()) out.errors.push_back("warm-up fuse failed");
  };

  // compile_s: tuning time of the paper's Table II/III suite on a fresh
  // engine (Table IV's quantity); the winners must repeat every pass.
  const std::vector<mcf::ChainSpec> suite = paper_suite();
  std::vector<OpSpan> compile_runs;
  std::vector<double> suite_gflops;
  const auto compile_pass = [&] {
    const mcf::FusionEngine fresh(gpu, opts);
    std::vector<double> g;
    for (const mcf::ChainSpec& c : suite) {
      const mcf::FusionResult r = fresh.fuse(c);
      ++out.attempted;
      if (!r.ok()) out.fail(c.name() + ": suite chain failed");
      g.push_back(gflops(c, r.time_s()));
    }
    if (!suite_gflops.empty() && g != suite_gflops) out.fail("suite winners differ between passes");
    suite_gflops = std::move(g);
  };

  // The closed loop.  A traced run spends its first half untraced (the
  // reference rate for the tracing overhead) and traces the second.
  Tracer tracer;
  Tracer* tp = nullptr;
  TuneTotals totals;
  std::vector<OpSpan> ops;
  std::vector<double> sim_us;
  std::vector<mcf::FusionResult> results;
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
    const mcf::ChainSpec& chain = draw->at(n);
    double build_s = 0.0;
    if (tp != nullptr) {
      // The engine builds the space inside fuse(); the benchmark builds
      // the same space once more to learn what that share costs.
      const Tracer::Scope probe(tp, "probe.search_space", n);
      const std::int64_t b0 = now_ns();
      const mcf::SearchSpace space(chain, opts.space, opts.prune, opts.sched);
      build_s = secs_since(b0);
    }
    const std::int64_t t0 = now_ns();
    mcf::FusionResult r;
    {
      const Tracer::Scope op(tp, "op", n);
      const Tracer::Scope fuse(tp, "engine.fuse", n);
      r = engine->fuse(chain);
      if (tp != nullptr) {
        const std::int64_t end = now_ns();
        tp->add("search.space_build", fuse.start_ns(),
                fuse.start_ns() + static_cast<std::int64_t>(build_s * 1e9),
                fuse.id(), n);
        add_tuner_spans(tp, r.tuned.stats, fuse.id(), end, n);
      }
    }
    ops.push_back({t0, now_ns()});
    const double wall = ops.back().ms() * 1e-3;
    ++out.attempted;
    if (!r.ok()) {
      out.fail(chain.name() + ": " + mcf::fusion_status_name(r.status) + " " + r.reason);
    } else {
      sim_us.push_back(r.time_s() * 1e6);
    }
    if (tp != nullptr) totals.add(r, build_s, wall);
    results.push_back(std::move(r));
  }
  const double elapsed = clock.now();
  clock.finish(kSetups, setups, spare_set_up);
  clock.finish(kCompilePasses, compile_runs, compile_pass);

  // Every winner must be Ok and provably memory-safe.
  std::size_t safe = 0, checked = 0;
  double verify_s = 0.0;
  for (const mcf::FusionResult& r : results) {
    if (!r.ok() || !r.kernel.has_value()) continue;
    const std::int64_t v0 = now_ns();
    const bool ok = mcf::verify::verify_schedule(r.kernel->schedule()).safe();
    verify_s += secs_since(v0);
    ++checked;
    if (ok) {
      ++safe;
    } else {
      out.fail(r.kernel->schedule().chain().name() + ": winner not verify-safe");
    }
  }

  // The same seed must give the same winners: re-tune a prefix of the
  // draw on a fresh engine and compare winners and search counts.
  {
    const mcf::FusionEngine fresh(gpu, opts);
    for (std::size_t i = 0; i < kRepeatCheck && i < results.size(); ++i) {
      ++out.attempted;
      if (!same_winner(fresh.fuse(draw->at(i)), results[i])) {
        out.fail(draw->at(i).name() + ": winner differs on a repeat run");
      }
    }
  }

  const BlockStats bs = block_stats(ops, kBlock, *cfg.steal);
  std::size_t within = 0;
  for (const double l : bs.lat_ms) within += l <= kLatencyLimitMs ? 1 : 0;
  std::printf("# tune-sim: %zu chains in %.3f s (%zu verified safe of %zu), "
              "%zu of %zu blocks clean, latency limit %.0f ms\n",
              ops.size(), elapsed, safe, checked, bs.clean, bs.blocks, kLatencyLimitMs);
  out.e2e["setup_s"] = clean_median_ms(setups, *cfg.steal) * 1e-3;
  out.e2e["ops_per_s"] = median(bs.rates);
  out.e2e["latency_ms_p50"] = quantile(bs.lat_ms, 0.50);
  out.e2e["latency_ms_p99"] = block_quantile(bs.lat_ms, 0.99);
  out.e2e["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted);
  out.e2e["tuned_time_us_geomean"] = geomean(sim_us);
  out.e2e["compile_s"] = clean_median_ms(compile_runs, *cfg.steal) * 1e-3;
  out.e2e["kernel_gflops"] = geomean(suite_gflops);
  out.e2e["serve_max_rps"] = out.e2e["ops_per_s"] * static_cast<double>(within) /
                             static_cast<double>(bs.lat_ms.size());
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  if (cfg.trace) {
    const double traced_s = elapsed - traced_t0;
    const double traced_rate = static_cast<double>(n - traced_from) / traced_s;
    out.layer["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate;
    totals.emit(out);
    out.layer["verify.schedule_us"] = checked ? verify_s * 1e6 / checked : 0.0;
    out.layer["verify.safe_frac"] = checked ? static_cast<double>(safe) / checked : 0.0;
    finish_trace(tracer, cfg, out);
  }
  return out;
}

}  // namespace perfbench
