// kernel-native: the "fast fused kernels" claim plus the cold-compile
// cost.  A fixed, committed list of schedules is compiled cold through
// jit::prepare_kernels into a fresh private cache, then every JitKernel
// runs repeatedly at nproc threads and at 1 thread, each output checked
// against the tensor/ops reference.  No search runs: the list is chosen
// by hand, so a tuner change cannot move this workload.

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/codegen.hpp"
#include "exec/interpreter.hpp"
#include "exec/jit.hpp"
#include "gpu/spec.hpp"
#include "search/space.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "verify/verify.hpp"

namespace perfbench {
namespace {

/// A kernel run meets the latency limit when it finishes within this long.
constexpr double kLatencyLimitMs = 50.0;
constexpr int kSetups = 5;
/// Rounds of the whole list per statistics block.
constexpr std::size_t kRoundsPerBlock = 10;
/// Cold compiles of the list per run (the median is compile_s).
constexpr int kCompilePassesNative = 5;
/// Share of the run spent at nproc threads; the rest runs 1-threaded.
constexpr double kMultiThreadShare = 0.7;

/// One committed schedule: chain, expression (by its rendering, resolved
/// to an id in the chain's SearchSpace) and tile per loop.
struct KernelSpec {
  const char* name;
  bool attention;
  std::int64_t batch, m;
  std::vector<std::int64_t> inner;  ///< attention: {k, n, h}
  std::vector<mcf::Epilogue> epilogues;
  const char* expr;
  std::vector<std::int64_t> tiles;
};

/// gemm, attention and epilogue chains; deep and flat expressions;
/// "-ragged" entries have extents that are not multiples of 16.
const std::vector<KernelSpec>& kernel_list() {
  using E = mcf::Epilogue;
  static const std::vector<KernelSpec> k = {
      {"gemm-g1", false, 1, 512, {64, 256, 64}, {}, "[mh]kn", {64, 64, 64, 64}},
      {"gemm-g7-flat", false, 1, 512, {128, 512, 128}, {}, "[m]n(k,h)", {64, 128, 64, 128}},
      {"gemm-ragged", false, 2, 200, {72, 136, 40}, {}, "[mh]nk", {16, 72, 136, 40}},
      {"attn", true, 4, 256, {64, 256, 64}, {}, "[mh]kn", {64, 64, 64, 64}},
      {"attn-flat", true, 8, 128, {64, 128, 64}, {}, "[m]n(k,h)", {32, 64, 32, 64}},
      {"attn-ragged", true, 2, 200, {40, 120, 40}, {}, "[m]n(k,h)", {16, 40, 120, 40}},
      {"gelu2", false, 2, 384, {96, 384, 96}, {E::Gelu}, "[hm]kn", {64, 96, 64, 96}},
      {"relu2", false, 1, 512, {128, 256, 128}, {E::Relu}, "[mh]nk", {64, 128, 64, 64}},
      {"gemm3", false, 1, 256, {64, 256, 64, 64}, {}, "[mg]khn", {64, 64, 128, 64, 16}},
      {"gelu3-ragged", false, 1, 192, {48, 112, 80, 48}, {E::Gelu, E::Gelu},
       "[mg]khn", {32, 48, 112, 16, 16}},
      {"relu2-ragged", false, 3, 100, {36, 200, 52}, {E::Relu}, "[m]n(k,h)", {100, 36, 16, 52}},
  };
  return k;
}

/// Everything one kernel of the list needs at run time.
struct Case {
  std::unique_ptr<mcf::ChainSpec> chain;  ///< the schedule points into it
  std::unique_ptr<mcf::Schedule> schedule;
  mcf::Tensor a;
  std::vector<mcf::Tensor> w;
  mcf::Tensor ref, out;
  std::unique_ptr<mcf::JitKernel> kernel;
};

/// Reference output from tensor/ops: attention_reference for attention
/// modules, gemm_chain_reference for 2-op chains, batched_gemm plus the
/// epilogue op by op for longer ones.
mcf::Tensor reference(const mcf::ChainSpec& c, const mcf::Tensor& a,
                      const std::vector<mcf::Tensor>& w) {
  const std::int64_t b = c.batch();
  mcf::Tensor out(mcf::Shape{b, c.m(), c.inner().back()});
  if (c.epilogue(0) == mcf::Epilogue::OnlineSoftmax) {
    mcf::ops::attention_reference(a, w[0], w[1], c.softmax_scale(), out);
    return out;
  }
  const auto mid = [](mcf::Epilogue e) {
    return e == mcf::Epilogue::Relu   ? mcf::ops::ChainEpilogue::Relu
           : e == mcf::Epilogue::Gelu ? mcf::ops::ChainEpilogue::Gelu
                                      : mcf::ops::ChainEpilogue::None;
  };
  if (c.num_ops() == 2) {
    mcf::ops::gemm_chain_reference(a, w[0], w[1], out, mid(c.epilogue(0)));
    return out;
  }
  mcf::Tensor x = a;
  for (int op = 0; op < c.num_ops(); ++op) {
    mcf::Tensor y(mcf::Shape{b, c.m(), c.inner()[static_cast<std::size_t>(op) + 1]});
    mcf::ops::batched_gemm(x, w[static_cast<std::size_t>(op)], y);
    if (c.epilogue(op) == mcf::Epilogue::Relu) {
      mcf::Tensor t(y.shape());
      mcf::ops::relu(y, t);
      y = std::move(t);
    } else if (c.epilogue(op) == mcf::Epilogue::Gelu) {
      mcf::Tensor t(y.shape());
      mcf::ops::gelu(y, t);
      y = std::move(t);
    }
    x = std::move(y);
  }
  return x;
}

/// Seeded input and weights of `chain`.
void make_inputs(const mcf::ChainSpec& ch, SeededRng& rng, mcf::Tensor* a,
                 std::vector<mcf::Tensor>* w) {
  *a = mcf::Tensor(mcf::Shape{ch.batch(), ch.m(), ch.inner().front()});
  a->fill_random(rng.next());
  w->clear();
  for (int op = 0; op < ch.num_ops(); ++op) {
    const std::int64_t rows = ch.inner()[static_cast<std::size_t>(op)];
    mcf::Tensor t(mcf::Shape{ch.batch(), rows, ch.inner()[static_cast<std::size_t>(op) + 1]});
    t.fill_random(rng.next());
    // Unit-scale activations keep the 1e-4 relative check meaningful
    // through 3-op chains.
    const float scale = 1.0f / std::sqrt(static_cast<float>(rows));
    for (float& v : t.data()) v *= scale;
    w->push_back(std::move(t));
  }
}

/// Known-defect probe, reported as a count rather than a failure: some
/// schedules of 3-op chains pass Rule 2 and the verifier yet compute the
/// wrong result (a consumer's compute is placed before its producer's).
/// Counts such schedules in the pruned space of one fixed chain by
/// running each through the interpreter against tensor/ops; 0 once the
/// schedule construction is fixed.
int wrong_output_schedules(std::uint64_t seed) {
  const mcf::ChainSpec chain("probe-gemm3", 1, 128, {32, 64, 32, 32});
  const mcf::FusionEngineOptions opts = sim_engine_options(1);
  mcf::PruneOptions prune = opts.prune;
  prune.smem_limit_bytes = mcf::a100().smem_per_block;
  const mcf::SearchSpace space(chain, opts.space, prune, opts.sched);
  SeededRng rng(seed);
  mcf::Tensor a;
  std::vector<mcf::Tensor> w;
  make_inputs(chain, rng, &a, &w);
  const mcf::Tensor ref = reference(chain, a, w);
  mcf::Tensor out(ref.shape());
  int wrong = 0;
  for (const mcf::CandidateConfig& c : space.candidates()) {
    (void)mcf::Interpreter(space.schedule_for(c)).run(a, w, out);
    wrong += mcf::allclose(out, ref, 1e-4, 1e-5) ? 0 : 1;
  }
  return wrong;
}

/// Builds the list's chains, schedules, seeded inputs and references;
/// reports the mean search-space build time and prune survival.
std::vector<Case> build_cases(std::uint64_t seed, Output& out, double* space_ms,
                              double* survival) {
  const mcf::GpuSpec gpu = mcf::a100();
  const mcf::FusionEngineOptions opts = sim_engine_options(1);
  mcf::PruneOptions prune = opts.prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  std::vector<Case> cases;
  *space_ms = *survival = 0.0;
  SeededRng rng(seed ^ 0x4B45524EULL);
  for (const KernelSpec& k : kernel_list()) {
    Case c;
    c.chain = k.attention
                  ? std::make_unique<mcf::ChainSpec>(mcf::ChainSpec::attention(
                        k.name, k.batch, k.m, k.inner[1], k.inner[0], k.inner[2]))
                  : std::make_unique<mcf::ChainSpec>(k.name, k.batch, k.m, k.inner,
                                                     k.epilogues);
    const std::int64_t t0 = now_ns();
    const mcf::SearchSpace space(*c.chain, opts.space, prune, opts.sched);
    *space_ms += secs_since(t0) * 1e3;
    *survival += static_cast<double>(space.candidates().size()) / space.funnel().original;
    mcf::CandidateConfig cfg;
    for (std::size_t e = 0; e < space.expressions().size(); ++e) {
      if (space.expressions()[e].to_string(*c.chain) == k.expr) cfg.expr_id = static_cast<int>(e);
    }
    for (const std::int64_t t : k.tiles) cfg.tiles.push_back(t);
    if (cfg.expr_id < 0) {
      out.errors.push_back(std::string(k.name) + ": expression " + k.expr +
                           " not in the space");
      continue;
    }
    c.schedule = std::make_unique<mcf::Schedule>(space.schedule_for(cfg));
    if (!c.schedule->valid() || !c.schedule->consume_complete()) {
      out.errors.push_back(std::string(k.name) + ": schedule is not lowerable");
      continue;
    }
    make_inputs(*c.chain, rng, &c.a, &c.w);
    c.ref = reference(*c.chain, c.a, c.w);
    c.out = mcf::Tensor(c.ref.shape());
    cases.push_back(std::move(c));
  }
  *space_ms /= static_cast<double>(kernel_list().size());
  *survival /= static_cast<double>(kernel_list().size());
  return cases;
}

std::int64_t dir_bytes(const std::string& dir, const char* ext) {
  std::int64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ext) total += static_cast<std::int64_t>(e.file_size(ec));
  }
  return total;
}

/// Runs one kernel once (traced as op `op` when `tp` is set) and checks
/// its output; returns the run's span.
OpSpan run_checked(Case& c, int threads, Output& out, Tracer* tp = nullptr,
                   std::uint64_t op = 0) {
  std::fill(c.out.data().begin(), c.out.data().end(),
            std::numeric_limits<float>::quiet_NaN());
  OpSpan span{now_ns(), 0};
  {
    const Tracer::Scope root(tp, "op", op);
    const Tracer::Scope run(tp, "exec.jit_run", op);
    c.kernel->run(c.a, c.w, c.out, threads);
  }
  span.end_ns = now_ns();
  ++out.attempted;
  if (!mcf::allclose(c.out, c.ref, 1e-4, 1e-5)) {
    out.fail(c.chain->name() + " at " + std::to_string(threads) +
             " thread(s): max rel diff " +
             std::to_string(mcf::max_rel_diff(c.out, c.ref)) + " vs tensor/ops");
  }
  return span;
}

/// Median run time (s) of each kernel over the clean blocks of
/// round-robin runs (a block holds whole rounds of the list).
std::vector<double> per_kernel_median(const BlockStats& bs, std::size_t kernels) {
  std::vector<std::vector<double>> by(kernels);
  for (std::size_t i = 0; i < bs.lat_ms.size(); ++i) by[i % kernels].push_back(bs.lat_ms[i] * 1e-3);
  std::vector<double> out;
  for (auto& v : by) out.push_back(median(std::move(v)));
  return out;
}

}  // namespace

Output run_kernel_native(const RunConfig& cfg) {
  Output out;
  // Set-up: the list's spaces, schedules, seeded inputs and references.
  // The run loop repeats it kSetups - 1 times on throwaway copies.
  std::vector<OpSpan> setups(1, OpSpan{now_ns(), 0});
  double space_ms = 0.0, survival = 0.0;
  std::vector<Case> cases = build_cases(cfg.seed, out, &space_ms, &survival);
  setups.back().end_ns = now_ns();
  const auto spare_set_up = [&] {
    double ms = 0.0, surv = 0.0;
    (void)build_cases(cfg.seed, out, &ms, &surv);
  };
  Tracer tracer;
  Tracer* tp = cfg.trace ? &tracer : nullptr;

  // Static safety of every schedule before anything is compiled.
  std::size_t safe = 0;
  double verify_s = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Tracer::Scope span(tp, "verify.schedule", i);
    const std::int64_t t0 = now_ns();
    const bool ok = mcf::verify::verify_schedule(*cases[i].schedule).safe();
    verify_s += secs_since(t0);
    ++out.attempted;
    if (ok) {
      ++safe;
    } else {
      out.fail(cases[i].chain->name() + ": schedule not verify-safe");
    }
  }
  double emit_s = 0.0, source_bytes = 0.0;
  if (tp != nullptr) {
    // prepare_kernels emits the sources internally; emitting them once
    // more here isolates the codegen layer's cost.
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Tracer::Scope span(tp, "exec.codegen_emit", i);
      const std::int64_t t0 = now_ns();
      const mcf::CppKernelSource src =
          mcf::emit_cpp_kernel(*cases[i].schedule, "perfbench_k" + std::to_string(i));
      emit_s += secs_since(t0);
      source_bytes += static_cast<double>(src.code.size());
    }
  }

  // Cold compiles, each into a fresh private cache (never ~/.cache, never
  // a CI cache) under a gpu key of its own, so each one runs the
  // compiler.  The first builds the kernels the runs use; the run loop
  // repeats it kCompilePassesNative - 1 times.
  const mcf::jit::Toolchain tc = mcf::jit::detect_toolchain();
  if (!tc.ok()) {
    out.fail("no jit toolchain: " + tc.reason);
    return out;
  }
  std::vector<const mcf::Schedule*> batch;
  for (const Case& c : cases) batch.push_back(c.schedule.get());
  std::vector<OpSpan> compile_runs;
  const auto cold_compile = [&] {
    const std::string tag = std::to_string(compile_runs.size());
    const std::string cache = cfg.work_dir + "/jit-cache-" + tag;
    std::filesystem::remove_all(cache);
    std::filesystem::create_directories(cache);
    ::setenv("MCFUSER_JIT_CACHE_DIR", cache.c_str(), 1);
    mcf::jit::prepare_kernels(batch, "perfbench-" + tag, tc);
  };
  const std::string gpu_key = "perfbench-0";
  const std::string cache = cfg.work_dir + "/jit-cache-0";
  const mcf::jit::CompileStats before = mcf::jit::stats_snapshot();
  {
    const Tracer::Scope span(tp, "exec.jit_compile", 0);
    const std::int64_t c0 = now_ns();
    cold_compile();  // names its cache after the passes done so far: 0
    compile_runs.push_back({c0, now_ns()});
  }
  const double compile_s = compile_runs.front().ms() * 1e-3;
  const mcf::jit::CompileStats cs = mcf::jit::stats_snapshot().since(before);
  const double so_bytes = static_cast<double>(dir_bytes(cache, ".so"));
  for (Case& c : cases) {
    c.kernel = std::make_unique<mcf::JitKernel>(*c.schedule, gpu_key);
    if (!c.kernel->ok()) {
      out.fail(c.chain->name() + ": jit: " + c.kernel->error());
      return out;
    }
  }
  std::printf("# kernel-native: %zu kernels, %lld TU(s), cold compile %.3f s "
              "(compiler wall %.3f s) into %s\n",
              cases.size(), static_cast<long long>(cs.tus_compiled), compile_s,
              cs.compile_wall_s, cache.c_str());

  // One untimed (but checked) round per thread count first: the kernels'
  // scratch arenas allocate lazily on the first run.
  for (Case& c : cases) {
    (void)run_checked(c, 0, out);
    (void)run_checked(c, 1, out);
  }

  // Round-robin runs, so every kernel gets the same number of samples.
  // A traced run traces the second half of the nproc-thread phase.
  const double mt_seconds = cfg.seconds * kMultiThreadShare;
  std::vector<OpSpan> mt_runs, st_runs;
  double untraced_rate = 0.0, traced_rate = 0.0;
  {
    std::size_t half = 0;
    Tracer* phase_tp = nullptr;
    LoopClock clock;
    std::uint64_t op = 0;
    while (clock.now() < mt_seconds) {
      clock.at_slot(kSetups, mt_seconds, setups, spare_set_up);
      clock.at_slot(kCompilePassesNative, mt_seconds, compile_runs, cold_compile);
      if (tp != nullptr && phase_tp == nullptr && clock.now() >= mt_seconds / 2) {
        phase_tp = tp;
        half = mt_runs.size();
      }
      for (Case& c : cases) mt_runs.push_back(run_checked(c, 0, out, phase_tp, op++));
    }
    clock.finish(kSetups, setups, spare_set_up);
    clock.finish(kCompilePassesNative, compile_runs, cold_compile);
    const auto rate = [](auto begin, auto end) {
      double ms = 0.0;
      for (auto it = begin; it != end; ++it) ms += it->ms();
      return static_cast<double>(end - begin) / (ms * 1e-3);
    };
    if (tp != nullptr) {
      untraced_rate = rate(mt_runs.begin(), mt_runs.begin() + static_cast<std::ptrdiff_t>(half));
      traced_rate = rate(mt_runs.begin() + static_cast<std::ptrdiff_t>(half), mt_runs.end());
    }
  }
  const std::int64_t st_start = now_ns();
  while (secs_since(st_start) < cfg.seconds - mt_seconds) {
    for (Case& c : cases) st_runs.push_back(run_checked(c, 1, out));
  }
  for (std::size_t i = 0; i < compile_runs.size(); ++i) {
    std::filesystem::remove_all(cfg.work_dir + "/jit-cache-" + std::to_string(i));
  }

  const std::size_t block = kRoundsPerBlock * cases.size();
  const BlockStats mt = block_stats(mt_runs, block, *cfg.steal);
  const BlockStats st = block_stats(st_runs, block, *cfg.steal);
  const std::vector<double> mt_med = per_kernel_median(mt, cases.size());
  const std::vector<double> st_med = per_kernel_median(st, cases.size());
  std::vector<double> gf, mt_us, st_us, scaling, peak_frac, bw_frac;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    const double mt = mt_med[k], st = st_med[k];
    const double flops = c.chain->total_flops();
    const double bytes = static_cast<double>(c.chain->min_traffic_elems()) * sizeof(float);
    gf.push_back(flops / mt * 1e-9);
    mt_us.push_back(mt * 1e6);
    st_us.push_back(st * 1e6);
    scaling.push_back(st / mt);
    if (cfg.fma_gflops_1t > 0) peak_frac.push_back(flops / st * 1e-9 / cfg.fma_gflops_1t);
    if (cfg.triad_gb_s > 0) bw_frac.push_back(bytes / mt * 1e-9 / cfg.triad_gb_s);
    std::printf("# kernel %-14s %9.1f us @%d threads %9.1f us @1 thread %8.2f GFLOP/s\n",
                c.chain->name().c_str(), mt * 1e6, cfg.nproc, st * 1e6, flops / mt * 1e-9);
  }
  std::size_t within = 0;
  for (const double l : mt.lat_ms) within += l <= kLatencyLimitMs ? 1 : 0;
  std::printf("# kernel-native: %zu of %zu blocks of %zu runs clean at %d threads\n",
              mt.clean, mt.blocks, block, cfg.nproc);
  out.e2e["setup_s"] = clean_median_ms(setups, *cfg.steal) * 1e-3;
  // Run throughput per block of whole rounds of the list (busy time
  // only: the output checks between runs are not the kernels' cost).
  out.e2e["ops_per_s"] = median(mt.rates);
  out.e2e["latency_ms_p50"] = quantile(mt.lat_ms, 0.50);
  out.e2e["latency_ms_p99"] = block_quantile(mt.lat_ms, 0.99);
  out.e2e["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted);
  out.e2e["tuned_time_us_geomean"] = geomean(mt_us);
  out.e2e["compile_s"] = clean_median_ms(compile_runs, *cfg.steal) * 1e-3;
  out.e2e["kernel_gflops"] = geomean(gf);
  out.e2e["serve_max_rps"] = out.e2e["ops_per_s"] * static_cast<double>(within) /
                             static_cast<double>(mt.lat_ms.size());
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  if (tp != nullptr) {
    out.layer["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate;
    out.layer["search.space_build_ms"] = space_ms;
    out.layer["search.prune_survival"] = survival;
    out.layer["verify.schedule_us"] = verify_s * 1e6 / static_cast<double>(cases.size());
    out.layer["verify.safe_frac"] = static_cast<double>(safe) / static_cast<double>(cases.size());
    out.layer["exec.codegen_emit_ms"] = emit_s * 1e3 / static_cast<double>(cases.size());
    out.layer["exec.codegen_source_bytes"] = source_bytes;
    out.layer["verify.wrong_output_schedules"] = wrong_output_schedules(cfg.seed);
    out.layer["exec.jit_compile_s_per_kernel"] =
        cs.kernels_compiled > 0 ? cs.compile_wall_s / static_cast<double>(cs.kernels_compiled) : 0.0;
    out.layer["exec.jit_tus"] = static_cast<double>(cs.tus_compiled);
    out.layer["exec.jit_so_bytes"] = so_bytes;
    out.layer["exec.jit_run_us_1t"] = geomean(st_us);
    out.layer["exec.jit_run_us_mt"] = geomean(mt_us);
    out.layer["exec.jit_thread_scaling"] = geomean(scaling);
    out.layer["exec.jit_peak_frac_1t"] = geomean(peak_frac);
    out.layer["exec.jit_bw_frac"] = geomean(bw_frac);
    finish_trace(tracer, cfg, out);
  }
  return out;
}

}  // namespace perfbench
