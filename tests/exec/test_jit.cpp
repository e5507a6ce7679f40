// JIT native-codegen backend: numeric agreement against the interpreter
// on gelu and attention chains, kernel-cache behaviour (hit on second
// compile, one TU per batch), and graceful fallback when no host
// compiler exists.
#include "exec/jit.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <random>

#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "ir/expr.hpp"
#include "measure/backend.hpp"
#include "scoped_env.hpp"
#include "tensor/tensor.hpp"

namespace mcf {
namespace {

/// Chains the issue pins the agreement test on.  Static storage: the
/// Schedule keeps a ChainSpec pointer.
const ChainSpec& gelu_chain() {
  static const ChainSpec c("jit-gelu", 2, 96, {48, 96, 48},
                           {Epilogue::Gelu, Epilogue::None});
  return c;
}
const ChainSpec& attention_chain() {
  static const ChainSpec c = ChainSpec::attention("jit-attn", 2, 64, 64, 32, 32);
  return c;
}

/// A gpu key no other process or (persisted) cache run ever used: makes
/// "this resolve is a fresh compile" assertable even over a warm on-disk
/// cache (CI persists the cache dir across runs).
std::string unique_key(const char* prefix) {
  std::random_device rd;
  return std::string(prefix) + "-" + std::to_string(::getpid()) + "-" +
         std::to_string((static_cast<std::uint64_t>(rd()) << 32) ^ rd());
}

void run_both_and_compare(const Schedule& s) {
  const ChainSpec& c = s.chain();
  Tensor a(Shape{c.batch(), c.m(), c.inner().front()});
  a.fill_random(301);
  std::vector<Tensor> w;
  for (int op = 0; op < c.num_ops(); ++op) {
    Tensor t(Shape{c.batch(), c.inner()[static_cast<std::size_t>(op)],
                   c.inner()[static_cast<std::size_t>(op) + 1]});
    t.fill_random(302 + static_cast<std::uint64_t>(op));
    w.push_back(std::move(t));
  }
  Tensor out_interp(Shape{c.batch(), c.m(), c.inner().back()});
  Tensor out_jit(Shape{c.batch(), c.m(), c.inner().back()});
  (void)Interpreter(s).run(a, w, out_interp);

  JitKernel kernel(s, "a100");
  ASSERT_TRUE(kernel.ok()) << kernel.error();
  kernel.run(a, w, out_jit);
  // The issue's gate: <= 1e-4 relative tolerance (1e-5 absolute floor
  // for near-zero elements; jit uses FMA contraction, interp does not).
  EXPECT_TRUE(allclose(out_jit, out_interp, 1e-4, 1e-5))
      << c.name() << ": max rel diff " << max_rel_diff(out_jit, out_interp);
}

TEST(JitKernel, MatchesInterpreterOnGeluChain) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const ChainSpec& c = gelu_chain();
  // Deep and flat expressions, divisible and fringe tiles.
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{32, 16, 32, 16}));
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{48, 48, 48, 48}));
  run_both_and_compare(build_schedule(c, make_flat_expr(c, {0, 2}, {1, 3}),
                                      std::vector<std::int64_t>{32, 16, 32, 48}));
}

TEST(JitKernel, MatchesInterpreterOnAttentionChain) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const ChainSpec& c = attention_chain();
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{32, 32, 32, 32}));
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{16, 32, 16, 32}));
}

TEST(JitKernel, SecondCompileIsACacheHit) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const ChainSpec& c = gelu_chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{48, 16, 48, 16});
  const std::string gpu_key = unique_key("cache-hit-test");

  const jit::CompileStats s0 = jit::stats_snapshot();
  JitKernel first(s, gpu_key);
  ASSERT_TRUE(first.ok()) << first.error();
  const jit::CompileStats after_first = jit::stats_snapshot().since(s0);
  EXPECT_EQ(after_first.kernels_compiled, 1);
  EXPECT_EQ(after_first.tus_compiled, 1);
  EXPECT_GT(after_first.compile_wall_s, 0.0);

  JitKernel second(s, gpu_key);
  ASSERT_TRUE(second.ok()) << second.error();
  const jit::CompileStats after_second =
      jit::stats_snapshot().since(s0).since(after_first);
  EXPECT_EQ(after_second.kernels_compiled, 0);
  EXPECT_EQ(after_second.tus_compiled, 0);
  EXPECT_EQ(after_second.cache_hits(), 1);
}

TEST(JitKernel, BatchCompilesOneTranslationUnitPerWave) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  GpuSpec gpu = a100();
  gpu.name = unique_key("batch-tu-test");
  const ExecBackend backend(gpu, {.executor = Executor::Jit});
  ASSERT_EQ(backend.active_executor(), Executor::Jit);

  const ChainSpec& c = gelu_chain();
  const Schedule s1 = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                     std::vector<std::int64_t>{32, 16, 32, 16});
  const Schedule s2 = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                     std::vector<std::int64_t>{48, 48, 48, 48});
  const Schedule s3 = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                     std::vector<std::int64_t>{96, 16, 96, 48});
  const std::vector<const Schedule*> wave = {&s1, &s2, &s3};

  const jit::CompileStats s0 = jit::stats_snapshot();
  backend.prepare_batch(wave);
  const jit::CompileStats prep = jit::stats_snapshot().since(s0);
  EXPECT_EQ(prep.tus_compiled, 1);  // the whole wave in ONE invocation
  EXPECT_EQ(prep.kernels_compiled, 3);

  // The wave's measure() calls then resolve without compiling.
  for (const Schedule* s : wave) {
    const KernelMeasurement m = backend.measure(*s);
    EXPECT_TRUE(m.ok) << m.fail_reason;
    EXPECT_GT(m.time_s, 0.0);
  }
  const jit::CompileStats meas = jit::stats_snapshot().since(s0).since(prep);
  EXPECT_EQ(meas.tus_compiled, 0);
  EXPECT_EQ(meas.kernels_compiled, 0);
  EXPECT_EQ(meas.cache_hits(), 3);
}

TEST(JitBackend, FallsBackToInterpreterWhenCompilerMissing) {
  // Whatever the environment, a jit backend constructed while
  // MCFUSER_JIT_CXX points nowhere must degrade to the interpreter and
  // still satisfy the measurement contract.
  const ExecBackend backend = [] {
    const ScopedEnv cxx("MCFUSER_JIT_CXX", "/nonexistent/not-a-compiler");
    return ExecBackend(a100(), {.executor = Executor::Jit});
  }();

  EXPECT_EQ(backend.active_executor(), Executor::Interp);
  EXPECT_FALSE(backend.fallback_reason().empty());

  const ChainSpec& c = gelu_chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 16, 32, 16});
  const jit::CompileStats s0 = jit::stats_snapshot();
  const KernelMeasurement m = backend.measure(s);
  EXPECT_TRUE(m.ok) << m.fail_reason;
  EXPECT_GT(m.time_s, 0.0);
  EXPECT_EQ(m.n_blocks, s.num_blocks());
  // Nothing was compiled (or even attempted) on the fallback path.
  const jit::CompileStats delta = jit::stats_snapshot().since(s0);
  EXPECT_EQ(delta.tus_compiled, 0);
  EXPECT_EQ(delta.failures, 0);
}

TEST(CompiledKernel, NativeRunMatchesInterpreterRun) {
  // The deploy-side surface: a fused kernel out of the engine pipeline
  // executes natively (or reports false so callers fall back to run()).
  const ChainSpec& c = attention_chain();
  const CompiledKernel kernel(
      build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                     std::vector<std::int64_t>{32, 32, 32, 32}),
      a100());
  ASSERT_TRUE(kernel.ok()) << kernel.error();

  Tensor a(Shape{c.batch(), c.m(), c.inner().front()});
  a.fill_random(401);
  std::vector<Tensor> w;
  for (int op = 0; op < c.num_ops(); ++op) {
    Tensor t(Shape{c.batch(), c.inner()[static_cast<std::size_t>(op)],
                   c.inner()[static_cast<std::size_t>(op) + 1]});
    t.fill_random(402 + static_cast<std::uint64_t>(op));
    w.push_back(std::move(t));
  }
  Tensor out_interp(Shape{c.batch(), c.m(), c.inner().back()});
  Tensor out_native(Shape{c.batch(), c.m(), c.inner().back()});
  (void)kernel.run(a, w, out_interp);

  if (!jit::detect_toolchain().ok()) {
    EXPECT_FALSE(kernel.run_native(a, w, out_native));
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  ASSERT_TRUE(kernel.run_native(a, w, out_native));
  EXPECT_TRUE(allclose(out_native, out_interp, 1e-4, 1e-5))
      << "max rel diff " << max_rel_diff(out_native, out_interp);
}

TEST(JitBackend, InfeasibleScheduleFailsBeforeCompilation) {
  const ExecBackend backend(a100(), {.executor = Executor::Jit});
  static const ChainSpec c =
      ChainSpec::gemm_chain("jit-too-big", 1, 512, 512, 256, 256);
  const Schedule s =
      build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                     std::vector<std::int64_t>{512, 512, 256, 256});
  const jit::CompileStats s0 = jit::stats_snapshot();
  const KernelMeasurement m = backend.measure(s);
  EXPECT_FALSE(m.ok);
  EXPECT_FALSE(m.fail_reason.empty());
  const jit::CompileStats delta = jit::stats_snapshot().since(s0);
  EXPECT_EQ(delta.tus_compiled, 0);
  EXPECT_EQ(delta.kernels_compiled, 0);
}

TEST(JitCompile, TimeoutKillsHungCompiler) {
  // A wedged compiler process (distcc stall, NFS hang, miscompiled
  // plugin) must not hang the tuner forever: the invocation is killed at
  // MCFUSER_JIT_COMPILE_TIMEOUT_S and surfaced as a compile failure.
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const std::string script =
      "/tmp/mcfuser-hung-cxx-" + std::to_string(::getpid()) + ".sh";
  {
    std::ofstream os(script);
    os << "#!/bin/sh\nsleep 600\n";
  }
  ::chmod(script.c_str(), 0755);

  const ChainSpec& c = gelu_chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 16, 32, 16});
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  jit::ResolvedKernel rk;
  {
    const ScopedEnv cxx("MCFUSER_JIT_CXX", script);
    const ScopedEnv timeout("MCFUSER_JIT_COMPILE_TIMEOUT_S", "1");
    rk = jit::resolve_kernel(s, unique_key("hung-cxx"), jit::detect_toolchain(),
                             &error);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ::unlink(script.c_str());

  EXPECT_FALSE(rk.ok());
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_LT(wall, 60.0);  // killed at ~1s, nowhere near the 600s sleep
}

}  // namespace
}  // namespace mcf
