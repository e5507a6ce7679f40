// JIT native-codegen backend: numeric agreement against the interpreter
// on gelu and attention chains, kernel-cache behaviour (hit on second
// compile, one TU per compiler shard), shard failure isolation, the
// compiler's inherited descriptors, and graceful fallback when no host
// compiler exists.
#include "exec/jit.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "ir/expr.hpp"
#include "measure/backend.hpp"
#include "scoped_env.hpp"
#include "search/tuning_cache.hpp"
#include "support/thread_pool.hpp"
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

TEST(JitKernel, BatchCompilesOneTranslationUnitPerShard) {
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
  // One compiler invocation per shard: the wave splits into
  // min(kernels, pool concurrency) TUs compiled side by side.
  EXPECT_EQ(prep.tus_compiled,
            std::min<std::int64_t>(3, ThreadPool::global().concurrency()));
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

/// A private temp directory (compiler scripts, their logs, kernel
/// caches), removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mcf-jit-shard-XXXXXX";
    const char* got = ::mkdtemp(tmpl);
    dir_ = got != nullptr ? got : "";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] bool ok() const { return !dir_.empty(); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }
  /// Writes an executable /bin/sh script named `name`; returns its path.
  [[nodiscard]] std::string script(const std::string& name,
                                   const std::string& body) const {
    const std::string p = path(name);
    {
      std::ofstream os(p);
      os << "#!/bin/sh\n" << body;
    }
    ::chmod(p.c_str(), 0755);
    return p;
  }

 private:
  std::string dir_;
};

/// The chain whose kernel the shard test's fake compiler rejects; its
/// chain key (in every emitted kernel's fault-seam call) marks the TU.
/// Without an epilogue its kernel source is smaller than any gelu_wave
/// kernel's, so size balancing places it last, beside another kernel.
const ChainSpec& poison_chain() {
  static const ChainSpec c("jit-shard-poison", 2, 64, {32, 32, 32},
                           {Epilogue::None, Epilogue::None});
  return c;
}

/// `count` distinct lowerable gelu-chain schedules.
std::vector<Schedule> gelu_wave(std::size_t count) {
  const ChainSpec& c = gelu_chain();
  std::vector<Schedule> out;
  for (const std::int64_t tm : {16, 32, 48, 96}) {
    for (const std::int64_t tn : {16, 32, 48, 96}) {
      for (const std::int64_t tk : {16, 48}) {
        if (out.size() == count) return out;
        Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{tm, tk, tn, tk});
        if (s.valid() && s.consume_complete()) out.push_back(std::move(s));
      }
    }
  }
  return out;
}

/// Whitespace-separated words of `line`.
std::vector<std::string> words(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  for (std::string w; is >> w;) out.push_back(w);
  return out;
}

TEST(JitCompile, ShardFailureNegativeCachesOnlyTheBrokenKernel) {
  // A wave compiles as concurrent shards; a compiler error in one shard
  // must cost only the kernel that causes it.  The fake compiler logs
  // the kernel symbols of every TU it sees, rejects any TU holding the
  // poison chain's kernel, and compiles everything else for real.
  const jit::Toolchain real = jit::detect_toolchain();
  if (!real.ok()) GTEST_SKIP() << "jit unavailable: " << real.reason;
  const TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string log = tmp.path("tus.log");
  const std::string marker =
      "mcf_maybe_fault(\"" + chain_cache_key(poison_chain()) + "\"";
  const std::string script = tmp.script(
      "cxx.sh",
      "for src; do :; done\n"
      "syms=$(grep -o 'mcf_k[0-9a-f]\\{8,\\}' \"$src\" | sort -u | tr '\\n' ' ')\n"
      "if grep -qF '" + marker + "' \"$src\"; then\n"
      "  echo \"FAIL $syms\" >> '" + log + "'\n"
      "  echo 'poisoned kernel rejected' >&2\n"
      "  exit 1\n"
      "fi\n"
      "echo \"OK $syms\" >> '" + log + "'\n"
      "exec '" + real.cxx + "' \"$@\"\n");

  // More kernels than shards, so some shard holds several kernels.
  const unsigned conc = ThreadPool::global().concurrency();
  std::vector<Schedule> schedules = gelu_wave(std::min<std::size_t>(conc, 12));
  schedules.push_back(build_schedule(
      poison_chain(), make_deep_expr(poison_chain(), {0, 3, 2, 1}),
      std::vector<std::int64_t>{32, 32, 32, 32}));
  const Schedule& poison = schedules.back();
  std::vector<const Schedule*> wave;
  for (const Schedule& s : schedules) wave.push_back(&s);
  const auto n = static_cast<std::int64_t>(wave.size());
  const std::int64_t shards = std::min<std::int64_t>(n, conc);
  const std::string gpu_key = unique_key("shard-isolation");

  // One cold compile of the wave; returns the sorted log lines.
  const auto cold_run = [&](const std::string& cache) {
    jit::set_kernel_cap_for_testing(4096);  // empty the in-memory registry
    std::filesystem::remove(log);
    const ScopedEnv dir("MCFUSER_JIT_CACHE_DIR", cache);
    const ScopedEnv cxx("MCFUSER_JIT_CXX", script);
    const jit::Toolchain tc = jit::detect_toolchain();
    const jit::CompileStats s0 = jit::stats_snapshot();
    jit::prepare_kernels(wave, gpu_key, tc);
    const jit::CompileStats prep = jit::stats_snapshot().since(s0);

    std::vector<std::string> lines;
    std::ifstream in(log);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());

    // Every FAIL line holds the poison kernel: the smallest is the
    // poison alone, the largest its whole shard (k kernels).  A shard
    // of k > 1 retries each member in a TU of its own.
    std::vector<std::vector<std::string>> fails;
    std::vector<std::string> all;
    for (const std::string& line : lines) {
      std::vector<std::string> w = words(line);
      EXPECT_GE(w.size(), 2u) << line;
      if (w.size() < 2) continue;
      const bool failed = w.front() == "FAIL";
      w.erase(w.begin());
      all.insert(all.end(), w.begin(), w.end());
      if (failed) fails.push_back(std::move(w));
    }
    EXPECT_FALSE(fails.empty());
    if (fails.empty()) return lines;
    std::sort(fails.begin(), fails.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
    EXPECT_EQ(fails.front().size(), 1u);
    const std::string poison_sym = fails.front().front();
    for (const auto& f : fails) {
      EXPECT_NE(std::find(f.begin(), f.end(), poison_sym), f.end());
    }
    const auto k = static_cast<std::int64_t>(fails.back().size());
    if (n > shards) EXPECT_GE(k, 2);  // the poison shares its shard
    const std::int64_t retries = k > 1 ? k : 0;
    EXPECT_EQ(fails.size(), k > 1 ? 2u : 1u);
    EXPECT_EQ(static_cast<std::int64_t>(lines.size()), shards + retries);
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    EXPECT_EQ(static_cast<std::int64_t>(all.size()), n);

    EXPECT_EQ(prep.failures, 1);
    EXPECT_EQ(prep.kernels_compiled, n - 1);
    EXPECT_EQ(prep.tus_compiled, (shards - 1) + (retries > 0 ? retries - 1 : 0));

    // Only the poison kernel is negative-cached, with the compiler's
    // diagnostic; every other kernel resolves without compiling again.
    for (const Schedule* s : wave) {
      std::string err;
      const jit::ResolvedKernel rk = jit::resolve_kernel(*s, gpu_key, tc, &err);
      if (s == &poison) {
        EXPECT_FALSE(rk.ok());
        EXPECT_NE(err.find("poisoned kernel rejected"), std::string::npos) << err;
      } else {
        EXPECT_TRUE(rk.ok()) << err;
      }
    }
    const jit::CompileStats after = jit::stats_snapshot().since(s0).since(prep);
    EXPECT_EQ(after.tus_compiled, 0);
    EXPECT_EQ(after.failures, 0);
    return lines;
  };

  const std::vector<std::string> first = cold_run(tmp.path("cache-a"));
  const std::vector<std::string> second = cold_run(tmp.path("cache-b"));
  jit::set_kernel_cap_for_testing(4096);
  EXPECT_EQ(first, second) << "shard grouping differs between cold runs";
}

TEST(JitCompile, CompilerInheritsOnlyStdio) {
  // Concurrent shards fork their compilers side by side; none may
  // inherit another shard's pipe, or any other descriptor of this
  // process (test runners leak some: ctest hands its log file to tests).
  // The fake compiler lists its open descriptors and fails, so the
  // listing comes back as each kernel's compile diagnostic.
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string script =
      tmp.script("cxx.sh", "echo FDS; ls /proc/self/fd\nexit 1\n");
  const std::vector<Schedule> schedules =
      gelu_wave(std::min<std::size_t>(ThreadPool::global().concurrency(), 12) + 1);
  std::vector<const Schedule*> wave;
  for (const Schedule& s : schedules) wave.push_back(&s);
  const std::string gpu_key = unique_key("fd-inherit");

  const ScopedEnv dir("MCFUSER_JIT_CACHE_DIR", tmp.path("cache"));
  const ScopedEnv cxx("MCFUSER_JIT_CXX", script);
  const jit::Toolchain tc = jit::detect_toolchain();
  jit::prepare_kernels(wave, gpu_key, tc);
  for (const Schedule* s : wave) {
    std::string err;
    EXPECT_FALSE(jit::resolve_kernel(*s, gpu_key, tc, &err).ok());
    const std::size_t at = err.find("FDS");
    ASSERT_NE(at, std::string::npos) << err;
    // ls's own directory descriptor is the one entry beyond stdio.
    const std::vector<std::string> fds = words(err.substr(at + 3));
    ASSERT_EQ(fds.size(), 4u) << err;
    EXPECT_EQ(fds[0], "0");
    EXPECT_EQ(fds[1], "1");
    EXPECT_EQ(fds[2], "2");
  }
}

}  // namespace
}  // namespace mcf
