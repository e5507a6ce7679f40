// Backend-specific unit tests: ExecBackend's sampling arithmetic on the
// interpreter (scripted clock), the caching decorator's memoization and
// persistence, the registry and its pinned options digests, and the
// schedule digest.  The cross-backend
// contract lives in test_conformance.cpp.
#include "measure/backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <vector>

#include "scoped_env.hpp"
#include "search/space.hpp"

namespace mcf {
namespace {

SearchSpace make_space(const ChainSpec& c, const GpuSpec& gpu) {
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  return SearchSpace(c, SpaceOptions{}, prune);
}

Schedule small_schedule(const GpuSpec& gpu) {
  // Static: the returned Schedule keeps a pointer to this chain.
  static const ChainSpec c = ChainSpec::gemm_chain("small", 1, 64, 64, 32, 32);
  const SearchSpace space = make_space(c, gpu);
  return space.schedule_for(space.candidates().front());
}

/// Counting decorator: how often does the inner backend really measure?
class CountingBackend : public MeasureBackend {
 public:
  explicit CountingBackend(std::shared_ptr<const MeasureBackend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "counting"; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return inner_->spec(); }
  [[nodiscard]] bool deterministic() const noexcept override {
    return inner_->deterministic();
  }
  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const override {
    ++calls;
    return inner_->measure(s, options);
  }
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    return inner_->measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                               comp_eff, stmt_trips, options);
  }

  [[nodiscard]] std::uint64_t options_digest(
      const MeasureOptions& options) const noexcept override {
    return inner_->options_digest(options);
  }

  mutable std::atomic<int> calls{0};

 private:
  std::shared_ptr<const MeasureBackend> inner_;
};

// ---- ExecBackend on the interpreter ----------------------------------------

TEST(InterpreterBackend, TrimmedMeanOfScriptedSamplesIsExact) {
  // Scripted sample durations 1, 2, 3, 4 ms; trim 0.25 of 4 samples drops
  // one from each end: the reported time is exactly mean(2ms, 3ms).
  auto now = std::make_shared<double>(0.0);
  auto tick = std::make_shared<int>(0);
  ExecBackendOptions opt;
  opt.warmup = 0;
  opt.repeats = 4;
  opt.trim_fraction = 0.25;
  opt.clock = [now, tick] {
    if (++*tick % 2 == 0) *now += 1e-3 * (*tick / 2);
    return *now;
  };
  const ExecBackend backend(a100(), opt);
  const KernelMeasurement m = backend.measure(small_schedule(a100()));
  ASSERT_TRUE(m.ok);
  EXPECT_DOUBLE_EQ(m.time_s, 2.5e-3);
}

TEST(InterpreterBackend, WarmupRunsAreNotTimed) {
  auto clock_calls = std::make_shared<int>(0);
  auto now = std::make_shared<double>(0.0);
  ExecBackendOptions opt;
  opt.warmup = 3;
  opt.repeats = 2;
  opt.trim_fraction = 0.0;
  opt.clock = [clock_calls, now] {
    ++*clock_calls;
    return *now += 1e-3;
  };
  const ExecBackend backend(a100(), opt);
  ASSERT_TRUE(backend.measure(small_schedule(a100())).ok);
  // Two clock reads per timed sample, none for the warm-up executions.
  EXPECT_EQ(*clock_calls, 2 * opt.repeats);
}

TEST(InterpreterBackend, ReportsScheduleGeometry) {
  const GpuSpec gpu = a100();
  const Schedule s = small_schedule(gpu);
  const ExecBackend backend(gpu);
  const KernelMeasurement m = backend.measure(s);
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.n_blocks, s.num_blocks());
  EXPECT_EQ(m.smem_bytes, plan_smem(s).total_bytes);
  EXPECT_GT(m.time_s, 0.0);
}

TEST(InterpreterBackend, MeasureRawFallsBackToRoofline) {
  const GpuSpec gpu = a100();
  const ExecBackend interp(gpu);
  const SimulatorBackend sim(gpu);
  MeasureOptions opts;
  opts.noise_amp = 0.0;
  const auto mi = interp.measure_raw(1e8, 1e12, 512, 32 * 1024, 1.0, 1.0, 10, opts);
  const auto ms = sim.measure_raw(1e8, 1e12, 512, 32 * 1024, 1.0, 1.0, 10, opts);
  ASSERT_TRUE(mi.ok && ms.ok);
  EXPECT_DOUBLE_EQ(mi.time_s, ms.time_s);
}

// ---- CachingBackend ---------------------------------------------------------

TEST(CachingBackend, MemoizesByScheduleAndOptions) {
  const GpuSpec gpu = a100();
  auto counting = std::make_shared<CountingBackend>(
      std::make_shared<SimulatorBackend>(gpu));
  const CachingBackend cached(counting);

  const ChainSpec c = ChainSpec::gemm_chain("memo", 1, 128, 128, 64, 64);
  const SearchSpace space = make_space(c, gpu);
  const Schedule s1 = space.schedule_for(space.candidates().front());
  const Schedule s2 = space.schedule_for(space.candidates().back());

  const KernelMeasurement first = cached.measure(s1);
  EXPECT_EQ(cached.measure(s1).time_s, first.time_s);  // hit
  EXPECT_EQ(counting->calls, 1);
  (void)cached.measure(s2);  // different tiles: miss
  EXPECT_EQ(counting->calls, 2);
  MeasureOptions other;
  other.noise_seed = 1234;
  (void)cached.measure(s1, other);  // different options: miss
  EXPECT_EQ(counting->calls, 3);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 3u);
  EXPECT_EQ(cached.size(), 3u);
}

TEST(CachingBackend, OptionChurnStillHitsWhenInnerIgnoresOptions) {
  // The interpreter ignores the simulator-noise options, so a cache over
  // it must hit across noise_seed changes — re-executing a schedule on
  // the CPU to get an identical answer is exactly what the cache is for.
  const GpuSpec gpu = a100();
  ExecBackendOptions fast;
  fast.warmup = 0;
  fast.repeats = 1;
  auto counting = std::make_shared<CountingBackend>(
      std::make_shared<ExecBackend>(gpu, fast));
  const CachingBackend cached(counting);
  const Schedule s = small_schedule(gpu);
  ASSERT_TRUE(cached.measure(s).ok);
  MeasureOptions other;
  other.noise_seed = 999;
  other.include_launch = false;
  ASSERT_TRUE(cached.measure(s, other).ok);
  EXPECT_EQ(counting->calls, 1);  // options the interpreter ignores: hit
}

TEST(CachingBackend, PersistsThroughTuningCacheFormat) {
  const GpuSpec gpu = a100();
  const Schedule s = small_schedule(gpu);
  const std::string path = "caching_backend_test.txt";
  double first_time = 0.0;
  {
    const CachingBackend cached(std::make_shared<SimulatorBackend>(gpu));
    first_time = cached.measure(s).time_s;
    ASSERT_TRUE(cached.save(path));
  }
  auto counting = std::make_shared<CountingBackend>(
      std::make_shared<SimulatorBackend>(gpu));
  CachingBackend reloaded(counting);
  ASSERT_TRUE(reloaded.load(path));
  const KernelMeasurement m = reloaded.measure(s);
  ASSERT_TRUE(m.ok);
  EXPECT_DOUBLE_EQ(m.time_s, first_time);
  EXPECT_EQ(counting->calls, 0);  // served from the persisted record
  // Promoted records still honour the geometry contract.
  EXPECT_EQ(m.n_blocks, s.num_blocks());
  EXPECT_EQ(m.smem_bytes, plan_smem(s).total_bytes);
  std::filesystem::remove(path);
}

TEST(CachingBackend, FailuresAreMemoizedButNotPersisted) {
  const GpuSpec gpu = a100();
  auto counting = std::make_shared<CountingBackend>(
      std::make_shared<SimulatorBackend>(gpu));
  CachingBackend cached(counting);
  const ChainSpec c = ChainSpec::gemm_chain("big", 1, 512, 512, 256, 256);
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{512, 512, 256, 256});
  EXPECT_FALSE(cached.measure(s).ok);
  EXPECT_FALSE(cached.measure(s).ok);
  EXPECT_EQ(counting->calls, 1);  // known failures are not re-measured...
  const std::string path = "caching_backend_failures_test.txt";
  ASSERT_TRUE(cached.save(path));
  CachingBackend reloaded(counting);
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_FALSE(reloaded.measure(s).ok);
  EXPECT_EQ(counting->calls, 2);  // ...but never persisted as records
  std::filesystem::remove(path);
}

// ---- digest & registry ------------------------------------------------------

TEST(ScheduleDigest, SeparatesTilesAndStructure) {
  const ChainSpec c = ChainSpec::gemm_chain("dig", 1, 128, 128, 64, 64);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  const auto& cands = space.candidates();
  const Schedule a = space.schedule_for(cands.front());
  const Schedule b = space.schedule_for(cands.back());
  EXPECT_EQ(schedule_structure_digest(a),
            schedule_structure_digest(space.schedule_for(cands.front())));
  EXPECT_NE(schedule_structure_digest(a), schedule_structure_digest(b));
}

TEST(ExecMeasureState, GateLruEvictsPastCapAndRecomputesIdentically) {
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::gemm_chain("gates", 1, 128, 128, 64, 64);
  const SearchSpace space = make_space(c, gpu);
  ASSERT_GE(space.candidates().size(), 4u);

  detail::ExecMeasureState::Limits limits;
  limits.max_gates = 2;
  detail::ExecMeasureState state(limits);
  std::vector<detail::ExecMeasureState::Gate> first;
  for (std::size_t i = 0; i < 4; ++i) {
    first.push_back(
        state.gate(space.schedule_for(space.candidates()[i]), gpu));
  }
  EXPECT_LE(state.gate_entries(), 2u);
  EXPECT_GE(state.evictions(), 2u);
  // An evicted gate recomputes to the same answer: eviction is a pure
  // memory/cost trade, never a behaviour change.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto again = state.gate(space.schedule_for(space.candidates()[i]), gpu);
    EXPECT_EQ(again.ok, first[i].ok) << i;
    EXPECT_EQ(again.fail_reason, first[i].fail_reason) << i;
    EXPECT_EQ(again.n_blocks, first[i].n_blocks) << i;
    EXPECT_EQ(again.smem_bytes, first[i].smem_bytes) << i;
  }
}

TEST(ExecMeasureState, DataLruEvictsByEntriesAndRebuildsIdentically) {
  const GpuSpec gpu = a100();
  (void)gpu;
  detail::ExecMeasureState::Limits limits;
  limits.max_data_entries = 1;
  detail::ExecMeasureState state(limits);
  const ChainSpec a = ChainSpec::gemm_chain("a", 1, 64, 64, 32, 32);
  const ChainSpec b = ChainSpec::gemm_chain("b", 1, 96, 64, 32, 32);
  const auto data_a = state.data(a, 1);
  const float probe = data_a->a.data()[0];
  const std::size_t bytes_a = data_a->bytes();
  EXPECT_GT(bytes_a, 0u);
  (void)state.data(b, 1);  // evicts a's entry (cap 1)
  EXPECT_EQ(state.data_entries(), 1u);
  EXPECT_GE(state.evictions(), 1u);
  // The held shared_ptr stays valid past eviction; a rebuilt tensor set
  // is bit-identical (deterministic seeded fill).
  const auto rebuilt = state.data(a, 1);
  EXPECT_NE(rebuilt.get(), data_a.get());
  EXPECT_EQ(rebuilt->a.data()[0], probe);
  EXPECT_EQ(rebuilt->bytes(), bytes_a);
  EXPECT_EQ(data_a->a.data()[0], probe);
}

TEST(ExecMeasureState, DataByteCapKeepsNewestEntry) {
  detail::ExecMeasureState::Limits limits;
  limits.max_data_bytes = 1;  // everything oversized: only the newest stays
  detail::ExecMeasureState state(limits);
  const ChainSpec a = ChainSpec::gemm_chain("a", 1, 64, 64, 32, 32);
  const ChainSpec b = ChainSpec::gemm_chain("b", 1, 96, 64, 32, 32);
  (void)state.data(a, 1);
  EXPECT_EQ(state.data_entries(), 1u);  // never evict the newest
  (void)state.data(b, 1);
  EXPECT_EQ(state.data_entries(), 1u);
  EXPECT_GE(state.evictions(), 1u);
  EXPECT_GT(state.data_bytes(), 0u);
}

TEST(InterpreterBackend, HonoursMemoLimitsFromOptions) {
  const GpuSpec gpu = a100();
  ExecBackendOptions opts;
  opts.warmup = 0;
  opts.repeats = 1;
  opts.memo_limits.max_data_entries = 1;
  const ExecBackend backend(gpu, opts);
  // Two distinct chains through a 1-entry input-tensor memo: both still
  // measure correctly (the memo is an optimisation, not a correctness
  // dependency).
  for (const auto& c : {ChainSpec::gemm_chain("m1", 1, 64, 64, 32, 32),
                        ChainSpec::gemm_chain("m2", 1, 96, 64, 32, 32)}) {
    const SearchSpace space = make_space(c, gpu);
    const KernelMeasurement m =
        backend.measure(space.schedule_for(space.candidates().front()));
    EXPECT_TRUE(m.ok) << m.fail_reason;
    EXPECT_GT(m.time_s, 0.0);
  }
}

TEST(BackendRegistry, CreatesBuiltinsAndRejectsUnknown) {
  const GpuSpec gpu = a100();
  auto& registry = BackendRegistry::instance();
  for (const char* name : {"sim", "interp", "cached-sim"}) {
    const auto backend = registry.create(name, gpu);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    EXPECT_EQ(backend->spec().name, gpu.name);
  }
  EXPECT_EQ(registry.create("cuda-events", gpu), nullptr);
}

TEST(BackendRegistry, OptionsDigestIsPinnedPerName) {
  // Persisted CachingBackend keys embed options_digest(): changing a
  // value here orphans every measurement cache saved to disk.  The
  // interpreter ignores every option; the native executors key on
  // exec_threads only, whether or not they degraded at construction.
  const GpuSpec gpu = a100();
  MeasureOptions full;  // exec_threads = 0: the whole pool
  MeasureOptions serial;
  serial.exec_threads = 1;
  MeasureOptions eight;
  eight.exec_threads = 8;
  eight.noise_seed = 99;  // ignored by every execution backend
  auto& registry = BackendRegistry::instance();
  const auto interp = registry.create("interp", gpu);
  for (const MeasureOptions& o : {full, serial, eight}) {
    EXPECT_EQ(interp->options_digest(o), 0u);
  }
  std::vector<std::shared_ptr<MeasureBackend>> native = {
      registry.create("jit", gpu), registry.create("jit-isolated", gpu)};
  {
    const ScopedEnv no_sandbox("MCFUSER_SANDBOX", "0");
    native.push_back(registry.create("jit-isolated", gpu));
  }
  for (const auto& backend : native) {
    EXPECT_EQ(backend->options_digest(full), 0u) << backend->name();
    EXPECT_EQ(backend->options_digest(serial), 0x1ecab3d252d28e47ull)
        << backend->name();
    EXPECT_EQ(backend->options_digest(eight), 0x9f87328df12dd73aull)
        << backend->name();
  }
}

TEST(BackendRegistry, AddIsFirstComeFirstServed) {
  auto& registry = BackendRegistry::instance();
  const auto factory = [](const GpuSpec& gpu) -> std::shared_ptr<MeasureBackend> {
    return std::make_shared<SimulatorBackend>(gpu);
  };
  EXPECT_TRUE(registry.add("test-only-backend", factory));
  EXPECT_FALSE(registry.add("test-only-backend", factory));  // duplicate
  EXPECT_FALSE(registry.add("sim", factory));                // builtin kept
  EXPECT_NE(registry.create("test-only-backend", a100()), nullptr);
}

}  // namespace
}  // namespace mcf
