// Pluggable measurement subsystem (ROADMAP: "real timing path behind the
// same measure() interface").
//
// A MeasureBackend answers one question — "how long does this candidate
// schedule take?" — and the tuner, the library-kernel baselines and the
// benches consume the abstraction instead of holding a TimingSimulator
// directly.  Built-in registry names:
//
//   * "sim"           SimulatorBackend: the deterministic TimingSimulator;
//                     the default everywhere, bit-for-bit identical to the
//                     pre-subsystem behaviour.
//   * "interp", "jit", "jit-isolated"
//                     ExecBackend: actually executes the schedule (CPU
//                     interpreter, native jit kernel in process, or native
//                     kernel in a crash-isolated worker) and converts
//                     wall-clock samples into a KernelMeasurement with
//                     warm-up / repeat / outlier-trim controls.
//   * "cached-sim"    CachingBackend over "sim"; the decorator memoizes
//                     any backend by (chain key, gpu, schedule structure,
//                     tiles) and persists through the TuningCache
//                     serialization.
//
// Every backend must honour the contract pinned by the conformance suite
// (tests/measure/test_conformance.cpp, documented in docs/measurement.md):
// ok=false + non-empty fail_reason on infeasible schedules, time_s > 0 on
// success, bit-identical repeats when deterministic() promises it, and
// safe concurrent measure() calls from a thread pool.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dag/schedule.hpp"
#include "exec/jit.hpp"
#include "exec/sandbox.hpp"
#include "gpu/spec.hpp"
#include "gpu/timing.hpp"
#include "measure/measurement.hpp"
#include "search/tuning_cache.hpp"
#include "support/lru_map.hpp"
#include "support/mutex.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace mcf {

class MeasureBackend {
 public:
  virtual ~MeasureBackend() = default;

  /// Registry name ("sim", "interp", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual const GpuSpec& spec() const noexcept = 0;
  /// True when repeated measure() of the same schedule with the same
  /// options promises a bit-identical result.  Wall-clock backends return
  /// false; the conformance suite keys its identity checks on this.
  [[nodiscard]] virtual bool deterministic() const noexcept = 0;

  /// Measures one fused-kernel schedule.  Must be safe to call
  /// concurrently from multiple threads on the same backend instance.
  [[nodiscard]] virtual KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const = 0;

  /// Batch preparation hook: the tuner calls this once per measurement
  /// wave, before the concurrent measure() calls, with every schedule the
  /// wave will measure.  Backends with per-schedule compilation amortise
  /// it here (the jit backend compiles all missing kernels as a few
  /// concurrent compiler shards, see jit::prepare_kernels); the default
  /// is a no-op.
  /// Must never change any measure() result — only its cost.
  virtual void prepare_batch(std::span<const Schedule* const> /*schedules*/,
                             const MeasureOptions& /*options*/ = {}) const {}

  /// Aggregate roofline path used by the library-kernel baselines: there
  /// is no schedule to execute, so every backend shares the simulator's
  /// arithmetic (overridden only by decorators, which forward to their
  /// inner backend).
  [[nodiscard]] virtual KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const = 0;

  /// Digest of the MeasureOptions fields this backend's measure()
  /// actually consumes; memoizing decorators key on it.  A backend that
  /// ignores the options (the interpreter times real execution) returns a
  /// constant, so option churn cannot defeat a cache layered over it.
  [[nodiscard]] virtual std::uint64_t options_digest(
      const MeasureOptions& options) const noexcept {
    std::uint64_t h = splitmix64(options.noise_seed + 1);
    h = hash_combine(h, static_cast<std::uint64_t>(options.noise_amp * 1e9));
    h = hash_combine(h, options.include_launch ? 1u : 2u);
    return h;
  }
};

// ---- SimulatorBackend -------------------------------------------------------

/// The deterministic timing model; delegates 1:1 to TimingSimulator.
class SimulatorBackend : public MeasureBackend {
 public:
  explicit SimulatorBackend(GpuSpec spec) : sim_(std::move(spec)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "sim"; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return sim_.spec(); }
  [[nodiscard]] bool deterministic() const noexcept override { return true; }

  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const override {
    return sim_.measure(s, options);
  }
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    return sim_.measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                            comp_eff, stmt_trips, options);
  }

  [[nodiscard]] const TimingSimulator& simulator() const noexcept { return sim_; }

 private:
  TimingSimulator sim_;
};

// ---- ExecBackend's memos ----------------------------------------------------

namespace detail {

/// What ExecBackend memoizes per instance so repeated measure() calls of
/// the same candidate skip the lowering work:
///
///   * the lowering gate (validity, consume-completeness, smem plan) —
///     keyed by schedule_structure_digest, which already folds the chain
///     key and the tiles.  Before this memo the interpreter backend
///     re-lowered the schedule on EVERY measure() call, repeat tiles
///     included;
///   * the deterministic random input tensors — keyed by chain shape,
///     shared by every candidate of the same chain (building and filling
///     them dominated the per-measure setup cost).
///
/// Both memos are LRU-bounded (Limits) so a long-lived service that
/// measures millions of distinct schedules/chains stays at bounded RSS:
/// an evicted gate is recomputed, an evicted tensor set is rebuilt
/// bit-identically (deterministic seeded fill) — eviction is a pure
/// cost/memory trade, never a behaviour change.
///
/// All methods are thread-safe; data() returns immutable shared state
/// that outlives eviction for as long as a caller holds it.
class ExecMeasureState {
 public:
  struct Gate {
    bool ok = false;
    std::string fail_reason;
    std::int64_t n_blocks = 0;
    std::int64_t smem_bytes = 0;
  };
  struct ChainData {
    Tensor a;
    std::vector<Tensor> weights;
    [[nodiscard]] std::size_t bytes() const noexcept;
  };
  /// Entry/byte caps; 0 = unbounded.  The defaults bound a backend
  /// instance to roughly the working set of one large tuning campaign
  /// (64Ki lowering gates, 512 MiB of cached input tensors).
  struct Limits {
    std::size_t max_gates = 64 * 1024;
    std::size_t max_data_entries = 256;
    std::size_t max_data_bytes = 512u * 1024 * 1024;
  };

  // Out of line: Limits' member defaults are not parseable until the end
  // of the enclosing class, so no inline default argument.
  ExecMeasureState();
  explicit ExecMeasureState(Limits limits);

  /// The CompiledKernel-equivalent lowering gate, memoized by digest.
  [[nodiscard]] Gate gate(const Schedule& s, const GpuSpec& gpu) const;
  /// Deterministic inputs for `chain`, built once per chain shape.
  [[nodiscard]] std::shared_ptr<const ChainData> data(
      const ChainSpec& chain, std::uint64_t data_seed) const;

  // Occupancy/eviction observability (the admission bench samples these).
  [[nodiscard]] std::size_t gate_entries() const;
  [[nodiscard]] std::size_t data_entries() const;
  [[nodiscard]] std::size_t data_bytes() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  mutable Mutex mu_{"measure.exec-state"};
  mutable LruMap<std::uint64_t, Gate> gates_ MCF_GUARDED_BY(mu_);
  mutable LruMap<std::string, std::shared_ptr<const ChainData>> data_
      MCF_GUARDED_BY(mu_);
};

}  // namespace detail

// ---- ExecBackend ------------------------------------------------------------

/// Who executes the candidate inside ExecBackend::measure().
enum class Executor : std::uint8_t {
  Interp,  ///< exec/interpreter, in process                   ("interp")
  Jit,     ///< native code from exec/jit, in process          ("jit")
  Worker,  ///< native code in a sandbox worker (exec/sandbox) ("jit-isolated")
};

struct ExecBackendOptions {
  /// The requested executor; the live one may be degraded (see
  /// ExecBackend::active_executor()).
  Executor executor = Executor::Interp;
  /// Untimed executions before sampling (first-touch page faults, arena
  /// allocation, cache warm-up).
  int warmup = 1;
  /// Timed wall-clock samples per measure() call.
  int repeats = 3;
  /// Fraction of samples trimmed from EACH end before averaging (0.25 with
  /// repeats=4 drops the fastest and slowest sample).  The trimmed mean is
  /// the standard outlier-robust estimator for shared-machine timing.
  double trim_fraction = 0.25;
  /// Seed for the deterministic random tensor contents.
  std::uint64_t data_seed = 1;
  /// Monotonic time source in seconds.  Null = std::chrono::steady_clock.
  /// Tests inject a scripted clock to pin the sampling arithmetic; it
  /// reaches only the in-process executors (workers time with their own
  /// steady clock).
  std::function<double()> clock{};
  /// LRU caps on the lowering-gate / input-tensor memos (bounded RSS
  /// under unbounded distinct-chain traffic); see ExecMeasureState.
  detail::ExecMeasureState::Limits memo_limits{};
  /// Worker-pool sizing/deadline/retry policy (Executor::Worker only);
  /// defaults read the MCFUSER_SANDBOX_* environment.
  sandbox::PoolOptions pool = sandbox::default_pool_options();
};

/// Executes the candidate for real and wall-clock-samples it — the CPU-host
/// realisation of the paper's "lower, run, time" measurement step.  One
/// class serves all three execution registry names:
///
///   * "interp"        runs the schedule through exec/interpreter.  Its
///                     times are CPU-interpreter times, not GPU times —
///                     useful because they *rank* candidates by real
///                     executed work (the conformance suite asserts rank
///                     correlation against the simulator).
///   * "jit"           compiles every candidate to machine code through
///                     exec/jit (host toolchain, -O3 -march=native,
///                     digest-keyed on-disk kernel cache; prepare_batch()
///                     compiles a whole tuner wave as concurrent shards) and
///                     times the native kernel in process.
///   * "jit-isolated"  the same native kernels, EXECUTED inside sandbox
///                     worker processes, so a kernel that segfaults, loops
///                     forever or emits garbage fails its own measurement
///                     instead of taking down the engine.
///
/// The degradation chain worker -> in-process jit -> interpreter is
/// settled once, at construction: no sandbox (sanitizer build,
/// MCFUSER_SANDBOX=0) drops Worker to Jit, no host toolchain drops Jit to
/// Interp; active_executor() tells which path is live and
/// fallback_reason() why it is not the requested one.  Per call:
/// lowering gate -> native run (worker or in process) -> on any compile
/// failure other than a verifier rejection, the interpreter — so measure()
/// always answers.  The worker path layers its policy on the pool
/// transport:
///
///   * crash negative-cache check before every run — a known-bad kernel
///     is answered from the cache without spawning anything;
///   * crashes retry on a fresh worker (pool.max_retries), then the
///     failure is negative-cached as WorkerCrashed; timeouts are
///     negative-cached immediately as WorkerTimeout (a hung kernel
///     would burn another full deadline);
///   * a worker-side dlopen/dlsym failure means the cached .so is
///     poisoned: jit::invalidate_kernel + recompile + ONE retry before
///     giving up.
class ExecBackend : public MeasureBackend {
 public:
  explicit ExecBackend(GpuSpec spec, ExecBackendOptions options = {});

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] const GpuSpec& spec() const noexcept override {
    return sim_.spec();
  }
  /// Wall-clock sampling: repeats jitter run-to-run.
  [[nodiscard]] bool deterministic() const noexcept override { return false; }

  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const override;
  /// Compiles all missing kernels of the wave as concurrent compiler
  /// shards, one TU each (jit::prepare_kernels; workers then dlopen the
  /// cached artifacts); a no-op on the interpreter.
  void prepare_batch(std::span<const Schedule* const> schedules,
                     const MeasureOptions& options = {}) const override;
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    // No schedule to execute: raw aggregates fall back to the roofline.
    return sim_.measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                            comp_eff, stmt_trips, options);
  }
  /// measure() executes the schedule as-is; the simulator-noise options
  /// do not reach it.  exec_threads DOES change native wall time (workers
  /// replay the host's fan-out geometry), so the native executors fold it
  /// into the digest — a cache layered over them must never serve a
  /// 1-thread time for an 8-thread request.  Keyed on the requested
  /// executor, so degradation never changes a persisted cache key.
  [[nodiscard]] std::uint64_t options_digest(
      const MeasureOptions& options) const noexcept override {
    return opt_.executor != Executor::Interp && options.exec_threads > 0
               ? hash_combine(0x6d63662d6a69746dull,
                              static_cast<std::uint64_t>(options.exec_threads))
               : 0;
  }

  /// The executor measure() runs on after construction-time degradation.
  [[nodiscard]] Executor active_executor() const noexcept { return active_; }
  /// Why active_executor() differs from options().executor (empty when
  /// they agree).
  [[nodiscard]] const std::string& fallback_reason() const noexcept {
    return fallback_reason_;
  }
  [[nodiscard]] const ExecBackendOptions& options() const noexcept {
    return opt_;
  }

 private:
  /// Warm-up / repeat / trimmed-mean wall-clock sampling of `run`.
  [[nodiscard]] double sample(const std::function<void()>& run) const;
  /// The sandboxed run of an already-resolved artifact.
  [[nodiscard]] KernelMeasurement run_in_worker(
      const Schedule& s, const jit::KernelArtifact& art,
      const MeasureOptions& options, KernelMeasurement m) const;

  TimingSimulator sim_;  ///< spec holder + measure_raw fallback
  ExecBackendOptions opt_;
  Executor active_ = Executor::Interp;
  std::string fallback_reason_;
  /// Resolved once at construction (tests override MCFUSER_JIT_CXX per
  /// instance); only detected for the native executors.
  jit::Toolchain toolchain_;
  /// Digest-keyed lowering memo + shared input tensors: repeat-tile
  /// measure() calls skip straight to execution.
  detail::ExecMeasureState state_;
  /// Live only when active_ == Executor::Worker.
  std::unique_ptr<sandbox::WorkerPool> pool_;
};

// ---- CachingBackend ---------------------------------------------------------

/// Memoizing decorator: measure() results are cached by
/// (chain shape key, gpu, schedule-structure digest, tiles, options) and
/// can be persisted through the TuningCache line format, so a deployment
/// can ship warm measurement caches next to its tuning logs.
class CachingBackend : public MeasureBackend {
 public:
  explicit CachingBackend(std::shared_ptr<const MeasureBackend> inner);

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override {
    return inner_->spec();
  }
  /// Memoization makes repeated measure() of the same schedule identical
  /// even over a nondeterministic inner backend.
  [[nodiscard]] bool deterministic() const noexcept override { return true; }

  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const override;
  /// Forwards only the schedules this cache has NOT memoized: a
  /// memoized measurement never reaches the inner backend, so preparing
  /// (jit-compiling) its kernel would be pure waste.
  void prepare_batch(std::span<const Schedule* const> schedules,
                     const MeasureOptions& options = {}) const override;
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    // Cheap arithmetic; not worth memoizing.
    return inner_->measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                               comp_eff, stmt_trips, options);
  }
  [[nodiscard]] std::uint64_t options_digest(
      const MeasureOptions& options) const noexcept override {
    return inner_->options_digest(options);
  }

  /// Persistence via the TuningCache serialization (one record per cached
  /// measurement; only ok results with their time_s survive a round trip).
  [[nodiscard]] bool save(const std::string& path) const;
  bool load(const std::string& path);

  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  [[nodiscard]] std::size_t size() const;

 private:
  std::shared_ptr<const MeasureBackend> inner_;
  std::string name_;
  mutable Mutex mu_{"measure.caching"};
  /// Full-fidelity in-memory store (diagnostics included).
  mutable std::unordered_map<std::string, KernelMeasurement> mem_
      MCF_GUARDED_BY(mu_);
  /// Serializable mirror of the ok entries (time_s only).
  mutable TuningCache disk_ MCF_GUARDED_BY(mu_);
  mutable std::size_t hits_ MCF_GUARDED_BY(mu_) = 0;
  mutable std::size_t misses_ MCF_GUARDED_BY(mu_) = 0;
};

/// Structural digest of a schedule: block loops, the scope/statement tree
/// and the tile sizes all feed a 64-bit hash.  Two schedules with equal
/// digests execute identically, which is what makes it a sound
/// memoization key component.
[[nodiscard]] std::uint64_t schedule_structure_digest(const Schedule& s);

// ---- registry ---------------------------------------------------------------

/// Name -> factory registry; the CLI's --backend flag and the conformance
/// suite enumerate it.  Registration is thread-safe; the built-ins listed
/// in the header comment self-register on first use.  A hardware
/// backend (CUDA events / rocprof) plugs in with one add() call — see
/// docs/measurement.md.
class BackendRegistry {
 public:
  using Factory =
      std::function<std::shared_ptr<MeasureBackend>(const GpuSpec&)>;

  static BackendRegistry& instance();

  /// False (and no-op) when `name` is already registered.
  bool add(const std::string& name, Factory factory);
  /// Null when `name` is unknown.
  [[nodiscard]] std::shared_ptr<MeasureBackend> create(
      const std::string& name, const GpuSpec& gpu) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  BackendRegistry();

  mutable Mutex mu_{"measure.registry"};
  std::map<std::string, Factory> factories_ MCF_GUARDED_BY(mu_);
};

}  // namespace mcf
