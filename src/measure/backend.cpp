#include "measure/backend.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>

#include "exec/codegen.hpp"
#include "exec/interpreter.hpp"
#include "gpu/smem.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"
#include "verify/verify.hpp"

namespace mcf {

// ---- schedule digest --------------------------------------------------------

std::uint64_t schedule_structure_digest(const Schedule& s) {
  std::uint64_t h = hash_string(chain_cache_key(s.chain()));
  for (const int l : s.block_loops()) {
    h = hash_combine(h, static_cast<std::uint64_t>(l) + 1);
  }
  for (int i = 0; i < s.num_nodes(); ++i) {
    const Schedule::Node& n = s.node(i);
    h = hash_combine(h, static_cast<std::uint64_t>(n.loop) + 2);
    if (n.is_stmt) {
      h = hash_combine(h, static_cast<std::uint64_t>(n.stmt.kind) + 3);
      h = hash_combine(h, static_cast<std::uint64_t>(n.stmt.tensor) + 4);
      h = hash_combine(h, static_cast<std::uint64_t>(n.stmt.op) + 5);
      for (const int c : n.stmt.covered_loops) {
        h = hash_combine(h, static_cast<std::uint64_t>(c) + 6);
      }
    }
    for (const int c : n.children) {
      h = hash_combine(h, static_cast<std::uint64_t>(c) + 7);
    }
  }
  for (const auto t : s.tiles()) {
    h = hash_combine(h, static_cast<std::uint64_t>(t));
  }
  return h;
}

// ---- ExecBackend's memos ----------------------------------------------------

namespace detail {

ExecMeasureState::ExecMeasureState() : ExecMeasureState(Limits()) {}

ExecMeasureState::ExecMeasureState(Limits limits)
    : gates_(LruMap<std::uint64_t, Gate>::Limits{limits.max_gates, 0}),
      data_(LruMap<std::string, std::shared_ptr<const ChainData>>::Limits{
          limits.max_data_entries, limits.max_data_bytes}) {}

std::size_t ExecMeasureState::ChainData::bytes() const noexcept {
  std::size_t total = static_cast<std::size_t>(a.numel()) * sizeof(float);
  for (const Tensor& w : weights) {
    total += static_cast<std::size_t>(w.numel()) * sizeof(float);
  }
  return total;
}

ExecMeasureState::Gate ExecMeasureState::gate(const Schedule& s,
                                              const GpuSpec& gpu) const {
  const std::uint64_t key = schedule_structure_digest(s);
  {
    const LockGuard lock(mu_);
    if (const Gate* hit = gates_.find(key)) return *hit;
  }
  // The same lowering gate as CompiledKernel: infeasible schedules fail
  // with a reason instead of executing (conformance contract).
  Gate g;
  if (!s.valid()) {
    g.fail_reason = "schedule has no legal statement placement";
  } else if (!s.consume_complete()) {
    g.fail_reason = "schedule consumes partial tiles (Rule-2 structure)";
  } else {
    const SmemPlan plan = plan_smem(s);
    g.n_blocks = s.num_blocks();
    g.smem_bytes = plan.total_bytes;
    if (plan.total_bytes > gpu.smem_per_block) {
      g.fail_reason = "shared memory exceeds per-block limit (" +
                      std::to_string(plan.total_bytes) + " > " +
                      std::to_string(gpu.smem_per_block) + " bytes)";
    } else {
      g.ok = true;
    }
  }
  const LockGuard lock(mu_);
  return gates_.insert(key, std::move(g));
}

std::shared_ptr<const ExecMeasureState::ChainData> ExecMeasureState::data(
    const ChainSpec& chain, std::uint64_t data_seed) const {
  const std::string key =
      chain_cache_key(chain) + "#" + std::to_string(data_seed);
  {
    const LockGuard lock(mu_);
    if (const auto* hit = data_.find(key)) return *hit;
  }
  // Build outside the lock: the allocation + fill_random cost must not
  // stall concurrent measure() calls (gates share the same mutex).  A
  // racing builder produces an identical (deterministic) tensor set;
  // the first insert wins.
  auto fresh = std::make_shared<ChainData>();
  fresh->a = Tensor(Shape{chain.batch(), chain.m(), chain.inner().front()});
  fresh->a.fill_random(data_seed);
  fresh->weights.reserve(static_cast<std::size_t>(chain.num_ops()));
  for (int op = 0; op < chain.num_ops(); ++op) {
    Tensor w(Shape{chain.batch(), chain.inner()[static_cast<std::size_t>(op)],
                   chain.inner()[static_cast<std::size_t>(op) + 1]});
    w.fill_random(data_seed + static_cast<std::uint64_t>(op) + 1);
    fresh->weights.push_back(std::move(w));
  }
  const std::size_t fresh_bytes = fresh->bytes();
  const LockGuard lock(mu_);
  // Eviction only forgets, never frees in-use tensors: callers (and a
  // racing builder that lost the insert) hold shared_ptrs either way.
  return data_.insert(key, std::move(fresh), fresh_bytes);
}

std::size_t ExecMeasureState::gate_entries() const {
  const LockGuard lock(mu_);
  return gates_.size();
}

std::size_t ExecMeasureState::data_entries() const {
  const LockGuard lock(mu_);
  return data_.size();
}

std::size_t ExecMeasureState::data_bytes() const {
  const LockGuard lock(mu_);
  return data_.bytes();
}

std::uint64_t ExecMeasureState::evictions() const {
  const LockGuard lock(mu_);
  return gates_.evictions() + data_.evictions();
}

}  // namespace detail

namespace {

/// The outlier-robust estimator every wall-clock path shares: clamp each
/// sample at a nanosecond (a sample below clock resolution must not
/// produce time_s == 0 — the contract promises time_s > 0 on ok), sort,
/// drop trim_fraction of the samples from each end, average the rest.
/// Worker-returned samples go through the SAME arithmetic, which is what
/// keeps isolated and in-process timings directly comparable.
double trimmed_mean(std::vector<double> samples, double trim_fraction) {
  for (double& sample : samples) sample = std::max(sample, 1e-9);
  std::sort(samples.begin(), samples.end());
  const auto trim = static_cast<std::size_t>(
      static_cast<double>(samples.size()) * trim_fraction);
  const std::size_t lo = trim;
  const std::size_t hi = samples.size() - trim;
  return std::accumulate(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                         samples.begin() + static_cast<std::ptrdiff_t>(hi),
                         0.0) /
         static_cast<double>(hi - lo);
}

}  // namespace

// ---- ExecBackend ------------------------------------------------------------

ExecBackend::ExecBackend(GpuSpec spec, ExecBackendOptions options)
    : sim_(std::move(spec)), opt_(std::move(options)), active_(opt_.executor),
      state_(opt_.memo_limits) {
  opt_.warmup = std::max(opt_.warmup, 0);
  opt_.repeats = std::max(opt_.repeats, 1);
  opt_.trim_fraction = std::clamp(opt_.trim_fraction, 0.0, 0.49);
  if (!opt_.clock) {
    opt_.clock = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  }
  // The degradation chain, settled once: worker -> in-process jit ->
  // interpreter.  The first step down names the reason.
  if (active_ == Executor::Worker) {
    if (sandbox::Availability avail = sandbox::availability(); !avail.ok) {
      fallback_reason_ = std::move(avail.reason);
      active_ = Executor::Jit;
    }
  }
  if (active_ != Executor::Interp) {
    toolchain_ = jit::detect_toolchain();
    if (!toolchain_.ok()) {
      if (fallback_reason_.empty()) fallback_reason_ = toolchain_.reason;
      active_ = Executor::Interp;
    }
  }
  if (active_ == Executor::Worker) {
    pool_ = std::make_unique<sandbox::WorkerPool>(opt_.pool);
  }
}

std::string_view ExecBackend::name() const noexcept {
  switch (opt_.executor) {
    case Executor::Jit:
      return "jit";
    case Executor::Worker:
      return "jit-isolated";
    case Executor::Interp:
    default:
      return "interp";
  }
}

double ExecBackend::sample(const std::function<void()>& run) const {
  for (int i = 0; i < opt_.warmup; ++i) run();
  std::vector<double> samples(static_cast<std::size_t>(opt_.repeats));
  for (double& sample : samples) {
    const double t0 = opt_.clock();
    run();
    sample = opt_.clock() - t0;
  }
  return trimmed_mean(std::move(samples), opt_.trim_fraction);
}

KernelMeasurement ExecBackend::measure(const Schedule& s,
                                       const MeasureOptions& options) const {
  KernelMeasurement m;
  const detail::ExecMeasureState::Gate gate = state_.gate(s, spec());
  m.n_blocks = gate.n_blocks;
  m.smem_bytes = gate.smem_bytes;
  if (!gate.ok) {
    m.fail_reason = gate.fail_reason;
    // Only the worker path classifies gate failures; the in-process
    // paths leave None, which the tuner reads as Generic.
    if (active_ == Executor::Worker) m.fail_kind = MeasureFailKind::Generic;
    return m;
  }

  std::string err;
  jit::ResolvedKernel rk;
  if (active_ == Executor::Worker) {
    // Resolve the on-disk artifact (compiling at most once) WITHOUT
    // loading it into this process.
    const jit::KernelArtifact art =
        jit::resolve_artifact(s, spec().name, toolchain_);
    if (art.ok()) return run_in_worker(s, art, options, std::move(m));
    err = art.error;
  } else if (active_ == Executor::Jit) {
    // `rk.module` lives on this frame across all samples: a concurrent
    // registry eviction cannot unmap the code mid-measurement.
    rk = jit::resolve_kernel(s, spec().name, toolchain_, &err);
  }
  // A verifier rejection is a property of the schedule, not of the
  // toolchain: degrading to the interpreter would happily "measure" a
  // kernel the gate just proved unsafe to compile.  Fail it instead.  Any
  // other (negative-cached) compile failure degrades to the interpreter
  // so measure() always answers.
  if (err.rfind(verify::kGateErrorPrefix, 0) == 0) {
    m.fail_reason = std::move(err);
    m.fail_kind = MeasureFailKind::VerifyRejected;
    return m;
  }

  const auto data = state_.data(s.chain(), opt_.data_seed);
  const ChainSpec& chain = s.chain();
  Tensor out(Shape{chain.batch(), chain.m(), chain.inner().back()});
  if (rk.ok()) {
    // Per-call scratch (concurrent measure() calls stay independent),
    // reused across the warmup/repeat samples inside.
    std::vector<std::vector<float>> scratch;
    m.time_s = sample([&] {
      jit::run_compiled(rk.fn, s, data->a, data->weights, out, scratch,
                        options.exec_threads);
    });
  } else {
    const Interpreter interp(s);
    m.time_s = sample([&] { (void)interp.run(data->a, data->weights, out); });
  }
  m.ok = true;
  return m;
}

KernelMeasurement ExecBackend::run_in_worker(const Schedule& s,
                                             const jit::KernelArtifact& art,
                                             const MeasureOptions& options,
                                             KernelMeasurement m) const {
  // Crash negative-cache: a kernel that already killed (or hung) a
  // worker is answered from the cache — no process is spawned for it
  // ever again.
  if (const auto hit = sandbox::crash_cache_lookup(art.key)) {
    m.fail_reason = hit->reason + " (crash-cache)";
    m.fail_kind = hit->kind;
    return m;
  }

  const ChainSpec& chain = s.chain();
  sandbox::RunRequest req;
  req.key = art.key;
  req.so_path = art.so_path;
  req.symbol = art.symbol;
  req.batch = chain.batch();
  req.m = chain.m();
  req.inner = chain.inner();
  req.n_blocks = m.n_blocks;
  req.scratch_floats = cpp_kernel_scratch_floats(s);
  req.warmup = opt_.warmup;
  req.repeats = opt_.repeats;
  req.data_seed = opt_.data_seed;
  req.threads = options.exec_threads;

  sandbox::RunResult r = pool_->run(req);
  if (r.retryable_load_failure) {
    // The cached .so is poisoned (truncated write, foreign-ISA restore):
    // evict every trace, recompile once, retry once.
    (void)jit::invalidate_kernel(art.key);
    const jit::KernelArtifact fresh =
        jit::resolve_artifact(s, spec().name, toolchain_);
    if (fresh.ok()) {
      req.key = fresh.key;
      req.so_path = fresh.so_path;
      req.symbol = fresh.symbol;
      r = pool_->run(req);
    }
  }

  switch (r.outcome) {
    case sandbox::RunOutcome::Ok:
      m.time_s = trimmed_mean(std::move(r.samples), opt_.trim_fraction);
      m.ok = true;
      return m;
    case sandbox::RunOutcome::Failed:
      // Structured worker-side failure (garbage output, unhealable load
      // failure).
      m.fail_kind = MeasureFailKind::Generic;
      break;
    case sandbox::RunOutcome::TimedOut:
      m.fail_kind = MeasureFailKind::WorkerTimeout;
      break;
    case sandbox::RunOutcome::Crashed:
    default:
      m.fail_kind = MeasureFailKind::WorkerCrashed;
      break;
  }
  // Negative-cache every failure: a structured failure cannot heal by
  // re-running, crashes were already retried (pool.max_retries), and a
  // hung kernel would burn another full deadline.
  sandbox::crash_cache_insert(req.key, m.fail_kind, r.reason);
  m.fail_reason = std::move(r.reason);
  return m;
}

void ExecBackend::prepare_batch(std::span<const Schedule* const> schedules,
                                const MeasureOptions& /*options*/) const {
  if (active_ == Executor::Interp) return;
  // Only schedules that pass the lowering gate are worth compiling (the
  // paper's quadrant-II candidates never reach execution).
  std::vector<const Schedule*> feasible;
  feasible.reserve(schedules.size());
  for (const Schedule* s : schedules) {
    if (s != nullptr && state_.gate(*s, spec()).ok) feasible.push_back(s);
  }
  jit::prepare_kernels(feasible, spec().name, toolchain_);
}

// ---- CachingBackend ---------------------------------------------------------

namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::string tiles_string(const Schedule& s) {
  std::string out;
  for (const auto t : s.tiles()) {
    if (!out.empty()) out += ",";
    out += std::to_string(t);
  }
  return out;
}

/// Composite first-field key: chain shape key, structure+options digest
/// and tiles, space- and '|'-free so the TuningCache line format round
/// trips it verbatim.  The options part comes from the inner backend
/// (only the fields it consumes), so irrelevant option churn still hits.
std::string measure_key(const Schedule& s, std::uint64_t options_digest) {
  const std::uint64_t digest =
      hash_combine(schedule_structure_digest(s), options_digest);
  return chain_cache_key(s.chain()) + "@" + hex64(digest) + "@" +
         tiles_string(s);
}

}  // namespace

CachingBackend::CachingBackend(std::shared_ptr<const MeasureBackend> inner)
    : inner_(std::move(inner)) {
  MCF_CHECK(inner_ != nullptr) << "CachingBackend needs an inner backend";
  name_ = "cached-" + std::string(inner_->name());
}

KernelMeasurement CachingBackend::measure(const Schedule& s,
                                          const MeasureOptions& options) const {
  const std::string key = measure_key(s, inner_->options_digest(options));
  const std::string& gpu_name = inner_->spec().name;
  {
    const LockGuard lock(mu_);
    if (const auto it = mem_.find(key); it != mem_.end()) {
      ++hits_;
      return it->second;
    }
    // Persisted entries carry only time_s; rebuild the schedule geometry
    // (the contract promises honest n_blocks/smem_bytes on ok results)
    // and promote into the in-memory store so later hits are uniform.
    if (const auto disk = disk_.get_raw(key, gpu_name)) {
      KernelMeasurement m;
      m.ok = true;
      m.time_s = disk->time_s;
      m.n_blocks = s.num_blocks();
      m.smem_bytes = plan_smem(s).total_bytes;
      mem_.emplace(key, m);
      ++hits_;
      return m;
    }
  }
  // Measure outside the lock: inner backends can be slow, and measure()
  // must stay concurrent.  Two threads racing on the same fresh key both
  // measure; the first insert wins so every caller observes one value.
  const KernelMeasurement measured = inner_->measure(s, options);
  const LockGuard lock(mu_);
  const auto [it, inserted] = mem_.emplace(key, measured);
  if (inserted) {
    ++misses_;
    if (measured.ok) {
      disk_.put_raw(key, gpu_name,
                    CachedSchedule{hex64(schedule_structure_digest(s)),
                                   {s.tiles().begin(), s.tiles().end()},
                                   measured.time_s});
    }
  } else {
    ++hits_;
  }
  return it->second;
}

void CachingBackend::prepare_batch(std::span<const Schedule* const> schedules,
                                   const MeasureOptions& options) const {
  std::vector<const Schedule*> missing;
  missing.reserve(schedules.size());
  {
    const std::string& gpu_name = inner_->spec().name;
    const LockGuard lock(mu_);
    for (const Schedule* s : schedules) {
      if (s == nullptr) continue;
      const std::string key = measure_key(*s, inner_->options_digest(options));
      if (mem_.count(key) != 0) continue;
      if (disk_.get_raw(key, gpu_name)) continue;
      missing.push_back(s);
    }
  }
  inner_->prepare_batch(missing, options);
}

bool CachingBackend::save(const std::string& path) const {
  const LockGuard lock(mu_);
  return disk_.save(path);
}

bool CachingBackend::load(const std::string& path) {
  const LockGuard lock(mu_);
  return disk_.load(path);
}

std::size_t CachingBackend::hits() const {
  const LockGuard lock(mu_);
  return hits_;
}

std::size_t CachingBackend::misses() const {
  const LockGuard lock(mu_);
  return misses_;
}

std::size_t CachingBackend::size() const {
  const LockGuard lock(mu_);
  return mem_.size();
}

// ---- registry ---------------------------------------------------------------

BackendRegistry::BackendRegistry() {
  factories_["sim"] = [](const GpuSpec& gpu) {
    return std::make_shared<SimulatorBackend>(gpu);
  };
  factories_["interp"] = [](const GpuSpec& gpu) {
    return std::make_shared<ExecBackend>(gpu);
  };
  factories_["cached-sim"] = [](const GpuSpec& gpu) {
    return std::make_shared<CachingBackend>(
        std::make_shared<SimulatorBackend>(gpu));
  };
  factories_["jit"] = [](const GpuSpec& gpu) {
    return std::make_shared<ExecBackend>(
        gpu, ExecBackendOptions{.executor = Executor::Jit});
  };
  factories_["jit-isolated"] = [](const GpuSpec& gpu) {
    return std::make_shared<ExecBackend>(
        gpu, ExecBackendOptions{.executor = Executor::Worker});
  };
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

bool BackendRegistry::add(const std::string& name, Factory factory) {
  const LockGuard lock(mu_);
  return factories_.emplace(name, std::move(factory)).second;
}

std::shared_ptr<MeasureBackend> BackendRegistry::create(
    const std::string& name, const GpuSpec& gpu) const {
  Factory factory;
  {
    const LockGuard lock(mu_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) return nullptr;
    factory = it->second;
  }
  return factory(gpu);
}

std::vector<std::string> BackendRegistry::names() const {
  const LockGuard lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

}  // namespace mcf
