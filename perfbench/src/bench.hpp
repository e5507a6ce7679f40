// Shared plumbing of the repository benchmark: run configuration, the
// metric tables, timing and statistics helpers, the seeded input
// generators and the in-memory span tracer.
//
// The benchmark drives the library only through its public calls; every
// input the library sees is generated here from the --seed argument with
// the benchmark's own generator, so a change inside the library can never
// change what is measured.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/engine.hpp"
#include "ir/chain.hpp"

namespace perfbench {

// ---- configuration and results ---------------------------------------------

class StealMonitor;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;         ///< pinned MCF_NUM_THREADS and engine jobs
  std::string work_dir;  ///< private scratch dir inside the checkout
  std::string server_bin;
  const StealMonitor* steal = nullptr;  ///< host interference, whole run
  /// Host roofline (traced runs only; 0 otherwise).
  double fma_gflops_1t = 0.0;
  double triad_gb_s = 0.0;
};

/// What one workload run produced.  `e2e` holds the end-to-end metrics
/// (untraced runs), `layer` the per-layer metrics (traced runs).
struct Output {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end and per-layer metric tables; BENCHMARK.json lists the
/// same names and units (perfbench/test_bench.py checks they agree).
const std::vector<MetricDef>& e2e_metrics();
const std::vector<MetricDef>& layer_metrics();

Output run_tune_sim(const RunConfig& cfg);
Output run_kernel_native(const RunConfig& cfg);
Output run_graph_memo(const RunConfig& cfg);
Output run_serve_open(const RunConfig& cfg);

/// Single-core FMA peak (GFLOP/s) and `threads`-way stream triad (GB/s).
double host_fma_gflops_1t();
double host_triad_gb_s(int threads);

/// Cold passes behind each compile_s (the median is reported).
constexpr int kCompilePasses = 15;

// ---- timing ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double secs_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Wall interval of one measured operation.
struct OpSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Clock of a timed loop that pauses for side measurements — extra
/// set-ups, compile passes — spread evenly over the run, so that their
/// samples see the whole run rather than one burst of it (shared hosts
/// slow down and speed up within a second).  now() excludes the pauses.
class LoopClock {
 public:
  [[nodiscard]] double now() const { return secs_since(start_) - paused_; }

  /// Runs `fn` outside loop time when the next of `count` slots spread
  /// over `seconds` of loop time is due; records its span in `spans`.
  template <typename F>
  void at_slot(int count, double seconds, std::vector<OpSpan>& spans, F&& fn) {
    const auto done = static_cast<double>(spans.size());
    if (spans.size() < static_cast<std::size_t>(count) && now() >= seconds * (done + 0.5) / count) {
      run(spans, fn);
    }
  }
  /// Runs the slots the loop ended before reaching.
  template <typename F>
  void finish(int count, std::vector<OpSpan>& spans, F&& fn) {
    while (spans.size() < static_cast<std::size_t>(count)) run(spans, fn);
  }

 private:
  template <typename F>
  void run(std::vector<OpSpan>& spans, F&& fn) {
    OpSpan sp{now_ns(), 0};
    fn();
    sp.end_ns = now_ns();
    paused_ += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
    spans.push_back(sp);
  }

  std::int64_t start_ = now_ns();
  double paused_ = 0.0;
};

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Tail quantile robust to interference that slows part of a run: the
/// samples (in the order taken) cut into consecutive blocks of at least
/// `min_block`; the median of the blocks' q-quantiles.  With min_block
/// 1000, each block's p99 has at least 10 samples beyond it.
[[nodiscard]] double block_quantile(const std::vector<double>& v, double q,
                                    std::size_t min_block = 1000);
/// Geometric mean of the positive entries; 0 when there are none.
[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Samples the host's steal time (/proc/stat: CPU time the hypervisor
/// ran other guests on this VM's CPUs) every few milliseconds on a
/// background thread, so any interval of the run can be asked how much
/// of the VM's CPU time it lost.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Share of the VM's CPU time stolen over [t0_ns, t1_ns].
  [[nodiscard]] double frac(std::int64_t t0_ns, std::int64_t t1_ns) const;

 private:
  void sample();

  mutable std::mutex mu_;
  std::vector<std::pair<std::int64_t, double>> samples_;  ///< (time, steal CPU-s)
  int cpus_ = 1;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last: starts after the members it uses
};

/// The benchmark's rule for host interference.  Operations, in the order
/// taken, are cut into blocks of `block`; a block counts when the
/// hypervisor stole at most kStealLimit of the VM's CPU time over it, or,
/// when fewer than a third of the blocks are that clean, when it is among
/// the least stolen third.  Statistics use the blocks that count.
struct BlockStats {
  std::vector<double> rates;   ///< per counted block: operations / s of op time
  std::vector<double> lat_ms;  ///< operations of the counted blocks, in order
  std::size_t blocks = 0, clean = 0;  ///< blocks cut, blocks counted
};
constexpr double kStealLimit = 0.02;
[[nodiscard]] BlockStats block_stats(const std::vector<OpSpan>& ops, std::size_t block,
                                     const StealMonitor& steal);

/// Median of the spans' durations in ms, over the ones the hypervisor
/// left alone (block_stats with blocks of one).
[[nodiscard]] double clean_median_ms(const std::vector<OpSpan>& spans, const StealMonitor& steal);

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
[[nodiscard]] double peak_rss_mb(int pid = 0);

// ---- seeded generators -----------------------------------------------------

/// splitmix64 stream: the benchmark's own generator, independent of the
/// library's support/rng so library changes cannot move the inputs.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(below(v.size()))];
  }

 private:
  std::uint64_t state_;
};

/// Endless seeded draw of distinct MBCI chains: gemm, attention, gelu and
/// relu families, 2- and (with `three_op`) 3-op, with batch and extents
/// taken from the ranges of the paper's Tables II and III.  Names are
/// "<tag>-<index>", so a chain is fully determined by (seed, index).
class ChainDraw {
 public:
  ChainDraw(std::uint64_t seed, std::string tag, bool three_op);
  /// The i-th chain of the draw (generated on first request).
  const mcf::ChainSpec& at(std::size_t i);

 private:
  SeededRng rng_;
  std::string tag_;
  bool three_op_;
  std::vector<std::unique_ptr<mcf::ChainSpec>> chains_;  ///< stable addresses
  std::unordered_set<std::string> seen_;  ///< shapes drawn so far
};

/// The paper's Table II (G1-G12) and Table III (S1-S9) suites.
[[nodiscard]] std::vector<mcf::ChainSpec> paper_suite();

/// Modelled throughput of a tuned chain: FLOPs over its winner's time.
[[nodiscard]] double gflops(const mcf::ChainSpec& c, double time_s);

/// Engine options of every sim-backend workload: `jobs` = nproc.
[[nodiscard]] mcf::FusionEngineOptions sim_engine_options(int jobs);

/// Search- and engine-layer counters of fresh tuning results, averaged
/// per tuned chain into the per-layer table.
struct TuneTotals {
  int n = 0;
  double space_build_ms = 0, survival = 0, tuner_ms = 0, seed_ms = 0,
         estimate_ms = 0, measure_ms = 0, mutate_ms = 0, generations = 0,
         estimates = 0, measurements = 0, rejects = 0, overhead_ms = 0;
  int overhead_n = 0;

  /// `space_build_s` is the benchmark's own build of the same space;
  /// `call_wall_s` (0 = unknown) the wall of the call that tuned it.
  void add(const mcf::FusionResult& r, double space_build_s, double call_wall_s);
  void emit(Output& out) const;
};

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder.  A span is (name, start, end, parent, op);
/// the layer is the part of the name before the first '.'.  Spans come
/// either from a scoped timer around a public call (`Tracer::Scope`) or
/// are placed from durations the library reports (`add`).  Nothing is
/// written until the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< a string literal: recording never allocates
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t op = 0;
    int tid = 0;
  };

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }
    [[nodiscard]] std::int64_t start_ns() const noexcept { return start_; }

   private:
    Tracer* t_;
    int id_ = -1;
    std::int64_t start_ = 0;
  };

  /// Records a span from known bounds (durations reported by the
  /// library); returns its id.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t op);

  /// Self time per layer in ms: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Self time per span name in ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;
  /// Share of an "op" span's wall time covered by its children, at the
  /// given quantile over all ops (a preempted op is a rare low outlier).
  [[nodiscard]] double op_coverage(double q) const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  [[nodiscard]] bool write_chrome(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  /// Self time of every span (ns), index-aligned with spans_.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  mutable std::mutex mu_;
  std::deque<Span> spans_;  ///< never moves a span: scopes stay cheap
};

/// Places the tuner's reported phase durations as spans: a
/// "search.tuner" span ending at `end_ns` under `parent`, holding the
/// seed, estimate (model), measure (gpu) and mutate phases in sequence.
void add_tuner_spans(Tracer* t, const mcf::TuningStats& st, int parent,
                     std::int64_t end_ns, std::uint64_t op);

/// Adds the self-time and coverage summary of a traced run to `out` and
/// writes the Chrome trace next to the run's other files.
void finish_trace(const Tracer& tracer, const RunConfig& cfg, Output& out);

}  // namespace perfbench
