#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>

#include "support/logging.hpp"
#include "workloads/suites.hpp"

namespace perfbench {

// ---- metric tables ---------------------------------------------------------

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> k = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p99", "ms"},
      {"ok_frac", "frac"},
      {"tuned_time_us_geomean", "us"},
      {"compile_s", "s"},
      {"kernel_gflops", "GFLOP/s"},
      {"serve_max_rps", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return k;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> k = {
      {"search.space_build_ms", "ms"},
      {"search.prune_survival", "frac"},
      {"search.tuner_ms", "ms"},
      {"search.tuner_seed_ms", "ms"},
      {"search.tuner_estimate_ms", "ms"},
      {"search.tuner_measure_ms", "ms"},
      {"search.tuner_mutate_ms", "ms"},
      {"search.generations", "count"},
      {"search.estimates", "count"},
      {"search.measurements", "count"},
      {"search.measure_per_estimate", "frac"},
      {"search.lowering_rejects", "count"},
      {"model.estimate_us", "us"},
      {"gpu.sim_measure_us", "us"},
      {"engine.fuse_overhead_ms", "ms"},
      {"engine.queue_wait_ms", "ms"},
      {"engine.memo_hit_ratio", "frac"},
      {"engine.dedup_ratio", "ratio"},
      {"engine.rejected", "count"},
      {"engine.identity_ok", "bool"},
      {"engine.fresh_latency_ms_p50", "ms"},
      {"engine.memo_hit_latency_ms_p50", "ms"},
      {"graph.partition_ms", "ms"},
      {"graph.mbci_subgraphs", "count"},
      {"exec.codegen_emit_ms", "ms"},
      {"exec.codegen_source_bytes", "bytes"},
      {"verify.schedule_us", "us"},
      {"verify.safe_frac", "frac"},
      {"verify.wrong_output_schedules", "count"},
      {"exec.jit_compile_s_per_kernel", "s"},
      {"exec.jit_tus", "count"},
      {"exec.jit_so_bytes", "bytes"},
      {"exec.jit_run_us_1t", "us"},
      {"exec.jit_run_us_mt", "us"},
      {"exec.jit_thread_scaling", "ratio"},
      {"exec.jit_peak_frac_1t", "frac"},
      {"exec.jit_bw_frac", "frac"},
      {"net.rpc_ms_p50", "ms"},
      {"net.attempts_per_call", "count"},
      {"net.requests_shed", "count"},
      {"load.lateness_ms_p50", "ms"},
      {"load.lateness_ms_p99", "ms"},
      {"host.fma_gflops_1t", "GFLOP/s"},
      {"host.triad_gb_s", "GB/s"},
      {"host.steal_frac", "frac"},
      {"trace.overhead_frac", "frac"},
      {"trace.span_coverage_p01", "frac"},
      {"trace.spans", "count"},
      {"trace.self_ms.op", "ms"},
      {"trace.self_ms.search", "ms"},
      {"trace.self_ms.model", "ms"},
      {"trace.self_ms.gpu", "ms"},
      {"trace.self_ms.engine", "ms"},
      {"trace.self_ms.graph", "ms"},
      {"trace.self_ms.exec", "ms"},
      {"trace.self_ms.verify", "ms"},
      {"trace.self_ms.net", "ms"},
      {"trace.self_ms.load", "ms"},
  };
  return k;
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double block_quantile(const std::vector<double>& v, double q, std::size_t min_block) {
  const std::size_t blocks = std::max<std::size_t>(1, v.size() / min_block);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(v.size() * b / blocks);
    const auto hi = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (b + 1) / blocks);
    per_block.push_back(quantile(std::vector<double>(lo, hi), q));
  }
  return median(std::move(per_block));
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const double x : v) {
    if (x > 0.0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

namespace {

/// Total steal time of all CPUs (seconds), from the first line of
/// /proc/stat; 0 when the kernel does not report it.
double read_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> field); ++i) steal = field;  // 8th: steal
  static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return steal / ticks;
}

}  // namespace

StealMonitor::StealMonitor()
    : cpus_(std::max(1, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)))),
      thread_([this] {
        while (!stop_.load()) {
          sample();
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {
  sample();
}

StealMonitor::~StealMonitor() {
  stop_.store(true);
  thread_.join();
}

void StealMonitor::sample() {
  const double s = read_steal_s();
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  samples_.emplace_back(t, s);
}

double StealMonitor::frac(std::int64_t t0_ns, std::int64_t t1_ns) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty() || t1_ns <= t0_ns) return 0.0;
  // The last sample at or before t0 and the first at or after t1 bound
  // the steal that happened inside the interval.
  const auto before = std::upper_bound(
      samples_.begin(), samples_.end(), t0_ns,
      [](std::int64_t t, const auto& s) { return t < s.first; });
  const auto after = std::lower_bound(
      samples_.begin(), samples_.end(), t1_ns,
      [](const auto& s, std::int64_t t) { return s.first < t; });
  const auto& lo = before == samples_.begin() ? samples_.front() : *(before - 1);
  const auto& hi = after == samples_.end() ? samples_.back() : *after;
  const double span_s = static_cast<double>(std::max(hi.first - lo.first, t1_ns - t0_ns)) * 1e-9;
  return (hi.second - lo.second) / (span_s * cpus_);
}

BlockStats block_stats(const std::vector<OpSpan>& ops, std::size_t block,
                       const StealMonitor& steal) {
  BlockStats bs;
  block = std::min(block, ops.size());  // a short run is one block
  std::vector<double> stolen;
  for (std::size_t b = 0; block > 0 && b + block <= ops.size(); b += block) {
    stolen.push_back(steal.frac(ops[b].start_ns, ops[b + block - 1].end_ns));
  }
  bs.blocks = stolen.size();
  // Blocks under the limit count; when fewer than a third are, the least
  // stolen third does.
  const double limit = std::max(kStealLimit, quantile(stolen, 1.0 / 3.0));
  for (std::size_t k = 0; k < stolen.size(); ++k) {
    if (stolen[k] > limit) continue;
    ++bs.clean;
    double busy_ms = 0.0;
    for (std::size_t i = k * block; i < (k + 1) * block; ++i) {
      busy_ms += ops[i].ms();
      bs.lat_ms.push_back(ops[i].ms());
    }
    bs.rates.push_back(static_cast<double>(block) / (busy_ms * 1e-3));
  }
  return bs;
}

double clean_median_ms(const std::vector<OpSpan>& spans, const StealMonitor& steal) {
  return median(block_stats(spans, 1, steal).lat_ms);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---- seeded generators -----------------------------------------------------

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ChainDraw::ChainDraw(std::uint64_t seed, std::string tag, bool three_op)
    : rng_(seed ^ 0x7C0FFEE5ULL), tag_(std::move(tag)), three_op_(three_op) {}

const mcf::ChainSpec& ChainDraw::at(std::size_t i) {
  // Extents from the paper's Tables II (batch GEMM chains) and III
  // (attention modules).  The 3-op chains extend a Table II chain by one
  // more GEMM; their extents stay in a narrower band because a 3-op space
  // is ~10x larger and its tuning time would otherwise swamp the mix.
  static const std::vector<std::int64_t> kBatch = {1, 2, 4, 8, 12, 16};
  static const std::vector<std::int64_t> kM = {256, 512, 768, 1024, 2048};
  static const std::vector<std::int64_t> kK = {64, 80, 128, 256, 512};
  static const std::vector<std::int64_t> kN = {256, 384, 512, 1024};
  static const std::vector<std::int64_t> kH = {64, 80, 128, 256};
  static const std::vector<std::int64_t> kM3 = {512, 1024};
  static const std::vector<std::int64_t> kBatch3 = {1, 2,  3,  4,  5,  6,  7,  8,
                                                    9, 10, 11, 12, 13, 14, 15, 16};
  static const std::vector<std::int64_t> kSmall3 = {64, 128};
  static const std::vector<std::int64_t> kN3 = {256, 512};
  static const std::vector<std::int64_t> kHeads = {1, 2, 4, 8, 12, 16};
  static const std::vector<std::int64_t> kSeq = [] {  // 128..1024, step 32
    std::vector<std::int64_t> v;
    for (std::int64_t s = 128; s <= 1024; s += 32) v.push_back(s);
    return v;
  }();
  static const std::vector<std::int64_t> kHeadDim = {64, 80};
  static const mcf::Epilogue kFamily[] = {mcf::Epilogue::None, mcf::Epilogue::Gelu,
                                          mcf::Epilogue::Relu};
  while (chains_.size() <= i) {
    // Stratified: every block of 8 chains holds 2 attention modules,
    // 5 two-op and 1 three-op (or a sixth two-op) gemm/gelu/relu chains,
    // so the family mix — and with it the expected tuning cost — is the
    // same for every seed.
    const std::size_t idx = chains_.size();
    const std::size_t pos = idx % 8, block = idx / 8;
    const std::string name = tag_ + "-" + std::to_string(idx);
    std::unique_ptr<mcf::ChainSpec> c;
    std::string key;
    int tries = 0;
    do {
      // Each stratum holds thousands of shapes; running out means the
      // draw itself is broken.
      MCF_CHECK(++tries < 100000) << "chain draw exhausted at chain " << idx;
      if (pos == 0 || pos == 4) {
        const std::int64_t heads = rng_.pick(kHeads), m = rng_.pick(kSeq),
                           n = rng_.pick(kSeq), d = rng_.pick(kHeadDim);
        c = std::make_unique<mcf::ChainSpec>(
            mcf::ChainSpec::attention(name, heads, m, n, d, d));
      } else {
        const bool three = three_op_ && pos == 7;
        const mcf::Epilogue e = kFamily[(block + pos) % 3];
        std::vector<std::int64_t> inner;
        std::int64_t m = 0;
        if (three) {
          m = rng_.pick(kM3);
          inner = {rng_.pick(kSmall3), rng_.pick(kN3), rng_.pick(kSmall3),
                   rng_.pick(kSmall3)};
        } else {
          m = rng_.pick(kM);
          inner = {rng_.pick(kK), rng_.pick(kN), rng_.pick(kH)};
        }
        std::vector<mcf::Epilogue> epi(inner.size() - 1, e);
        epi.back() = mcf::Epilogue::None;
        const std::int64_t batch = three ? rng_.pick(kBatch3) : rng_.pick(kBatch);
        c = std::make_unique<mcf::ChainSpec>(name, batch, m, std::move(inner),
                                             std::move(epi));
      }
      key = c->to_string();
      key.erase(0, name.size());  // shape and epilogues only
    } while (!seen_.insert(key).second);
    chains_.push_back(std::move(c));
  }
  return *chains_[i];
}

std::vector<mcf::ChainSpec> paper_suite() {
  std::vector<mcf::ChainSpec> out = mcf::gemm_chain_suite();
  for (auto& c : mcf::attention_suite()) out.push_back(std::move(c));
  return out;
}

double gflops(const mcf::ChainSpec& c, double time_s) {
  return time_s > 0.0 ? c.total_flops() / time_s * 1e-9 : 0.0;
}

mcf::FusionEngineOptions sim_engine_options(int jobs) {
  mcf::FusionEngineOptions o;
  o.backend = "sim";
  o.jobs = jobs;
  return o;
}

void TuneTotals::add(const mcf::FusionResult& r, double space_build_s,
                     double call_wall_s) {
  const mcf::TuningStats& st = r.tuned.stats;
  ++n;
  space_build_ms += space_build_s * 1e3;
  if (r.funnel.original > 0) {
    survival += static_cast<double>(r.space_size) / r.funnel.original;
  }
  tuner_ms += st.wall_seconds * 1e3;
  seed_ms += st.seed_seconds * 1e3;
  estimate_ms += st.estimate_seconds * 1e3;
  measure_ms += st.measure_seconds * 1e3;
  mutate_ms += st.mutate_seconds * 1e3;
  generations += st.generations;
  estimates += st.estimates;
  measurements += st.measurements;
  rejects += st.compile_failures;
  if (call_wall_s > 0) {
    overhead_ms += (call_wall_s - st.wall_seconds - space_build_s) * 1e3;
    ++overhead_n;
  }
}

void TuneTotals::emit(Output& out) const {
  if (n == 0) return;
  const double k = 1.0 / n;
  out.layer["search.space_build_ms"] = space_build_ms * k;
  out.layer["search.prune_survival"] = survival * k;
  out.layer["search.tuner_ms"] = tuner_ms * k;
  out.layer["search.tuner_seed_ms"] = seed_ms * k;
  out.layer["search.tuner_estimate_ms"] = estimate_ms * k;
  out.layer["search.tuner_measure_ms"] = measure_ms * k;
  out.layer["search.tuner_mutate_ms"] = mutate_ms * k;
  out.layer["search.generations"] = generations * k;
  out.layer["search.estimates"] = estimates * k;
  out.layer["search.measurements"] = measurements * k;
  out.layer["search.measure_per_estimate"] =
      estimates > 0 ? measurements / estimates : 0.0;
  out.layer["search.lowering_rejects"] = rejects * k;
  // The seed phase scores its population with the model too.
  out.layer["model.estimate_us"] =
      estimates > 0 ? (seed_ms + estimate_ms) * 1e3 / estimates : 0.0;
  out.layer["gpu.sim_measure_us"] =
      measurements > 0 ? measure_ms * 1e3 / measurements : 0.0;
  if (overhead_n > 0) out.layer["engine.fuse_overhead_ms"] = overhead_ms / overhead_n;
}

// ---- tracing ---------------------------------------------------------------

namespace {

/// Open scopes of the calling thread (innermost last): the parent of a
/// new scoped span.
thread_local std::vector<int> t_open_scopes;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t op) : t_(t) {
  if (t_ == nullptr) return;
  start_ = now_ns();
  const int parent = t_open_scopes.empty() ? -1 : t_open_scopes.back();
  id_ = t_->add(name, start_, start_, parent, op);
  t_open_scopes.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_open_scopes.pop_back();
  const std::lock_guard<std::mutex> lock(t_->mu_);
  t_->spans_[static_cast<std::size_t>(id_)].end_ns = end;
}

int Tracer::add(const char* name, std::int64_t start_ns,
                std::int64_t end_ns, int parent, std::uint64_t op) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, op, thread_index()});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  for (auto& x : self) x = std::max<std::int64_t>(x, 0);
  return self;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[layer_of(spans_[i].name)] += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

double Tracer::op_coverage(double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> shares;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string_view(s.name) != "op" || s.end_ns <= s.start_ns) continue;
    shares.push_back(static_cast<double>(covered[i]) /
                     static_cast<double>(s.end_ns - s.start_ns));
  }
  return quantile(std::move(shares), q);
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%llu,"
                  "\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, layer_of(s.name).c_str(),
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid,
                  static_cast<unsigned long long>(s.op), i, s.parent);
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void add_tuner_spans(Tracer* t, const mcf::TuningStats& st, int parent,
                     std::int64_t end_ns, std::uint64_t op) {
  if (t == nullptr) return;
  const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  std::int64_t at = end_ns - ns(st.wall_seconds);
  const int tuner = t->add("search.tuner", at, end_ns, parent, op);
  const std::pair<const char*, double> phases[] = {
      {"search.tuner_seed", st.seed_seconds},
      {"model.estimate", st.estimate_seconds},
      {"gpu.sim_measure", st.measure_seconds},
      {"search.tuner_mutate", st.mutate_seconds},
  };
  for (const auto& [name, secs] : phases) {
    const std::int64_t end = std::min(end_ns, at + ns(secs));
    t->add(name, at, end, tuner, op);
    at = end;
  }
}

void finish_trace(const Tracer& tracer, const RunConfig& cfg, Output& out) {
  const std::map<std::string, double> by_layer = tracer.self_ms_by_layer();
  for (const auto& [layer, ms] : by_layer) {
    const std::string key = "trace.self_ms." + layer;
    out.layer[key] = ms;
  }
  for (const auto& [name, ms] : tracer.self_ms_by_name()) {
    std::printf("# self %-28s %12.3f ms\n", name.c_str(), ms);
  }
  out.layer["trace.span_coverage_p01"] = tracer.op_coverage(0.01);
  out.layer["trace.spans"] = static_cast<double>(tracer.size());
  const std::string path = cfg.work_dir + "/trace-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".json";
  if (tracer.write_chrome(path)) {
    std::printf("# chrome trace: %s\n", path.c_str());
  } else {
    out.errors.push_back("cannot write trace file " + path);
  }
}

}  // namespace perfbench
