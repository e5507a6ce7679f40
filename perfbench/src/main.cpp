// perfbench — the repository benchmark.
//
//   perfbench --workload tune-sim|kernel-native|graph-memo|serve-open
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints human-readable "# ..." lines, then one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end table, with --trace 1 the
// per-layer table (bench.cpp).  Exits 1 when any correctness check
// failed, 2 on a usage error.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::MetricDef;
using perfbench::Output;
using perfbench::RunConfig;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tune-sim|kernel-native|graph-memo|serve-open --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

bool make_dirs(const std::string& path) {
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty() && ::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) cur += path[i];
  }
  return true;
}

/// Emits the metric table in `defs` from `values`; a missing or
/// non-finite value is a benchmark bug and fails the run.
std::string metrics_json(const std::vector<MetricDef>& defs,
                         const std::map<std::string, double>& values,
                         Output& out) {
  std::string json = "{";
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      out.errors.push_back(std::string("metric not measured: ") + d.name);
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", d.name, it->second, d.unit);
    json += buf;
    std::printf("# %-32s %16.6f %s\n", d.name, it->second, d.unit);
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = ".bench_build/run";
  cfg.server_bin = PERFBENCH_SERVER_BIN;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
        have_trace = true;
      } else if (a == "--work-dir") {
        cfg.work_dir = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (cfg.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  // Pin the library's thread pool to the CPUs this process may use; the
  // engine's `jobs` follow the same count (recorded below).
  cfg.nproc = online_cpus();
  ::setenv("MCF_NUM_THREADS", std::to_string(cfg.nproc).c_str(), 1);
  cfg.work_dir += "/" + cfg.workload + "-" + std::to_string(cfg.seed) + "-" +
                  std::to_string(::getpid());
  if (!make_dirs(cfg.work_dir)) return usage("cannot create --work-dir");
  std::printf("# workload %s seed %llu seconds %.3f trace %d nproc %d "
              "MCF_NUM_THREADS=%d jobs=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc, cfg.nproc, cfg.nproc);

  const perfbench::StealMonitor steal;
  cfg.steal = &steal;
  const std::int64_t run_start = perfbench::now_ns();
  if (cfg.trace) {
    cfg.fma_gflops_1t = perfbench::host_fma_gflops_1t();
    cfg.triad_gb_s = perfbench::host_triad_gb_s(cfg.nproc);
    std::printf("# host roofline: fma %.2f GFLOP/s (1 core), triad %.2f GB/s "
                "(%d threads)\n",
                cfg.fma_gflops_1t, cfg.triad_gb_s, cfg.nproc);
  }

  Output out;
  if (cfg.workload == "tune-sim") {
    out = perfbench::run_tune_sim(cfg);
  } else if (cfg.workload == "kernel-native") {
    out = perfbench::run_kernel_native(cfg);
  } else if (cfg.workload == "graph-memo") {
    out = perfbench::run_graph_memo(cfg);
  } else if (cfg.workload == "serve-open") {
    out = perfbench::run_serve_open(cfg);
  } else {
    return usage(("unknown workload " + cfg.workload).c_str());
  }

  const double steal_frac = steal.frac(run_start, perfbench::now_ns());
  std::printf("# host steal: %.2f%% of the VM's CPU time during the run (blocks "
              "stolen above %.0f%% count only when fewer than a third are below)\n",
              100.0 * steal_frac, 100.0 * perfbench::kStealLimit);
  out.layer["host.steal_frac"] = steal_frac;
  out.layer["host.fma_gflops_1t"] = cfg.fma_gflops_1t;
  out.layer["host.triad_gb_s"] = cfg.triad_gb_s;
  // A layer the workload never exercises reads 0 in the traced table.
  for (const MetricDef& d : perfbench::layer_metrics()) out.layer.emplace(d.name, 0.0);
  const std::string metrics =
      cfg.trace ? metrics_json(perfbench::layer_metrics(), out.layer, out)
                : metrics_json(perfbench::e2e_metrics(), out.e2e, out);
  for (const std::string& e : out.errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty() && out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
