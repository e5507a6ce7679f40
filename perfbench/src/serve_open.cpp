// serve-open: the service path.  An open loop of FuseChain requests over
// a Unix socket to a child `mcfuser serve --jobs nproc --max-queue Q`.
// Requests follow a seeded Poisson schedule at a few fixed rates, sent
// over at most nproc client connections; each is timed from the moment
// it was due, so a stalled server also delays the requests queued behind
// it, and the generator's own lateness is reported.  This is the only
// workload on `net` and on the engine's admission path (try_submit,
// queue wait, shedding), and where queueing makes latency rise before
// throughput stops rising.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "gpu/spec.hpp"
#include "net/client.hpp"
#include "search/space.hpp"

namespace perfbench {
namespace {

/// A rate passes when its p99 latency (from due time) stays within this
/// limit — about twice the p99 at half the service's capacity on a
/// 4-core host — and the generator sends every request in time.
constexpr double kP99LimitMs = 80.0;
/// Offered rates (requests/s), low to high.  The reference rate, about
/// half of capacity, gives the headline latency; the saturation rate is
/// far above capacity, so the client's nproc connections stay busy and
/// completions per second measure the service's throughput.
constexpr double kRates[] = {50.0, 100.0, 150.0, 200.0, 250.0};
constexpr double kReferenceRate = 100.0;
constexpr double kSaturationRate = 500.0;
/// Shares of --seconds: the reference rate, the saturation phase; the
/// other rates split the rest.
constexpr double kReferenceShare = 0.5;
constexpr double kSaturationShare = 0.2;
/// Requests per statistics block: latency blocks of the sweep phases,
/// answer blocks of the saturation phase.
constexpr std::size_t kBlock = 64;
/// How long past its window a phase keeps sending its backlog.
constexpr double kGraceS = 0.5;
constexpr int kSetups = 5;
/// Requests re-tuned in-process to check the served winners.
constexpr std::size_t kRepeatCheck = 16;
constexpr int kStatsProbes = 200;

std::string json_field(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  std::size_t at = json.find(pat);
  if (at == std::string::npos) return "";
  at += pat.size();
  while (at < json.size() && json[at] == ' ') ++at;
  std::size_t end = at;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(at, end - at);
}

double json_num(const std::string& json, const std::string& key) {
  const std::string v = json_field(json, key);
  return v.empty() ? -1.0 : std::stod(v);
}

/// `mcfuser serve` as a child process on a private socket.  The child
/// dies with the benchmark (PR_SET_PDEATHSIG) and is always reaped.
class ServerChild {
 public:
  ServerChild(const RunConfig& cfg, const std::string& socket) : socket_(socket) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    const std::string log = cfg.work_dir + "/server.log";
    const std::string jobs = std::to_string(cfg.nproc);
    const std::string queue = std::to_string(4 * cfg.nproc);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const char* argv[] = {cfg.server_bin.c_str(), "serve", "--socket", socket.c_str(),
                            "--jobs", jobs.c_str(), "--max-queue", queue.c_str(),
                            "--json", nullptr};
      ::execv(argv[0], const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
  }
  ~ServerChild() { (void)stop(nullptr); }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// Polls a stats round trip until the server answers.
  bool wait_ready(double timeout_s) {
    mcf::net::ClientOptions o;
    o.max_retries = 0;
    o.connect_timeout_s = 1.0;
    mcf::net::FusionClient client(socket_, o);
    const std::int64_t t0 = now_ns();
    while (secs_since(t0) < timeout_s) {
      std::string json;
      if (client.query_stats(&json).status == mcf::net::RpcStatus::Ok) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      ::usleep(2000);
    }
    return false;
  }

  /// SIGTERM (the server drains), then reaps it; returns its exit code
  /// (-1 when it had to be killed) and the JSON it printed.
  int stop(std::string* json) {
    if (pid_ <= 0) return -1;
    // The server answers on its socket a moment before it installs its
    // SIGTERM handler; a signal in between would kill it undrained.
    for (int i = 0; i < 1000 && !catches_sigterm(); ++i) ::usleep(1000);
    ::kill(pid_, SIGTERM);
    std::string text;
    char buf[4096];
    ssize_t got = 0;
    while ((got = ::read(out_fd_, buf, sizeof(buf))) > 0) text.append(buf, got);
    ::close(out_fd_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (json != nullptr) *json = text;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  bool catches_sigterm() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("SigCgt:", 0) == 0) {
        return (std::stoull(line.substr(7), nullptr, 16) >> (SIGTERM - 1)) & 1;
      }
    }
    return false;
  }

  std::string socket_;
  int pid_ = -1;
  int out_fd_ = -1;
};

struct Request {
  const mcf::ChainSpec* chain = nullptr;
  double due_s = 0.0;  ///< offset from the phase start
  double send_s = 0.0, done_s = 0.0;
  bool sent = false;
  bool ok = false;
  int attempts = 0;
  double time_s = 0.0;  ///< served winner's simulated time
  std::string error;
};

struct Phase {
  double rate = 0.0;
  double window_s = 0.0;
  std::int64_t t0_ns = 0;  ///< start of the schedule
  std::vector<Request> reqs;
  bool backlog = false;  ///< requests still unsent after the grace period

  /// Each request from its due time to its answer, in schedule order.
  std::vector<OpSpan> spans() const {
    std::vector<OpSpan> v;
    const auto ns = [&](double s) { return t0_ns + static_cast<std::int64_t>(s * 1e9); };
    for (const Request& r : reqs) v.push_back({ns(r.due_s), ns(r.done_s)});
    return v;
  }
  /// Intervals between consecutive answers (the first from the phase
  /// start): blocks of these give completions per second.
  std::vector<OpSpan> completion_gaps() const {
    std::vector<std::int64_t> done;
    for (const Request& r : reqs) done.push_back(t0_ns + static_cast<std::int64_t>(r.done_s * 1e9));
    std::sort(done.begin(), done.end());
    std::vector<OpSpan> v;
    std::int64_t prev = t0_ns;
    for (const std::int64_t d : done) {
      v.push_back({prev, d});
      prev = d;
    }
    return v;
  }
  std::vector<double> lateness_ms() const {
    std::vector<double> v;
    for (const Request& r : reqs) v.push_back((r.send_s - r.due_s) * 1e3);
    return v;
  }
};

/// Runs one phase: a seeded Poisson schedule at `rate` over `window_s`,
/// sent by nproc connections that each take the next due request.
void run_phase(Phase& ph, ChainDraw& draw, std::size_t& next_chain, SeededRng& rng,
               const std::string& socket, int conns, Tracer* tp, std::uint64_t& op_id) {
  for (double t = -std::log(1.0 - rng.unit()) / ph.rate; t < ph.window_s;
       t += -std::log(1.0 - rng.unit()) / ph.rate) {
    Request r;
    r.chain = &draw.at(next_chain++);
    r.due_s = t;
    ph.reqs.push_back(r);
  }
  std::atomic<std::size_t> next{0};
  const std::int64_t t0 = now_ns();
  ph.t0_ns = t0;
  const std::uint64_t op_base = op_id;
  std::vector<std::thread> workers;
  for (int c = 0; c < conns; ++c) {
    workers.emplace_back([&] {
      mcf::net::FusionClient client(socket);
      for (std::size_t k = next++; k < ph.reqs.size(); k = next++) {
        // Past the window the generator gives up on its backlog; the
        // unsent requests count as neither attempted nor completed.
        if (secs_since(t0) > ph.window_s + kGraceS) break;
        Request& r = ph.reqs[k];
        const std::int64_t due_ns = t0 + static_cast<std::int64_t>(r.due_s * 1e9);
        while (now_ns() < due_ns) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now_ns()));
        }
        const std::int64_t send = now_ns();
        const mcf::net::RpcResult res = client.fuse(*r.chain);
        const std::int64_t done = now_ns();
        r.sent = true;
        r.send_s = static_cast<double>(send - t0) * 1e-9;
        r.done_s = static_cast<double>(done - t0) * 1e-9;
        r.attempts = res.attempts;
        r.ok = res.status == mcf::net::RpcStatus::Ok && res.response.status == 0;
        r.time_s = res.response.time_s;
        if (!r.ok) {
          r.error = std::string(mcf::net::rpc_status_name(res.status)) + " " +
                    res.detail + " " + res.response.reason;
        }
        if (tp != nullptr) {
          const std::uint64_t id = op_base + k;
          const int root = tp->add("op", due_ns, done, -1, id);
          tp->add("load.wait", due_ns, send, root, id);
          tp->add("net.fuse_rpc", send, done, root, id);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  op_id += ph.reqs.size();
  const std::size_t scheduled = ph.reqs.size();
  std::erase_if(ph.reqs, [](const Request& r) { return !r.sent; });
  ph.backlog = ph.reqs.size() < scheduled;
}

std::string socket_path(const RunConfig& cfg) {
  // sun_path holds ~107 bytes: prefer the path relative to the
  // benchmark's working directory (the checkout root).
  std::error_code ec;
  const std::filesystem::path rel =
      std::filesystem::relative(cfg.work_dir + "/serve.sock", ec);
  return ec ? cfg.work_dir + "/serve.sock" : rel.string();
}

}  // namespace

Output run_serve_open(const RunConfig& cfg) {
  Output out;
  const std::string socket = socket_path(cfg);
  if (socket.size() >= 100) {
    out.errors.push_back("socket path too long for a Unix socket: " + socket);
    return out;
  }

  // Set-up: start the server until it answers.  Spare servers on a
  // second socket repeat it between phases (kSetups in all); each spare
  // must drain on SIGTERM with exit 0 and its identity intact.
  std::vector<OpSpan> setups;
  const auto start_server = [&](const std::string& path) {
    const std::int64_t t0 = now_ns();
    auto child = std::make_unique<ServerChild>(cfg, path);
    if (!child->wait_ready(20.0)) return std::unique_ptr<ServerChild>();
    setups.push_back({t0, now_ns()});
    return child;
  };
  std::unique_ptr<ServerChild> server = start_server(socket);
  if (server == nullptr) {
    out.errors.push_back("mcfuser serve did not come up (see " + cfg.work_dir + "/server.log)");
    return out;
  }
  const auto spare_set_up = [&] {
    std::unique_ptr<ServerChild> spare = start_server(socket + ".spare");
    std::string json;
    const int code = spare == nullptr ? -1 : spare->stop(&json);
    if (code != 0 || json_field(json, "identity_ok") != "true") {
      out.errors.push_back("spare server drain: exit " + std::to_string(code) + ", " + json);
    }
  };

  // compile_s: the paper's Table II/III suite served one request at a
  // time; passes are spread between the phases below.
  mcf::net::FusionClient client(socket);
  std::vector<OpSpan> compile_runs;
  std::vector<double> suite_gflops;
  const std::vector<mcf::ChainSpec> suite = paper_suite();
  const auto compile_pass = [&] {
    const std::int64_t c0 = now_ns();
    std::vector<double> g;
    for (const mcf::ChainSpec& c : suite) {
      const mcf::net::RpcResult res = client.fuse(c);
      ++out.attempted;
      if (res.status != mcf::net::RpcStatus::Ok || res.response.status != 0) {
        out.fail(c.name() + ": suite request failed");
      }
      g.push_back(gflops(c, res.response.time_s));
    }
    compile_runs.push_back({c0, now_ns()});
    if (!suite_gflops.empty() && g != suite_gflops) {
      out.fail("served suite winners differ between passes");
    }
    suite_gflops = std::move(g);
  };
  // Side measurements at the b-th of the 7 phase boundaries (before the
  // sweep, after each sweep phase, between the saturation halves).
  constexpr int kBoundaries = std::size(kRates) + 2;
  const auto boundary = [&](int b) {
    while (static_cast<int>(compile_runs.size()) < kCompilePasses * (b + 1) / kBoundaries) {
      compile_pass();
    }
    if (b >= 1 && static_cast<int>(setups.size()) < kSetups) spare_set_up();
  };

  // The rate sweep, then the saturation phase.  A traced run traces the
  // sweep and the second half of the saturation phase.
  Tracer tracer;
  Tracer* tp = cfg.trace ? &tracer : nullptr;
  ChainDraw draw(cfg.seed, "so", false);
  std::size_t next_chain = 0;
  SeededRng rng(cfg.seed ^ 0x5E4E0ULL);
  std::uint64_t op_id = 0;
  const double other_s = cfg.seconds * (1.0 - kReferenceShare - kSaturationShare) /
                         static_cast<double>(std::size(kRates) - 1);
  std::vector<Phase> phases;
  int b = 0;
  for (const double rate : kRates) {
    boundary(b++);
    Phase ph;
    ph.rate = rate;
    ph.window_s = rate == kReferenceRate ? cfg.seconds * kReferenceShare : other_s;
    run_phase(ph, draw, next_chain, rng, socket, cfg.nproc, tp, op_id);
    phases.push_back(std::move(ph));
  }
  Phase sat[2];
  for (int half = 0; half < 2; ++half) {
    boundary(b++);
    sat[half].rate = kSaturationRate;
    sat[half].window_s = cfg.seconds * kSaturationShare / 2;
    run_phase(sat[half], draw, next_chain, rng, socket, cfg.nproc,
              half == 1 ? tp : nullptr, op_id);
  }

  // Stats round trips (no tuning): the bare RPC cost.
  std::vector<double> rpc_ms;
  std::string stats;
  for (int i = 0; i < kStatsProbes; ++i) {
    const Tracer::Scope span(tp, "net.stats_rpc", i);
    const std::int64_t t0 = now_ns();
    if (client.query_stats(&stats).status != mcf::net::RpcStatus::Ok) {
      out.errors.push_back("stats query failed");
      break;
    }
    rpc_ms.push_back(secs_since(t0) * 1e3);
  }
  const double server_rss = peak_rss_mb(server->pid());
  std::string final_json;
  const int exit_code = server->stop(&final_json);
  if (exit_code != 0 || json_field(final_json, "identity_ok") != "true") {
    out.fail("server drain: exit " + std::to_string(exit_code) + ", " + final_json);
  }
  const bool identity_stats =
      json_num(stats, "submitted") ==
      json_num(stats, "completed") + json_num(stats, "rejected") +
          json_num(stats, "cancelled") + json_num(stats, "deadline_exceeded");
  if (!identity_stats) out.fail("server stats break the admission identity: " + stats);

  // Results: every request Ok; served winners match an in-process tune.
  std::vector<double> sim_us, attempts;
  auto count = [&](const Phase& ph, bool quality) {
    for (const Request& r : ph.reqs) {
      ++out.attempted;
      attempts.push_back(r.attempts);
      if (!r.ok) out.fail(r.chain->name() + ": " + r.error);
      if (quality && r.ok) sim_us.push_back(r.time_s * 1e6);
    }
  };
  for (const Phase& ph : phases) count(ph, true);
  for (const Phase& ph : sat) count(ph, false);

  const mcf::GpuSpec gpu = mcf::a100();
  const mcf::FusionEngineOptions opts = sim_engine_options(cfg.nproc);
  const mcf::FusionEngine local(gpu, opts);
  TuneTotals totals;
  std::vector<double> wait_ms;
  const Phase& ref = *std::find_if(phases.begin(), phases.end(), [](const Phase& ph) {
    return ph.rate == kReferenceRate;
  });
  for (std::size_t i = 0; i < kRepeatCheck && i < ref.reqs.size(); ++i) {
    const Request& r = ref.reqs[i];
    const std::int64_t b0 = now_ns();
    const mcf::SearchSpace space(*r.chain, opts.space, opts.prune, opts.sched);
    const double build_s = secs_since(b0);
    const std::int64_t t0 = now_ns();
    const mcf::FusionResult lr = local.fuse(*r.chain);
    const double wall = secs_since(t0);
    totals.add(lr, build_s, wall);
    wait_ms.push_back((r.done_s - r.send_s - wall) * 1e3);
    ++out.attempted;
    if (!lr.ok() || lr.time_s() != r.time_s) {
      out.fail(r.chain->name() + ": served winner differs from an in-process tune");
    }
  }

  std::printf("# serve-open: socket %s, %d connections, p99 limit %.0f ms\n",
              socket.c_str(), cfg.nproc, kP99LimitMs);
  double max_rps = 0.0, previous_rate = 0.0;
  for (const Phase& ph : phases) {
    const std::vector<double> lat = block_stats(ph.spans(), kBlock, *cfg.steal).lat_ms;
    const std::vector<double> late = ph.lateness_ms();
    const double p99 = quantile(lat, 0.99);
    const bool pass = !ph.backlog && p99 <= kP99LimitMs;
    // The highest rate below which every rate passed.
    if (pass && max_rps == previous_rate) max_rps = ph.rate;
    previous_rate = ph.rate;
    std::printf("# rate %7.1f/s: %5zu requests, latency p50 %8.2f p99 %8.2f ms, "
                "lateness p50 %7.2f p99 %8.2f ms%s%s\n",
                ph.rate, ph.reqs.size(), quantile(lat, 0.5), p99, quantile(late, 0.5),
                quantile(late, 0.99), ph.backlog ? ", backlog" : "", pass ? "" : " (FAIL)");
  }
  // Throughput: completions per block of kBlock answers in the
  // saturation phase, median over the clean blocks of both halves.
  std::vector<double> sat_rates, half_rate(2);
  for (int half = 0; half < 2; ++half) {
    const BlockStats bs = block_stats(sat[half].completion_gaps(), kBlock, *cfg.steal);
    half_rate[half] = median(bs.rates);
    sat_rates.insert(sat_rates.end(), bs.rates.begin(), bs.rates.end());
  }
  const BlockStats ref_bs = block_stats(ref.spans(), kBlock, *cfg.steal);
  const std::vector<double> ref_late = ref.lateness_ms();
  std::printf("# reference rate: %zu of %zu blocks clean; saturation: %zu clean "
              "blocks of %zu answers\n",
              ref_bs.clean, ref_bs.blocks, sat_rates.size(), kBlock);

  out.e2e["setup_s"] = clean_median_ms(setups, *cfg.steal) * 1e-3;
  out.e2e["ops_per_s"] = median(sat_rates);
  out.e2e["latency_ms_p50"] = quantile(ref_bs.lat_ms, 0.50);
  out.e2e["latency_ms_p99"] = block_quantile(ref_bs.lat_ms, 0.99);
  out.e2e["ok_frac"] = 1.0 - static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted);
  out.e2e["tuned_time_us_geomean"] = geomean(sim_us);
  out.e2e["compile_s"] = clean_median_ms(compile_runs, *cfg.steal) * 1e-3;
  out.e2e["kernel_gflops"] = geomean(suite_gflops);
  out.e2e["serve_max_rps"] = max_rps;
  out.e2e["peak_rss_mb"] = server_rss;

  if (tp != nullptr) {
    out.layer["trace.overhead_frac"] = 1.0 - half_rate[1] / half_rate[0];
    totals.emit(out);
    out.layer["net.rpc_ms_p50"] = quantile(rpc_ms, 0.5);
    out.layer["net.attempts_per_call"] = mean(attempts);
    out.layer["net.requests_shed"] = json_num(stats, "requests_shed");
    out.layer["engine.rejected"] = json_num(stats, "rejected");
    out.layer["engine.identity_ok"] = identity_stats ? 1.0 : 0.0;
    out.layer["engine.queue_wait_ms"] = median(wait_ms) - quantile(rpc_ms, 0.5);
    out.layer["load.lateness_ms_p50"] = quantile(ref_late, 0.50);
    out.layer["load.lateness_ms_p99"] = quantile(ref_late, 0.99);
    finish_trace(tracer, cfg, out);
  }
  return out;
}

}  // namespace perfbench
