// Roofline probes of the host, so kernel throughput reads as a share of
// this machine's own peak: a single-core FMA loop and a multi-threaded
// stream triad.  Built with -O3 -march=native (CMakeLists.txt), the ISA
// the jit compiles kernels for.
#include <cmath>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// 16 independent vector FMA chains keep both FMA ports of a core busy
/// through the FMA latency (vector_size lowers to the widest ISA the
/// -march=native build has).
using V16 = float __attribute__((vector_size(64)));
constexpr int kChains = 16;

double fma_once(std::int64_t iters, float a, float b) {
  V16 acc[kChains];
  const V16 va = V16{} + a, vb = V16{} + b;
  for (int j = 0; j < kChains; ++j) acc[j] = V16{} + static_cast<float>(j) * 1e-3f;
  const std::int64_t t0 = now_ns();
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * va + vb;
  }
  const double secs = secs_since(t0);
  float sum = 0.0f;
  for (const V16& v : acc) {
    for (int l = 0; l < 16; ++l) sum += v[l];
  }
  // Keeps the loop live: the sum feeds the returned rate.
  return (2.0 * 16 * kChains * static_cast<double>(iters) / secs * 1e-9) +
         (sum == 12345.678f ? 1e-9 : 0.0);
}

}  // namespace

double host_fma_gflops_1t() {
  volatile float a = 0.999999f, b = 1e-7f;
  std::int64_t iters = 1 << 14;
  while (true) {  // calibrate to ~50 ms per sample
    const std::int64_t t0 = now_ns();
    (void)fma_once(iters, a, b);
    if (secs_since(t0) > 0.05) break;
    iters *= 2;
  }
  double best = 0.0;
  for (int r = 0; r < 5; ++r) best = std::max(best, fma_once(iters, a, b));
  return best;
}

double host_triad_gb_s(int threads) {
  // 3 x 48 MiB: larger than this host class's last-level cache.
  constexpr std::size_t kN = 12u << 20;
  std::vector<float> x(kN, 1.0f), y(kN, 2.0f), z(kN, 0.0f);
  const float s = 3.0f;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = kN * static_cast<std::size_t>(t) / threads;
        const std::size_t hi = kN * static_cast<std::size_t>(t + 1) / threads;
        for (std::size_t i = lo; i < hi; ++i) z[i] = x[i] + s * y[i];
      });
    }
    for (auto& th : pool) th.join();
    const double secs = secs_since(t0);
    best = std::max(best, 3.0 * sizeof(float) * kN / secs * 1e-9);
  }
  return z[kN / 2] == 7.0f ? best : 0.0;
}

}  // namespace perfbench
