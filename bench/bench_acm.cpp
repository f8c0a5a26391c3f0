// T3 — the ACM data structure: the paper chose "a sparse matrix data
// structure for fast lookup and space efficiency" (§III.B). This bench
// quantifies lookup latency and memory footprint of the sparse policy
// against a dense N x N table, across system sizes and policy densities.
//
// Expected shape: lookups are O(1) for both (hash vs index — the dense
// table is somewhat faster per probe); memory is where sparse wins, by
// orders of magnitude for realistic (sparse) building-automation
// policies.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "minix/acm.hpp"
#include "sim/rng.hpp"

namespace minix = mkbas::minix;

namespace {

/// Build matched sparse/dense policies over `n` processes where each
/// process talks to `out_degree` others. `sparse` is the production
/// AcmPolicy (the kernel's sparse map); `dense` is the full N x N table.
struct PolicyPair {
  minix::AcmPolicy sparse;
  minix::DenseAcm dense;

  PolicyPair(int n, int out_degree, std::uint64_t seed) : dense(n) {
    mkbas::sim::Rng rng(seed);
    for (int src = 0; src < n; ++src) {
      for (int e = 0; e < out_degree; ++e) {
        const int dst = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(n)));
        const std::uint64_t mask = rng.next_u64() & 0xFF;
        sparse.allow_mask(src, dst, mask);
        dense.allow_mask(src, dst, mask);
      }
    }
  }
};

}  // namespace

static void BM_SparseAcmLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int degree = static_cast<int>(state.range(1));
  PolicyPair p(n, degree, 42);
  mkbas::sim::Rng rng(7);
  std::uint64_t allowed = 0;
  for (auto _ : state) {
    const int src = static_cast<int>(rng.next_below(n));
    const int dst = static_cast<int>(rng.next_below(n));
    const int type = static_cast<int>(rng.next_below(8));
    allowed += p.sparse.allowed(src, dst, type) ? 1 : 0;
  }
  benchmark::DoNotOptimize(allowed);
  state.counters["bytes"] =
      static_cast<double>(p.sparse.memory_footprint_bytes());
}
BENCHMARK(BM_SparseAcmLookup)
    ->Args({8, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({1024, 4})
    ->Args({1024, 32});

static void BM_DenseAcmLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int degree = static_cast<int>(state.range(1));
  PolicyPair p(n, degree, 42);
  mkbas::sim::Rng rng(7);
  std::uint64_t allowed = 0;
  for (auto _ : state) {
    const int src = static_cast<int>(rng.next_below(n));
    const int dst = static_cast<int>(rng.next_below(n));
    const int type = static_cast<int>(rng.next_below(8));
    allowed += p.dense.allowed(src, dst, type) ? 1 : 0;
  }
  benchmark::DoNotOptimize(allowed);
  state.counters["bytes"] =
      static_cast<double>(p.dense.memory_footprint_bytes());
}
BENCHMARK(BM_DenseAcmLookup)
    ->Args({8, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({1024, 4})
    ->Args({1024, 32});

// Denied-by-absence lookups (the common case for an attacker's probes).
static void BM_SparseAcmLookupMiss(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PolicyPair p(n, 2, 42);
  mkbas::sim::Rng rng(9);
  std::uint64_t denied = 0;
  for (auto _ : state) {
    // Probe outside the populated id range: guaranteed miss.
    const int src = n + static_cast<int>(rng.next_below(n));
    const int dst = n + static_cast<int>(rng.next_below(n));
    denied += p.sparse.allowed(src, dst, 1) ? 0 : 1;
  }
  benchmark::DoNotOptimize(denied);
}
BENCHMARK(BM_SparseAcmLookupMiss)->Arg(64)->Arg(1024);

// Kill-policy audit lookups (PM's per-kill check).
static void BM_AcmKillAudit(benchmark::State& state) {
  minix::AcmPolicy acm;
  for (int i = 0; i < 64; ++i) acm.allow_kill(i, i + 1);
  mkbas::sim::Rng rng(11);
  std::uint64_t allowed = 0;
  for (auto _ : state) {
    const int src = static_cast<int>(rng.next_below(128));
    const int dst = static_cast<int>(rng.next_below(128));
    allowed += acm.kill_allowed(src, dst) ? 1 : 0;
  }
  benchmark::DoNotOptimize(allowed);
}
BENCHMARK(BM_AcmKillAudit);

// ---- Machine-readable summary ----
//
// After the google-benchmark suite, measure the sparse/dense trade-off
// at a representative size directly (fixed iteration count, steady
// clock) and print one JSON line for scripts and CI to consume.

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  constexpr int kN = 1024;
  constexpr int kDegree = 4;
  constexpr std::uint64_t kIters = 1000000;
  PolicyPair p(kN, kDegree, 42);

  auto time_lookups = [&](auto& policy) {
    mkbas::sim::Rng rng(7);
    std::uint64_t allowed = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      const int src = static_cast<int>(rng.next_below(kN));
      const int dst = static_cast<int>(rng.next_below(kN));
      const int type = static_cast<int>(rng.next_below(8));
      allowed += policy.allowed(src, dst, type) ? 1 : 0;
    }
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(allowed);
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(kIters);
  };

  const double sparse_ns = time_lookups(p.sparse);
  const double dense_ns = time_lookups(p.dense);
  std::printf(
      "{\"bench\":\"bench_acm\",\"n\":%d,\"degree\":%d,"
      "\"sparse_ns_per_lookup\":%.2f,\"dense_ns_per_lookup\":%.2f,"
      "\"sparse_bytes\":%llu,\"dense_bytes\":%llu}\n",
      kN, kDegree, sparse_ns, dense_ns,
      static_cast<unsigned long long>(p.sparse.memory_footprint_bytes()),
      static_cast<unsigned long long>(p.dense.memory_footprint_bytes()));
  return 0;
}
