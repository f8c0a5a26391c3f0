// The three workloads, the per-layer probes and the self-test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 5;  // the default seed carries the witnesses
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-size inputs (self-test): tiny cells, one iteration.
  bool tiny = false;
  /// Process start on the steady clock (microseconds), handed over by
  /// the launcher so set-up time includes exec and dynamic linking.
  /// 0 = measure from main().
  double t0_us = 0.0;
  std::string spans_out;  // traced runs: where the Chrome trace goes
};

/// The seed the witnesses below were measured at.
inline constexpr std::uint64_t kDefaultSeed = 5;

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRounds = 5;

/// Serve-mix cold cell `j` of the stream generated from `seed`.
mkbas::core::ExperimentRequest cold_request(std::uint64_t seed,
                                            std::uint64_t j);

RunResult run_campaign_workload(const Options& opt, SpanLog& spans);
RunResult run_city_workload(const Options& opt, SpanLog& spans);
RunResult run_serve_workload(const Options& opt, SpanLog& spans);

/// Per-call probes of single layers (traced runs only). `seed` seeds the
/// probe inputs.
std::vector<LayerRow> run_probes(std::uint64_t seed, SpanLog& spans);

/// Unit tests of the benchmark's own logic plus a tiny smoke run of
/// each workload. Returns the number of failed checks.
int run_selftest();

}  // namespace perfbench
