// C — the campaign engine.
//
// One measurement, one JSON artifact (BENCH_campaign.json): a 16-seed
// benign sweep (every cell a full virtual-hour MINIX run) executed
// sequentially and with --jobs N work-stealing threads; merged metrics
// and trace hashes must be byte-identical, and the wall-clock ratio is
// the campaign speedup.
//
// Speedup is bounded by physical cores: the JSON records "cores" so the
// regression checker only compares like with like (single-thread
// messages/sec is the machine-independent signal; speedup is only
// meaningful when the core count matches the baseline's).
//
// The last stdout line is the JSON summary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "campaign/campaign.hpp"

namespace core = mkbas::core;

int main(int argc, char** argv) {
  int seeds = 16;
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  std::string out = "BENCH_campaign.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    }
  }

  std::printf("C: campaign engine\n");

  const auto cells =
      core::seed_sweep_cells(core::Platform::kMinix, {}, 1, seeds);
  std::printf("sweep          : %zu cells (MINIX benign, seeds 1..%d)\n",
              cells.size(), seeds);

  const auto seq = core::run_campaign(cells, 1);
  std::printf("sequential     : %.2f s wall\n", seq.wall_seconds);
  const auto par = core::run_campaign(cells, jobs);
  std::printf("--jobs %-8d: %.2f s wall, %llu steals\n", jobs,
              par.wall_seconds,
              static_cast<unsigned long long>(par.steals));

  const bool deterministic = seq.summary_json() == par.summary_json();
  std::printf("deterministic  : %s\n",
              deterministic ? "yes (summaries byte-identical)" : "NO");

  // Messages processed, from the merged registries (identical for both
  // runs when deterministic): every MINIX IPC delivery records latency.
  mkbas::obs::MetricsRegistry merged;
  for (const auto& c : seq.cells) {
    if (c.metrics) merged.merge_from(*c.metrics);
  }
  const std::uint64_t messages =
      merged.histogram("minix.ipc.latency", {1.0}).count();
  const double seq_rate =
      seq.wall_seconds > 0 ? static_cast<double>(messages) / seq.wall_seconds
                           : 0;
  const double par_rate =
      par.wall_seconds > 0 ? static_cast<double>(messages) / par.wall_seconds
                           : 0;
  const double speedup =
      par.wall_seconds > 0 ? seq.wall_seconds / par.wall_seconds : 0;
  std::printf("throughput     : %.0f msg/s sequential, %.0f msg/s parallel "
              "(%.2fx)\n",
              seq_rate, par_rate, speedup);

  char json[1024];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"bench_campaign\",\"cells\":%zu,\"jobs\":%d,"
      "\"cores\":%u,\"seq_wall_s\":%.3f,\"par_wall_s\":%.3f,"
      "\"speedup\":%.3f,\"steals\":%llu,\"messages\":%llu,"
      "\"msgs_per_sec_seq\":%.1f,\"msgs_per_sec_par\":%.1f,"
      "\"deterministic\":%s,\"merged_trace_hash\":\"%016llx\"}",
      cells.size(), jobs, std::thread::hardware_concurrency(),
      seq.wall_seconds, par.wall_seconds, speedup,
      static_cast<unsigned long long>(par.steals),
      static_cast<unsigned long long>(messages), seq_rate, par_rate,
      deterministic ? "true" : "false",
      static_cast<unsigned long long>(seq.merged_trace_hash));

  if (!out.empty()) {
    std::ofstream f(out);
    f << json << "\n";
    if (!f) std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  }
  std::printf("%s\n", json);
  return deterministic ? 0 : 1;
}
