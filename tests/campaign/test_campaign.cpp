#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "../same_bytes.hpp"
#include "campaign/pool.hpp"
#include "fault/fault.hpp"

namespace campaign = mkbas::campaign;
namespace core = mkbas::core;
namespace sim = mkbas::sim;

// ---- WorkStealingPool ----

TEST(Pool, RunsEveryIndexExactlyOnce) {
  campaign::WorkStealingPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Pool, SingleWorkerRunsInOrderInline) {
  campaign::WorkStealingPool pool(1);
  std::vector<std::size_t> order;  // safe: no threads with one worker
  pool.run(10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(Pool, FewerItemsThanWorkersAndZeroItems) {
  campaign::WorkStealingPool pool(8);
  std::atomic<int> ran{0};
  pool.run(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  pool.run(3, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(Pool, NonPositiveWorkerCountClampsToOne) {
  campaign::WorkStealingPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
  std::atomic<int> ran{0};
  pool.run(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(Pool, FirstExceptionPropagatesAfterAllIndicesRan) {
  campaign::WorkStealingPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run(100,
               [&](std::size_t i) {
                 ran.fetch_add(1);
                 if (i == 17) throw std::runtime_error("cell 17 blew up");
               }),
      std::runtime_error);
  // The contract: remaining queued indices still execute.
  EXPECT_EQ(ran.load(), 100);
}

// ---- Cell builders ----

TEST(Campaign, SeedSweepCellsAreUniquelyNamedAndSeeded) {
  const auto cells = core::seed_sweep_cells(core::Platform::kMinix, {}, 7, 5);
  ASSERT_EQ(cells.size(), 5u);
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& c : cells) {
    EXPECT_EQ(c.kind, core::CellKind::kBenign);
    names.insert(c.name);
    seeds.insert(c.opts.seed);
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(seeds.size(), 5u);
  EXPECT_EQ(*seeds.begin(), 7u);
}

TEST(Campaign, AttackMatrixCellsCoverAllThreePlatforms) {
  const auto cells = core::attack_matrix_cells();
  std::set<core::Platform> platforms;
  for (const auto& c : cells) {
    EXPECT_EQ(c.kind, core::CellKind::kAttack);
    platforms.insert(c.platform);
  }
  EXPECT_EQ(platforms.size(), 3u);
}

// ---- Determinism: parallel == sequential, byte for byte ----

namespace {

core::RunOptions short_fault_opts() {
  core::RunOptions opts;
  opts.settle = sim::minutes(1);
  opts.post = sim::minutes(2);
  opts.seed = 42;
  opts.scenario.room.initial_temp_c = opts.scenario.control.initial_setpoint_c;
  return opts;
}

}  // namespace

TEST(Campaign, CellHashesAreTheirPartsRenderedAndHashed) {
  // One cell of each kind: the hashes a pool worker streamed must be
  // fnv1a of the part rendered from the cell's snapshot (a fabric cell:
  // run_fabric's fold), and the merged hashes fnv1a of the merged
  // renders.
  core::RunOptions quick;
  quick.settle = sim::sec(10);
  quick.post = sim::sec(30);
  quick.seed = 3;
  std::vector<core::CampaignCell> cells =
      core::seed_sweep_cells(core::Platform::kMinix, quick, 3, 1);
  for (auto& c : core::attack_matrix_cells(quick)) {
    if (c.name == "attack/kill-control-proc/minix/code-exec") {
      cells.push_back(std::move(c));
    }
  }
  cells.push_back(core::fault_campaign_cells(
      mkbas::fault::reference_sensor_crash_plan(), short_fault_opts(),
      sim::sec(70))[0]);
  core::FabricOptions fab;
  fab.duration = sim::minutes(3);
  fab.attack_at = sim::minutes(1);
  cells.push_back(core::fabric_matrix_cells(3, fab)[1]);  // spoof-write
  ASSERT_EQ(cells.size(), 4u);

  const auto res = core::run_campaign(cells, 2);
  ASSERT_EQ(res.cells.size(), 4u);
  for (const core::CellResult& c : res.cells) {
    ASSERT_TRUE(c.telemetry) << c.name;
    const mkbas::obs::TelemetryHashes& h = c.hashes;
    const mkbas::obs::Telemetry& t = *c.telemetry;
    if (c.kind == core::CellKind::kFabric) {
      EXPECT_EQ(c.telemetry, c.fabric.telemetry);
    }
    EXPECT_EQ(h.metrics, core::fnv1a(t.metrics.to_json())) << c.name;
    EXPECT_EQ(h.spans, core::fnv1a(t.spans.to_json())) << c.name;
    EXPECT_EQ(h.audit, core::fnv1a(t.audit.to_json())) << c.name;
    EXPECT_EQ(h.series, core::fnv1a(t.series.to_json())) << c.name;
    EXPECT_EQ(h.health, core::fnv1a(t.health.to_json())) << c.name;
    EXPECT_EQ(h.flight, core::fnv1a(t.flight.to_json())) << c.name;
    EXPECT_GT(t.spans.spans().size(), 0u) << c.name;
  }
  // The default mask renders every merged part. Spans are rendered
  // from the cells' stores, never folded into the merged telemetry.
  ASSERT_TRUE(res.telemetry);
  EXPECT_EQ(res.telemetry->spans.total_begun(), 0u);
  EXPECT_EQ(res.telemetry->spans.size(), 0u);
  const mkbas::obs::TelemetryHashes& m = res.merged_hashes;
  EXPECT_EQ(m.metrics, core::fnv1a(res.merged_metrics_json));
  EXPECT_EQ(m.spans, core::fnv1a(res.merged_spans_json));
  EXPECT_EQ(m.audit, core::fnv1a(res.merged_audit_json));
  EXPECT_EQ(m.series, core::fnv1a(res.merged_series_json));
  EXPECT_EQ(m.health, core::fnv1a(res.merged_health_json));
  EXPECT_EQ(m.flight, core::fnv1a(res.merged_flight_json));
  // The summary prints exactly those hashes.
  const std::string summary = res.summary_json();
  EXPECT_NE(summary.find("\"merged_spans_hash\":\"" + core::hex64(m.spans)),
            std::string::npos);
  EXPECT_NE(summary.find("\"spans_hash\":\"" +
                         core::hex64(res.cells[3].hashes.spans)),
            std::string::npos);
}

TEST(Campaign, MaskSelectsWhatIsFoldedHashedAndRendered) {
  // A short T1 cell list plus one fabric cell, run with the default mask
  // (everything), with mask 0 (rows only), with the summary alone, and
  // with each merged part alone.
  std::vector<core::CampaignCell> cells;
  core::RunOptions quick;
  quick.settle = sim::sec(10);
  quick.post = sim::sec(30);
  for (auto& c : core::attack_matrix_cells(quick)) {
    if (c.attack_kind == mkbas::attack::AttackKind::kKillControl) {
      cells.push_back(std::move(c));
    }
  }
  core::FabricOptions fab;
  fab.duration = sim::minutes(3);
  fab.attack_at = sim::minutes(1);
  cells.push_back(core::fabric_matrix_cells(3, fab)[1]);  // spoof-write
  ASSERT_EQ(cells.size(), 6u);

  using core::ArtifactKind;
  const auto full = core::run_campaign(cells, 2);
  const std::string full_summary = full.summary_json();

  // Mask 0: the same rows, and nothing folded, hashed or rendered.
  const auto bare = core::run_campaign(cells, 2, 0);
  ASSERT_EQ(bare.cells.size(), cells.size());
  EXPECT_FALSE(bare.telemetry);
  EXPECT_TRUE(bare.merged_metrics_json.empty());
  for (const core::CellResult& c : bare.cells) {
    EXPECT_FALSE(c.telemetry) << c.name;
    EXPECT_EQ(c.metrics, nullptr) << c.name;
    EXPECT_EQ(c.spans, nullptr) << c.name;
  }
  EXPECT_EQ(core::format_attack_table(core::attack_rows(bare)),
            core::format_attack_table(core::attack_rows(full)));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(bare.cells[i].attack.outcome.detail,
              full.cells[i].attack.outcome.detail);
  }
  EXPECT_EQ(core::format_fabric_table(core::fabric_rows(bare).at(0)),
            core::format_fabric_table(core::fabric_rows(full).at(0)));

  // Summary only: the same summary and merged hashes; only the metrics,
  // which the summary embeds, are rendered.
  const auto lean =
      core::run_campaign(cells, 2, core::artifact_bit(ArtifactKind::kSummary));
  EXPECT_TRUE(same_bytes(lean.summary_json(), full_summary));
  EXPECT_EQ(lean.merged_trace_hash, full.merged_trace_hash);
  const mkbas::obs::TelemetryHashes& lh = lean.merged_hashes;
  const mkbas::obs::TelemetryHashes& fh = full.merged_hashes;
  EXPECT_EQ(lh.metrics, fh.metrics);
  EXPECT_EQ(lh.spans, fh.spans);
  EXPECT_EQ(lh.audit, fh.audit);
  EXPECT_EQ(lh.series, fh.series);
  EXPECT_EQ(lh.health, fh.health);
  EXPECT_EQ(lh.flight, fh.flight);
  EXPECT_TRUE(same_bytes(lean.merged_metrics_json, full.merged_metrics_json));
  EXPECT_TRUE(lean.merged_spans_json.empty());
  EXPECT_TRUE(lean.merged_audit_json.empty());
  EXPECT_TRUE(lean.merged_series_json.empty());
  EXPECT_TRUE(lean.merged_health_json.empty());
  EXPECT_TRUE(lean.merged_flight_json.empty());

  // Each merged part asked for alone is the default run's bytes.
  const struct {
    ArtifactKind kind;
    std::string core::CampaignResult::*json;
  } parts[] = {
      {ArtifactKind::kMetrics, &core::CampaignResult::merged_metrics_json},
      {ArtifactKind::kSpans, &core::CampaignResult::merged_spans_json},
      {ArtifactKind::kAudit, &core::CampaignResult::merged_audit_json},
      {ArtifactKind::kSeries, &core::CampaignResult::merged_series_json},
      {ArtifactKind::kHealth, &core::CampaignResult::merged_health_json},
      {ArtifactKind::kFlight, &core::CampaignResult::merged_flight_json},
  };
  for (const auto& part : parts) {
    const auto one = core::run_campaign(cells, 2, core::artifact_bit(part.kind));
    EXPECT_FALSE((one.*part.json).empty()) << core::to_string(part.kind);
    EXPECT_TRUE(same_bytes(one.*part.json, full.*part.json))
        << core::to_string(part.kind);
  }
}

TEST(Campaign, LongFabricVerdictListsEveryZone) {
  // 24 attacked zones make a verdict longer than 255 bytes; it must
  // still name the last zone and close its list.
  core::FabricOptions fab;
  fab.lite_zones = true;
  fab.duration = sim::minutes(3);
  fab.attack_at = sim::minutes(1);
  const std::vector<core::CampaignCell> cells = {
      core::fabric_matrix_cells(24, fab)[1]};  // spoof-write
  const std::string summary = core::run_campaign(cells, 1).summary_json();
  const std::string key = "\"verdict\":\"";
  const std::size_t at = summary.find(key);
  ASSERT_NE(at, std::string::npos) << summary;
  const std::size_t from = at + key.size();
  const std::string verdict =
      summary.substr(from, summary.find('"', from) - from);
  EXPECT_GT(verdict.size(), 255u) << verdict;
  EXPECT_NE(verdict.find(",23:"), std::string::npos) << verdict;
  EXPECT_EQ(verdict.back(), ']') << verdict;
}

TEST(Campaign, ParallelFaultCampaignIsByteIdenticalToSequential) {
  const auto cells = core::fault_campaign_cells(
      mkbas::fault::reference_sensor_crash_plan(), short_fault_opts(),
      sim::sec(70));
  ASSERT_EQ(cells.size(), 3u);

  const auto seq = core::run_campaign(cells, 1);
  const auto par = core::run_campaign(cells, 4);
  ASSERT_EQ(seq.cells.size(), par.cells.size());

  // Cell-level artifacts first (pinpoints a divergence), then the merged
  // reductions, then the full summaries.
  for (std::size_t i = 0; i < seq.cells.size(); ++i) {
    EXPECT_EQ(seq.cells[i].name, par.cells[i].name);
    EXPECT_EQ(seq.cells[i].trace_hash, par.cells[i].trace_hash) << cells[i].name;
    EXPECT_EQ(seq.cells[i].trace_events, par.cells[i].trace_events);
    EXPECT_TRUE(same_bytes(seq.cells[i].telemetry->metrics.to_json(),
                           par.cells[i].telemetry->metrics.to_json()))
        << cells[i].name;
  }
  EXPECT_EQ(seq.merged_trace_hash, par.merged_trace_hash);
  EXPECT_TRUE(same_bytes(seq.merged_metrics_json, par.merged_metrics_json));
  EXPECT_TRUE(same_bytes(seq.summary_json(), par.summary_json()));

  // And the campaign reproduced the paper's story: the microkernels
  // recover, and every cell actually simulated something.
  const auto rows = core::fault_rows(seq);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& c : seq.cells) {
    EXPECT_GT(c.trace_events, 0u) << c.name;
    ASSERT_TRUE(c.metrics != nullptr);
  }
}

TEST(Campaign, RepeatedRunsYieldIdenticalSummaries) {
  // Same cells, same jobs value, fresh engine: the summary must be stable
  // run to run (no wall-clock, pointers or thread ids may leak in).
  const auto cells =
      core::seed_sweep_cells(core::Platform::kMinix, {}, 1, 2);
  const auto a = core::run_campaign(cells, 2);
  const auto b = core::run_campaign(cells, 2);
  EXPECT_TRUE(same_bytes(a.summary_json(), b.summary_json()));
  EXPECT_EQ(a.merged_trace_hash, b.merged_trace_hash);
}
