// Health monitoring across the fabric and the campaign engine: a flood
// attack must trip the flooded node's inbox-overflow surge detector and
// land a health.anomaly record in the merged audit journal *before* the
// end-of-run attack verdicts; every health/flight artifact must replay
// byte-identically from (topology, seed) and stay --jobs invariant; and
// the work-stealing pool's profiler must attribute every cell to a
// worker (host wall time, diagnostic only — never part of summary_json).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../obs/json_lite.hpp"
#include "../same_bytes.hpp"
#include "campaign/campaign.hpp"
#include "core/fabric_run.hpp"

namespace core = mkbas::core;
namespace sim = mkbas::sim;

namespace {

core::FabricOptions flood_building() {
  core::FabricOptions opts;
  opts.zones = 3;
  opts.seed = 7;
  opts.duration = sim::minutes(4);
  opts.attack = core::FabricAttack::kFlood;
  opts.attack_at = sim::minutes(2);
  return opts;
}

std::vector<core::CampaignCell> health_cells() {
  std::vector<core::CampaignCell> cells;

  core::CampaignCell fab;
  fab.name = "fabric/flood/z3";
  fab.kind = core::CellKind::kFabric;
  fab.fabric = flood_building();
  cells.push_back(fab);

  core::RunOptions opts;
  opts.settle = sim::sec(45);
  opts.post = sim::sec(60);
  for (const auto& cell :
       core::seed_sweep_cells(core::Platform::kMinix, opts, 11, 2)) {
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

TEST(FabricHealth, FloodTripsTheOverflowSurgeBeforeTheVerdict) {
  const core::FabricRunResult res = core::run_fabric(flood_building());

  // The 30 s flood overwhelms the head-end inbox; the per-node rate
  // signal's surge threshold (256 overflows per 5 s window) trips while
  // the flood is still running.
  EXPECT_GT(res.drop_overflow, 0u);
  ASSERT_GT(res.health_events, 0u);
  const std::string health = res.telemetry->health.to_json();
  ASSERT_TRUE(jsonlite::valid(health)) << health;
  EXPECT_NE(health.find("net.inbox_overflow"), std::string::npos);
  EXPECT_NE(health.find("\"surge\""), std::string::npos);

  // The detector firing pulled a flight-recorder snapshot.
  const std::string flight = res.telemetry->flight.to_json();
  ASSERT_TRUE(jsonlite::valid(flight)) << flight;
  EXPECT_NE(flight.find("health.net.inbox_overflow"), std::string::npos);

  // Detection precedes judgment: the surge's audit record is journaled
  // during the run, the per-zone verdicts only at opts.duration.
  const std::string audit = res.telemetry->audit.to_json();
  const std::size_t anomaly = audit.find("health.anomaly");
  const std::size_t verdict = audit.find("attack.verdict");
  ASSERT_NE(anomaly, std::string::npos);
  ASSERT_NE(verdict, std::string::npos);
  EXPECT_LT(anomaly, verdict);
}

TEST(FabricHealth, HundredZoneTreeFloodTripsTheFloorSurgeFirst) {
  // City-scale shape: 100 gateway-only zones over 4 floor head-ends. The
  // flood now aims at the attacker's *floor* aggregator — segmentation
  // keeps the blast radius to one floor — and that floor's own
  // inbox-overflow surge detector must fire during the run, ahead of the
  // end-of-run attack verdicts.
  core::FabricOptions opts;
  opts.zones = 100;
  opts.topology = mkbas::net::TopologySpec::Kind::kTree;
  opts.floors = 4;
  opts.seed = 21;
  opts.duration = sim::minutes(4);
  opts.attack = core::FabricAttack::kFlood;
  opts.attack_at = sim::minutes(2);
  opts.lite_zones = true;
  const core::FabricRunResult res = core::run_fabric(opts);

  EXPECT_EQ(res.topology, "tree");
  EXPECT_EQ(res.nodes, 1 + 4 + 100);
  EXPECT_GT(res.drop_overflow, 0u);
  EXPECT_EQ(res.causality_violations, 0u);
  ASSERT_GT(res.health_events, 0u);
  const std::string health = res.telemetry->health.to_json();
  ASSERT_TRUE(jsonlite::valid(health)) << health;
  EXPECT_NE(health.find("net.inbox_overflow"), std::string::npos);
  EXPECT_NE(health.find("\"surge\""), std::string::npos);

  // Detection precedes judgment, same invariant as the 3-zone building.
  const std::string audit = res.telemetry->audit.to_json();
  const std::size_t anomaly = audit.find("health.anomaly");
  const std::size_t verdict = audit.find("attack.verdict");
  ASSERT_NE(anomaly, std::string::npos);
  ASSERT_NE(verdict, std::string::npos);
  EXPECT_LT(anomaly, verdict);

  // The flood stayed on the attacker's floor: the building console kept
  // receiving its aggregate telemetry (every floor flushed upstream).
  EXPECT_GT(res.floor_covs, 0u);
  EXPECT_GT(res.cov_count, res.floor_covs);
}

TEST(FabricHealth, ObservabilityArtifactsReplayByteIdentically) {
  const core::FabricRunResult one = core::run_fabric(flood_building());
  const core::FabricRunResult two = core::run_fabric(flood_building());
  const std::string series = one.telemetry->series.to_json();
  ASSERT_FALSE(series.empty());
  EXPECT_TRUE(same_bytes(series, two.telemetry->series.to_json()));
  EXPECT_TRUE(same_bytes(one.telemetry->health.to_json(),
                         two.telemetry->health.to_json()));
  EXPECT_TRUE(same_bytes(one.telemetry->flight.to_json(),
                         two.telemetry->flight.to_json()));
  EXPECT_EQ(one.health_events, two.health_events);
  ASSERT_TRUE(jsonlite::valid(series)) << series;
  EXPECT_NE(series.find("\"schema_version\":"), std::string::npos);
}

TEST(FabricHealth, TraceOffArmStaysQuiet) {
  core::FabricOptions opts = flood_building();
  opts.trace_spans = false;
  const core::FabricRunResult res = core::run_fabric(opts);
  // The A/B baseline arm records no health events and keeps no
  // snapshots, so the perf comparison against trace-on stays clean.
  EXPECT_EQ(res.health_events, 0u);
  EXPECT_NE(res.telemetry->flight.to_json().find("\"snapshots\":[]"),
            std::string::npos);
}

TEST(CampaignHealth, MergedHealthArtifactsAreJobsInvariant) {
  const std::vector<core::CampaignCell> cells = health_cells();
  const core::CampaignResult seq = core::run_campaign(cells, 1);
  const core::CampaignResult par = core::run_campaign(cells, 4);

  ASSERT_FALSE(seq.merged_health_json.empty());
  EXPECT_TRUE(same_bytes(seq.merged_series_json, par.merged_series_json));
  EXPECT_TRUE(same_bytes(seq.merged_health_json, par.merged_health_json));
  EXPECT_TRUE(same_bytes(seq.merged_flight_json, par.merged_flight_json));
  EXPECT_TRUE(same_bytes(seq.summary_json(), par.summary_json()));

  // The merge really carries the building: the flood cell's surge and
  // the benign cells' control-loop series are all present.
  EXPECT_NE(seq.merged_health_json.find("net.inbox_overflow"),
            std::string::npos);
  EXPECT_NE(seq.merged_series_json.find("minix.ctl.jitter"),
            std::string::npos);
  EXPECT_NE(seq.summary_json().find("\"health_events\":"),
            std::string::npos);
  EXPECT_NE(seq.summary_json().find("\"schema_version\":"),
            std::string::npos);
  ASSERT_TRUE(jsonlite::valid(seq.summary_json())) << seq.summary_json();
}

TEST(CampaignHealth, BenignCellSnapshotsControlLoopSeries) {
  core::RunOptions opts;
  opts.settle = sim::sec(45);
  opts.post = sim::sec(60);
  const auto cells =
      core::seed_sweep_cells(core::Platform::kMinix, opts, 3, 1);
  const core::CampaignResult res = core::run_campaign(cells, 1);
  ASSERT_EQ(res.cells.size(), 1u);
  const core::CellResult& cell = res.cells[0];
  ASSERT_TRUE(cell.telemetry);
  EXPECT_GT(cell.telemetry->series.total_samples(), 0u);
  const std::string series_json = cell.telemetry->series.to_json();
  const std::string health_json = cell.telemetry->health.to_json();
  EXPECT_NE(series_json.find("minix.ctl.jitter@m0"), std::string::npos);
  ASSERT_TRUE(jsonlite::valid(health_json)) << health_json;
  EXPECT_NE(health_json.find("\"scores\""), std::string::npos);
}

TEST(CampaignHealth, PoolProfileAttributesEveryCell) {
  const std::vector<core::CampaignCell> cells = health_cells();
  const int jobs = 2;
  const core::CampaignResult res = core::run_campaign(cells, jobs);

  ASSERT_EQ(res.cell_profiles.size(), cells.size());
  std::uint64_t executed = 0;
  for (const auto& cp : res.cell_profiles) {
    EXPECT_GE(cp.worker, 0);
    EXPECT_LT(cp.worker, jobs);
    EXPECT_GE(cp.end_seconds, cp.start_seconds);
  }
  ASSERT_EQ(res.worker_profiles.size(), static_cast<std::size_t>(jobs));
  for (const auto& wp : res.worker_profiles) executed += wp.executed;
  EXPECT_EQ(executed, cells.size());

  // The reduce follows the last cell inside the campaign's wall.
  EXPECT_GE(res.reduce_seconds, 0.0);
  EXPECT_LE(res.reduce_seconds, res.wall_seconds);

  const std::string profile = res.profile_json();
  ASSERT_TRUE(jsonlite::valid(profile)) << profile;
  EXPECT_NE(profile.find("\"reduce_seconds\":"), std::string::npos);
  EXPECT_NE(profile.find("\"schema_version\":"), std::string::npos);
  EXPECT_NE(profile.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(profile.find("fabric/flood/z3"), std::string::npos);

  const std::string trace = res.profile_trace_json();
  ASSERT_TRUE(jsonlite::valid(trace)) << trace;
  EXPECT_NE(trace.find("pool-worker"), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}
