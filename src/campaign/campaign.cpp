#include "campaign/campaign.hpp"

#include <chrono>
#include <cstdio>

#include "campaign/pool.hpp"
#include "core/hash.hpp"

namespace mkbas::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One cell, executed on whichever worker thread picked it up. All state
/// is local: the Machine (and with it RNG, registry, trace) is built and
/// torn down inside this call.
CellResult run_cell(const CampaignCell& cell) {
  CellResult res;
  res.name = cell.name;
  res.kind = cell.kind;
  const auto t0 = Clock::now();

  RunOptions opts = cell.opts;
  auto caller_observe = opts.observe;
  opts.observe = [&](sim::Machine& m) {
    if (caller_observe) caller_observe(m);
    // Close trailing rate windows so trailing anomalies are detected
    // before the snapshot; idempotent if the caller already flushed.
    m.health().flush(m.now());
    auto snapshot = std::make_shared<obs::Telemetry>();
    snapshot->merge_from(m.telemetry());
    res.hashes = snapshot->hashes();
    res.telemetry = std::move(snapshot);
    res.trace_hash = trace_hash(m.trace());
    res.trace_events = m.trace().total_emitted();
  };

  switch (cell.kind) {
    case CellKind::kBenign:
      res.benign = run_benign(cell.platform, opts);
      break;
    case CellKind::kAttack:
      res.attack =
          run_attack(cell.platform, cell.attack_kind, cell.privilege, opts);
      break;
    case CellKind::kFault:
      res.fault =
          run_fault(cell.platform, cell.plan, opts, cell.spoof_probe_at);
      break;
    case CellKind::kFabric: {
      // The fabric already folds its machines in node order and renders
      // the fold: the cell takes the fold and hashes the renders.
      res.fabric = run_fabric(cell.fabric);
      const FabricRunResult& f = res.fabric;
      res.telemetry = f.telemetry;
      res.trace_hash = f.trace_hash;
      res.trace_events = f.trace_events;
      res.hashes = {fnv1a(f.metrics_json), fnv1a(f.spans_json),
                    fnv1a(f.audit_json),   fnv1a(f.series_json),
                    fnv1a(f.health_json),  fnv1a(f.flight_json)};
      break;
    }
  }
  if (res.telemetry) {
    res.metrics = &res.telemetry->metrics;
    res.spans = &res.telemetry->spans;
  }
  res.wall_seconds = seconds_since(t0);
  return res;
}

/// `part` rendered, with the render's FNV-1a taken in the same pass.
template <typename Part>
std::string render_hashed(const Part& part, std::uint64_t* hash) {
  obs::JsonWriter w(obs::JsonWriter::kStringAndHash);
  part.write_json(w);
  *hash = w.hash();
  return w.take();
}

std::string cell_verdict(const CellResult& r) {
  char buf[256];
  switch (r.kind) {
    case CellKind::kBenign:
      std::snprintf(buf, sizeof buf, "samples=%zu final_c=%.6f %s",
                    r.benign.history.size(),
                    r.benign.history.empty()
                        ? 0.0
                        : r.benign.history.back().true_temp_c,
                    r.benign.safety.summary().c_str());
      return buf;
    case CellKind::kAttack:
      std::snprintf(buf, sizeof buf, "%s primitive=%s attempts=%d/%d %s",
                    r.attack.platform_label.c_str(),
                    r.attack.outcome.primitive_succeeded ? "SUCCEEDED"
                                                         : "blocked",
                    r.attack.outcome.successes, r.attack.outcome.attempts,
                    r.attack.safety.summary().c_str());
      return buf;
    case CellKind::kFault:
      std::snprintf(
          buf, sizeof buf,
          "%s recovered=%s mttr_s=%.3f restarts=%d excursion_c=%.3f "
          "faults=%llu spoof=%s",
          r.fault.platform_label.c_str(),
          r.fault.loop_recovered ? "yes" : "no",
          r.fault.mttr < 0 ? -1.0 : sim::to_seconds(r.fault.mttr),
          r.fault.restarts, r.fault.max_excursion_after_fault_c,
          static_cast<unsigned long long>(r.fault.faults_injected),
          !r.fault.web_spoof.attempted
              ? "-"
              : (r.fault.web_spoof.primitive_succeeded ? "SPOOFED"
                                                       : "blocked"));
      return buf;
    case CellKind::kFabric: {
      std::string zones;
      for (const FabricZoneRow& row : r.fabric.rows) {
        if (!zones.empty()) zones += ',';
        zones += std::to_string(row.zone);
        zones += r.fabric.attack == FabricAttack::kNone
                     ? ":-"
                     : (row.attack_delivered ? ":DELIVERED" : ":blocked");
      }
      std::snprintf(
          buf, sizeof buf,
          "zones=%d attack=%s delivered=%llu drops=%llu/%llu/%llu "
          "cov=%llu cov_p99_us=%.0f [%s]",
          r.fabric.zones, to_string(r.fabric.attack),
          static_cast<unsigned long long>(r.fabric.delivered),
          static_cast<unsigned long long>(r.fabric.drop_loss),
          static_cast<unsigned long long>(r.fabric.drop_partition),
          static_cast<unsigned long long>(r.fabric.drop_overflow),
          static_cast<unsigned long long>(r.fabric.cov_count),
          r.fabric.cov_p99_us, zones.c_str());
      return buf;
    }
  }
  return "?";
}

}  // namespace

const char* to_string(CellKind k) {
  switch (k) {
    case CellKind::kBenign:
      return "benign";
    case CellKind::kAttack:
      return "attack";
    case CellKind::kFault:
      return "fault";
    case CellKind::kFabric:
      return "fabric";
  }
  return "?";
}

CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            int jobs) {
  CampaignResult out;
  out.jobs = jobs < 1 ? 1 : jobs;
  const auto t0 = Clock::now();

  out.cells.resize(cells.size());
  campaign::WorkStealingPool pool(out.jobs);
  pool.set_profiling(true);
  pool.run(cells.size(), [&](std::size_t i) {
    // Slot i belongs to cell i: completion order never shows through.
    out.cells[i] = run_cell(cells[i]);
  });
  out.steals = pool.steals();
  out.worker_profiles = pool.worker_profiles();
  out.cell_profiles = pool.task_profiles();

  // Reductions walk the slots in cell order — the one order every --jobs
  // value shares — so merged artifacts are byte-identical to sequential.
  auto merged = std::make_shared<obs::Telemetry>();
  std::uint64_t chain = 14695981039346656037ULL;
  for (const CellResult& r : out.cells) {
    if (r.telemetry) merged->merge_from(*r.telemetry);
    chain = fnv1a(hex64(r.trace_hash), chain);
  }
  out.merged_trace_hash = chain;
  obs::TelemetryHashes& h = out.merged_hashes;
  out.merged_metrics_json = render_hashed(merged->metrics, &h.metrics);
  out.merged_spans_json = render_hashed(merged->spans, &h.spans);
  out.merged_audit_json = render_hashed(merged->audit, &h.audit);
  out.merged_series_json = render_hashed(merged->series, &h.series);
  out.merged_health_json = render_hashed(merged->health, &h.health);
  out.merged_flight_json = render_hashed(merged->flight, &h.flight);
  out.telemetry = std::move(merged);
  out.wall_seconds = seconds_since(t0);
  return out;
}

std::string CampaignResult::summary_json() const {
  // Keys sorted at every level, like every other JSON export.
  obs::JsonWriter w;
  w.raw("{\"cells\":[");
  bool first = true;
  for (const auto& r : cells) {
    if (!first) w.put(',');
    first = false;
    w.raw("{\"audit_hash\":\"").hex(r.hashes.audit)
        .raw("\",\"flight_hash\":\"").hex(r.hashes.flight)
        .raw("\",\"health_events\":")
        .num(r.telemetry ? r.telemetry->health.events().size() : 0)
        .raw(",\"health_hash\":\"").hex(r.hashes.health)
        .raw("\",\"kind\":\"").raw(to_string(r.kind))
        .raw("\",\"metrics_hash\":\"").hex(r.hashes.metrics)
        .raw("\",\"name\":").str(r.name)
        .raw(",\"series_hash\":\"").hex(r.hashes.series)
        .raw("\",\"spans_hash\":\"").hex(r.hashes.spans)
        .raw("\",\"trace_events\":").num(r.trace_events)
        .raw(",\"trace_hash\":\"").hex(r.trace_hash)
        .raw("\",\"verdict\":").str(cell_verdict(r)).put('}');
  }
  const obs::TelemetryHashes& h = merged_hashes;
  w.raw("],\"merged_audit_hash\":\"").hex(h.audit)
      .raw("\",\"merged_flight_hash\":\"").hex(h.flight)
      .raw("\",\"merged_health_hash\":\"").hex(h.health)
      .raw("\",\"merged_metrics\":").raw(merged_metrics_json)
      .raw(",\"merged_series_hash\":\"").hex(h.series)
      .raw("\",\"merged_spans_hash\":\"").hex(h.spans)
      .raw("\",\"merged_trace_hash\":\"").hex(merged_trace_hash)
      .raw("\",\"schema_version\":").num(obs::kSchemaVersion).put('}');
  return w.take();
}

std::string CampaignResult::profile_json() const {
  obs::JsonWriter w;
  w.raw("{\"cells\":[");
  for (std::size_t i = 0; i < cell_profiles.size(); ++i) {
    const campaign::TaskProfile& tp = cell_profiles[i];
    if (i > 0) w.put(',');
    w.raw("{\"end_s\":").num(tp.end_seconds).raw(",\"index\":").num(i)
        .raw(",\"name\":").str(i < cells.size() ? cells[i].name : "")
        .raw(",\"start_s\":").num(tp.start_seconds)
        .raw(",\"stolen\":").boolean(tp.stolen)
        .raw(",\"worker\":").num(tp.worker).put('}');
  }
  w.raw("],\"jobs\":").num(jobs).raw(",\"schema_version\":")
      .num(obs::kSchemaVersion).raw(",\"steals\":").num(steals)
      .raw(",\"wall_seconds\":").num(wall_seconds).raw(",\"workers\":[");
  for (std::size_t i = 0; i < worker_profiles.size(); ++i) {
    const campaign::WorkerProfile& wp = worker_profiles[i];
    if (i > 0) w.put(',');
    w.raw("{\"busy_seconds\":").num(wp.busy_seconds)
        .raw(",\"executed\":").num(wp.executed).raw(",\"queue_depth\":[");
    for (std::size_t s = 0; s < wp.queue_depth.size(); ++s) {
      if (s > 0) w.put(',');
      w.put('[').num(wp.queue_depth[s].first).put(',')
          .num(wp.queue_depth[s].second).put(']');
    }
    w.raw("],\"stolen\":").num(wp.stolen).raw(",\"worker\":")
        .num(wp.worker).put('}');
  }
  w.raw("]}");
  return w.take();
}

std::string CampaignResult::profile_trace_json() const {
  // One Perfetto lane per pool worker, one slice per cell: the
  // campaign's host-time schedule, viewable next to the sim traces.
  obs::JsonWriter w;
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const campaign::WorkerProfile& wp : worker_profiles) {
    if (!first) w.put(',');
    first = false;
    w.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":")
        .num(wp.worker)
        .raw(",\"tid\":0,\"args\":{\"name\":\"pool-worker")
        .num(wp.worker).raw("\"}}");
  }
  for (std::size_t i = 0; i < cell_profiles.size(); ++i) {
    const campaign::TaskProfile& tp = cell_profiles[i];
    if (tp.worker < 0) continue;
    const double us = 1e6;
    const double dur = (tp.end_seconds - tp.start_seconds) * us;
    if (!first) w.put(',');
    first = false;
    w.raw("{\"name\":").str(i < cells.size() ? cells[i].name : "")
        .raw(",\"cat\":\"cell\",\"ph\":\"X\",\"ts\":")
        .num(tp.start_seconds * us).raw(",\"dur\":").num(dur < 1.0 ? 1.0 : dur)
        .raw(",\"pid\":").num(tp.worker)
        .raw(",\"tid\":0,\"args\":{\"index\":").num(i)
        .raw(",\"stolen\":").boolean(tp.stolen).raw("}}");
  }
  w.raw("]}");
  return w.take();
}

std::vector<CampaignCell> attack_matrix_cells(const RunOptions& base) {
  using attack::AttackKind;
  using attack::Privilege;
  std::vector<CampaignCell> cells;
  const AttackKind kinds[] = {
      AttackKind::kSpoofSensor, AttackKind::kSpoofActuator,
      AttackKind::kKillControl, AttackKind::kForkBomb,
      AttackKind::kCapBruteForce, AttackKind::kIpcFlood};
  const Platform platforms[] = {Platform::kLinux, Platform::kMinix,
                                Platform::kSel4};
  const char* pnames[] = {"linux", "minix", "sel4"};
  // Same nesting as the sequential run_attack_matrix(), so rows (and the
  // rendered table) come out in the same order.
  for (AttackKind kind : kinds) {
    for (std::size_t pi = 0; pi < 3; ++pi) {
      const Platform p = platforms[pi];
      for (Privilege priv : {Privilege::kCodeExec, Privilege::kRoot}) {
        if (p == Platform::kSel4 && priv == Privilege::kRoot) continue;
        CampaignCell c;
        c.name = std::string("attack/") + attack::to_string(kind) + "/" +
                 pnames[pi] + "/" + attack::to_string(priv);
        c.kind = CellKind::kAttack;
        c.platform = p;
        c.attack_kind = kind;
        c.privilege = priv;
        c.opts = base;
        cells.push_back(std::move(c));
      }
      if (p == Platform::kMinix && kind == AttackKind::kForkBomb) {
        CampaignCell c;
        c.name = std::string("attack/") + attack::to_string(kind) +
                 "/minix/code-exec+quota";
        c.kind = CellKind::kAttack;
        c.platform = p;
        c.attack_kind = kind;
        c.privilege = Privilege::kCodeExec;
        c.opts = base;
        c.opts.scenario.enable_quotas = true;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<CampaignCell> seed_sweep_cells(Platform platform,
                                           const RunOptions& base,
                                           std::uint64_t first_seed,
                                           int count) {
  std::vector<CampaignCell> cells;
  for (int i = 0; i < count; ++i) {
    CampaignCell c;
    c.kind = CellKind::kBenign;
    c.platform = platform;
    c.opts = base;
    c.opts.seed = first_seed + static_cast<std::uint64_t>(i);
    c.name = std::string("benign/") + to_string(platform) + "/seed" +
             std::to_string(c.opts.seed);
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<CampaignCell> fault_campaign_cells(const fault::FaultPlan& plan,
                                               const RunOptions& base,
                                               sim::Time spoof_probe_at) {
  std::vector<CampaignCell> cells;
  const Platform platforms[] = {Platform::kMinix, Platform::kSel4,
                                Platform::kLinux};
  const char* pnames[] = {"minix", "sel4", "linux"};
  for (std::size_t i = 0; i < 3; ++i) {
    CampaignCell c;
    c.name = std::string("fault/") + plan.name() + "/" + pnames[i];
    c.kind = CellKind::kFault;
    c.platform = platforms[i];
    c.opts = base;
    c.plan = plan;
    c.spoof_probe_at = spoof_probe_at;
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<AttackRow> attack_rows(const CampaignResult& r) {
  std::vector<AttackRow> rows;
  for (const auto& c : r.cells) {
    if (c.kind == CellKind::kAttack) rows.push_back(c.attack);
  }
  return rows;
}

std::vector<FaultRunResult> fault_rows(const CampaignResult& r) {
  std::vector<FaultRunResult> rows;
  for (const auto& c : r.cells) {
    if (c.kind == CellKind::kFault) rows.push_back(c.fault);
  }
  return rows;
}

std::vector<FabricRunResult> fabric_rows(const CampaignResult& r) {
  std::vector<FabricRunResult> rows;
  for (const auto& c : r.cells) {
    if (c.kind == CellKind::kFabric) rows.push_back(c.fabric);
  }
  return rows;
}

std::vector<CampaignCell> fabric_matrix_cells(int zones,
                                              const FabricOptions& base) {
  std::vector<CampaignCell> cells;
  const FabricAttack attacks[] = {
      FabricAttack::kNone, FabricAttack::kSpoofWrite, FabricAttack::kReplay,
      FabricAttack::kFlood};
  for (FabricAttack a : attacks) {
    CampaignCell c;
    c.kind = CellKind::kFabric;
    c.fabric = base;
    c.fabric.zones = zones;
    c.fabric.attack = a;
    c.name = std::string("fabric/") + to_string(a) + "/z" +
             std::to_string(zones);
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<AttackRow> run_attack_matrix(const RunOptions& opts, int jobs) {
  return attack_rows(run_campaign(attack_matrix_cells(opts), jobs));
}

}  // namespace mkbas::core
