#include "campaign/campaign.hpp"

#include <chrono>
#include <functional>

#include "campaign/pool.hpp"
#include "core/hash.hpp"

namespace mkbas::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0,
                     Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The only kinds a campaign makes without its cells' snapshots: the
/// pool profiles (host wall time).
constexpr unsigned kProfileKinds = artifact_bit(ArtifactKind::kProfile) |
                                   artifact_bit(ArtifactKind::kProfileTrace);

/// One cell, executed on whichever worker thread picked it up. All state
/// is local: the Machine (and with it RNG, registry, trace) is built and
/// torn down inside this call. Without `snapshot` the cell keeps only
/// its row.
CellResult run_cell(const CampaignCell& cell, bool snapshot) {
  CellResult res;
  res.name = cell.name;
  res.kind = cell.kind;
  const auto t0 = Clock::now();

  RunOptions opts = cell.opts;
  if (snapshot) {
    opts.observe = [&res, caller = cell.opts.observe](sim::Machine& m) {
      if (caller) caller(m);
      // Close trailing rate windows so trailing anomalies are detected
      // before the snapshot; idempotent if the caller already flushed.
      m.health().flush(m.now());
      auto t = std::make_shared<obs::Telemetry>();
      t->merge_from(m.telemetry());
      res.telemetry = std::move(t);
      res.trace_hash = trace_hash(m.trace());
      res.trace_events = m.trace().total_emitted();
    };
  }

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
      // The fabric folds its machines in node order itself: the cell
      // takes that fold as its snapshot.
      FabricOptions fabric = cell.fabric;
      fabric.collect = fabric.collect && snapshot;
      res.fabric = run_fabric(fabric);
      res.telemetry = res.fabric.telemetry;
      res.trace_hash = res.fabric.trace_hash;
      res.trace_events = res.fabric.trace_events;
      break;
    }
  }
  if (res.telemetry) {
    res.hashes = res.telemetry->hashes();
    res.metrics = &res.telemetry->metrics;
    res.spans = &res.telemetry->spans;
  }
  res.wall_seconds = seconds_since(t0);
  return res;
}

/// Merged `part` streamed into its FNV-1a, and rendered into `*json` in
/// the same pass when `render` is set.
template <typename Part>
void reduce_part(const Part& part, bool render, std::string* json,
                 std::uint64_t* hash) {
  obs::JsonWriter w(render ? obs::JsonWriter::kStringAndHash
                           : obs::JsonWriter::kHash);
  part.write_json(w);
  *hash = w.hash();
  if (render) *json = w.take();
}

/// The cell-order reduction of `out->cells`, run as independent tasks on
/// the campaign's pool (inline, in task order, with one worker): every
/// part but spans folded, rendered or hashed, with the trace-hash chain;
/// the merged spans' hash; and, only when `mask` asks for spans, their
/// string. Both spans passes render straight from the cells' stores, so
/// no merged SpanStore is built. Every task walks the slots in cell
/// order — the one order every --jobs value shares — so the merged
/// artifacts are byte-identical to sequential; tasks write disjoint
/// fields of `out`.
void reduce_cells(unsigned mask, campaign::WorkStealingPool& pool,
                  CampaignResult* out) {
  const auto asked = [mask](ArtifactKind k) {
    return (mask & artifact_bit(k)) != 0;
  };
  std::vector<const obs::SpanStore*> span_stores;
  for (const CellResult& r : out->cells) {
    if (r.spans) span_stores.push_back(r.spans);
  }
  obs::TelemetryHashes& h = out->merged_hashes;
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] {
    auto merged = std::make_shared<obs::Telemetry>();
    std::uint64_t chain = 14695981039346656037ULL;
    for (const CellResult& r : out->cells) {
      if (const obs::Telemetry* t = r.telemetry.get()) {
        merged->metrics.merge_from(t->metrics);
        merged->audit.merge_from(t->audit);
        merged->series.merge_from(t->series);
        merged->health.merge_from(t->health);
        merged->flight.merge_from(t->flight);
      }
      chain = fnv1a(hex64(r.trace_hash), chain);
    }
    out->merged_trace_hash = chain;
    reduce_part(merged->metrics,
                asked(ArtifactKind::kMetrics) || asked(ArtifactKind::kSummary),
                &out->merged_metrics_json, &h.metrics);
    reduce_part(merged->audit, asked(ArtifactKind::kAudit),
                &out->merged_audit_json, &h.audit);
    reduce_part(merged->series, asked(ArtifactKind::kSeries),
                &out->merged_series_json, &h.series);
    reduce_part(merged->health, asked(ArtifactKind::kHealth),
                &out->merged_health_json, &h.health);
    reduce_part(merged->flight, asked(ArtifactKind::kFlight),
                &out->merged_flight_json, &h.flight);
    out->telemetry = std::move(merged);
  });
  tasks.emplace_back([&] {
    obs::JsonWriter w(obs::JsonWriter::kHash);
    obs::write_spans_json(w, span_stores);
    h.spans = w.hash();
  });
  if (asked(ArtifactKind::kSpans)) {
    tasks.emplace_back([&] {
      obs::JsonWriter w;
      obs::write_spans_json(w, span_stores);
      out->merged_spans_json = w.take();
    });
  }
  pool.run(tasks.size(), [&](std::size_t i) { tasks[i](); });
}

/// One line per cell for summary_json, however long (a fabric cell lists
/// every zone).
std::string cell_verdict(const CellResult& r) {
  obs::JsonWriter w;
  switch (r.kind) {
    case CellKind::kBenign: {
      const auto& history = r.benign.history;
      w.raw("samples=").num(history.size()).raw(" final_c=")
          .fixed(history.empty() ? 0.0 : history.back().true_temp_c, 6)
          .put(' ').raw(r.benign.safety.summary());
      break;
    }
    case CellKind::kAttack: {
      const attack::AttackOutcome& o = r.attack.outcome;
      w.raw(r.attack.platform_label).raw(" primitive=")
          .raw(o.primitive_succeeded ? "SUCCEEDED" : "blocked")
          .raw(" attempts=").num(o.successes).put('/').num(o.attempts)
          .put(' ').raw(r.attack.safety.summary());
      break;
    }
    case CellKind::kFault: {
      const FaultRunResult& f = r.fault;
      w.raw(f.platform_label).raw(" recovered=")
          .raw(f.loop_recovered ? "yes" : "no").raw(" mttr_s=")
          .fixed(f.mttr < 0 ? -1.0 : sim::to_seconds(f.mttr), 3)
          .raw(" restarts=").num(f.restarts).raw(" excursion_c=")
          .fixed(f.max_excursion_after_fault_c, 3).raw(" faults=")
          .num(f.faults_injected).raw(" spoof=")
          .raw(!f.web_spoof.attempted ? "-"
               : f.web_spoof.primitive_succeeded ? "SPOOFED"
                                                 : "blocked");
      break;
    }
    case CellKind::kFabric: {
      const FabricRunResult& f = r.fabric;
      w.raw("zones=").num(f.zones).raw(" attack=").raw(to_string(f.attack))
          .raw(" delivered=").num(f.delivered).raw(" drops=")
          .num(f.drop_loss).put('/').num(f.drop_partition).put('/')
          .num(f.drop_overflow).raw(" cov=").num(f.cov_count)
          .raw(" cov_p99_us=").fixed(f.cov_p99_us, 0).raw(" [");
      for (std::size_t i = 0; i < f.rows.size(); ++i) {
        if (i > 0) w.put(',');
        w.num(f.rows[i].zone)
            .raw(f.attack == FabricAttack::kNone ? ":-"
                 : f.rows[i].attack_delivered    ? ":DELIVERED"
                                                 : ":blocked");
      }
      w.put(']');
      break;
    }
  }
  return w.take();
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
                            int jobs, unsigned mask) {
  CampaignResult out;
  out.jobs = jobs < 1 ? 1 : jobs;
  const auto t0 = Clock::now();
  const bool snapshot = (mask & ~kProfileKinds) != 0;

  out.cells.resize(cells.size());
  campaign::WorkStealingPool pool(out.jobs);
  pool.set_profiling(true);
  pool.run(cells.size(), [&](std::size_t i) {
    // Slot i belongs to cell i: completion order never shows through.
    out.cells[i] = run_cell(cells[i], snapshot);
  });
  const auto cells_done = Clock::now();
  out.steals = pool.steals();
  out.worker_profiles = pool.worker_profiles();
  out.cell_profiles = pool.task_profiles();

  if (snapshot) reduce_cells(mask, pool, &out);
  const auto done = Clock::now();
  out.reduce_seconds = seconds_since(cells_done, done);
  out.wall_seconds = seconds_since(t0, done);
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
  w.raw("],\"jobs\":").num(jobs).raw(",\"reduce_seconds\":")
      .num(reduce_seconds).raw(",\"schema_version\":")
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
  // Attack-major, then platform, then privilege: the order the T1 table
  // prints its rows in.
  for (AttackKind kind : kinds) {
    for (std::size_t pi = 0; pi < 3; ++pi) {
      const Platform p = platforms[pi];
      for (Privilege priv : {Privilege::kCodeExec, Privilege::kRoot}) {
        // Root adds nothing on seL4 (no user concept, §IV.D.3): skip the
        // duplicate run but keep both privilege rows elsewhere.
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
      // Ablation: the paper's proposed ACM fork quota stops the bomb.
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

}  // namespace mkbas::core
