#include "campaign/run_request.hpp"

#include <cstdarg>
#include <cstdio>

#include "campaign/campaign.hpp"
#include "core/report.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace mkbas::core {

namespace {

using attack::AttackKind;
using attack::Privilege;

void appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
}

using Artifacts = std::map<std::string, std::string>;

bool want(unsigned mask, ArtifactKind k) {
  return (mask & artifact_bit(k)) != 0;
}

/// Store artifact `k` under its table name when `mask` asks for it.
void put(unsigned mask, ArtifactKind k, const std::string& text,
         Artifacts* out) {
  if (want(mask, k)) (*out)[to_string(k)] = text;
}

/// A part of a machine's live telemetry or of a fabric's fold, rendered.
template <auto Part>
std::string part_json(const obs::Telemetry& t, const char* /*leaf*/) {
  return (t.*Part).to_json();
}

/// Every sensor.sample chain that ends in a `leaf` span, decomposed per
/// hop.
std::string critical_path(const obs::Telemetry& t, const char* leaf) {
  return obs::critical_path_json(t.spans, "sensor.sample", leaf);
}

/// Where each telemetry artifact comes from, per mode. A single machine
/// and a fabric render it with `render` from their telemetry: the
/// machine's live parts, or the fabric's node-order fold. A campaign
/// result carries its merged parts, rendered as its mask asked; null
/// means a campaign has no such export (a critical path needs one leaf
/// span, and a campaign's cells mix them). Two kinds are not rows: the
/// Chrome trace needs a machine's TraceLog, and metrics_prom is rendered
/// in every mode from the live registry (put_prometheus).
struct TelemetryArtifact {
  ArtifactKind kind;
  std::string (*render)(const obs::Telemetry&, const char* leaf);
  std::string CampaignResult::*campaign;
};

const TelemetryArtifact kTelemetryArtifacts[] = {
    {ArtifactKind::kMetrics, part_json<&obs::Telemetry::metrics>,
     &CampaignResult::merged_metrics_json},
    {ArtifactKind::kSpans, part_json<&obs::Telemetry::spans>,
     &CampaignResult::merged_spans_json},
    {ArtifactKind::kAudit, part_json<&obs::Telemetry::audit>,
     &CampaignResult::merged_audit_json},
    {ArtifactKind::kCritical, critical_path, nullptr},
    {ArtifactKind::kSeries, part_json<&obs::Telemetry::series>,
     &CampaignResult::merged_series_json},
    {ArtifactKind::kHealth, part_json<&obs::Telemetry::health>,
     &CampaignResult::merged_health_json},
    {ArtifactKind::kFlight, part_json<&obs::Telemetry::flight>,
     &CampaignResult::merged_flight_json},
};

/// metrics_prom in every mode: the live registry rendered the way the
/// daemon's /metrics renders its own.
void put_prometheus(unsigned mask, const obs::MetricsRegistry& live,
                    Artifacts* out) {
  constexpr ArtifactKind kind = ArtifactKind::kMetricsProm;
  if (want(mask, kind)) (*out)[to_string(kind)] = obs::prometheus_render(live);
}

/// The asked-for telemetry artifacts of a machine or a fabric, rendered
/// from `t`; `leaf` ends the critical path's chains.
void put_telemetry(unsigned mask, const obs::Telemetry& t, const char* leaf,
                   Artifacts* out) {
  for (const TelemetryArtifact& a : kTelemetryArtifacts) {
    if (want(mask, a.kind)) (*out)[to_string(a.kind)] = a.render(t, leaf);
  }
  put_prometheus(mask, t.metrics, out);
}

RunOptions run_options_from(const ExperimentRequest& req, unsigned mask,
                            Artifacts* artifacts) {
  RunOptions opts;
  opts.scenario_variant = req.scenario;
  opts.seed = req.seed;
  opts.scenario.enable_quotas = req.quota;
  opts.scenario.linux_separate_accounts = req.acl;
  // Render the requested telemetry while the machine is still alive,
  // health flushed first so trailing detector windows land in every
  // export. A machine's control chains end in act.apply.
  opts.observe = [mask, artifacts](sim::Machine& m) {
    m.health().flush(m.now());
    put_telemetry(mask, m.telemetry(), "act.apply", artifacts);
    if (want(mask, ArtifactKind::kTrace)) {
      (*artifacts)[to_string(ArtifactKind::kTrace)] =
          obs::to_chrome_trace_json(m.trace());
    }
  };
  return opts;
}

/// Deterministic one-line JSON for a fabric run (what the CI determinism
/// gate diffs across --jobs / reruns). Keys emitted in sorted order, like
/// every other JSON export in the repo.
std::string fabric_summary_json(const FabricRunResult& r) {
  const obs::TelemetryHashes h = r.telemetry->hashes();
  obs::JsonWriter w;
  w.raw("{\"attack\":\"").raw(to_string(r.attack))
      .raw("\",\"audit_hash\":\"").hex(h.audit)
      .raw("\",\"cov\":").num(r.cov_count)
      .raw(",\"delivered\":").num(r.delivered)
      .raw(",\"drop_loss\":").num(r.drop_loss)
      .raw(",\"drop_overflow\":").num(r.drop_overflow)
      .raw(",\"drop_partition\":").num(r.drop_partition)
      .raw(",\"flight_hash\":\"").hex(h.flight)
      .raw("\",\"health_events\":").num(r.health_events)
      .raw(",\"health_hash\":\"").hex(h.health)
      .raw("\",\"metrics_hash\":\"").hex(h.metrics)
      .raw("\",\"nodes\":").num(r.nodes)
      .raw(",\"schema_version\":").num(obs::kSchemaVersion)
      .raw(",\"series_hash\":\"").hex(h.series)
      .raw("\",\"spans_hash\":\"").hex(h.spans)
      .raw("\",\"topology\":\"").raw(r.topology)
      .raw("\",\"trace_hash\":\"").hex(r.trace_hash)
      .raw("\",\"zones\":").num(r.zones).put('}');
  return w.take();
}

std::string benign_summary_json(const ExperimentRequest& req,
                                const BenignRun& run) {
  obs::JsonWriter w;
  w.raw("{\"alarm_violation\":").boolean(run.safety.alarm_violation)
      .raw(",\"context_switches\":").num(run.context_switches)
      .raw(",\"control_alive\":").boolean(run.safety.control_alive)
      .raw(",\"final_temp_c\":").num(run.history.back().true_temp_c)
      .raw(",\"kernel_entries\":").num(run.kernel_entries)
      .raw(",\"mode\":\"benign\",\"platform\":\"")
      .raw(platform_name(req.platform))
      .raw("\",\"samples\":").num(run.history.size())
      .raw(",\"scenario\":").str(req.scenario)
      .raw(",\"schema_version\":").num(obs::kSchemaVersion)
      .raw(",\"seed\":").num(req.seed).put('}');
  return w.take();
}

void write_attack_row(obs::JsonWriter& w, const AttackRow& row) {
  w.raw("{\"attack\":\"").raw(to_string(row.kind))
      .raw("\",\"detail\":").str(row.outcome.detail)
      .raw(",\"physically_compromised\":")
      .boolean(row.safety.physically_compromised())
      .raw(",\"platform_label\":").str(row.platform_label)
      .raw(",\"primitive_succeeded\":")
      .boolean(row.outcome.primitive_succeeded)
      .raw(",\"privilege\":\"").raw(to_string(row.privilege)).raw("\"}");
}

std::string attack_summary_json(const ExperimentRequest& req,
                                const AttackRow& row) {
  obs::JsonWriter w;
  w.raw("{\"attack\":\"").raw(to_string(row.kind))
      .raw("\",\"detail\":").str(row.outcome.detail)
      .raw(",\"mode\":\"attack\",\"physically_compromised\":")
      .boolean(row.safety.physically_compromised())
      .raw(",\"platform\":\"").raw(platform_name(req.platform))
      .raw("\",\"platform_label\":").str(row.platform_label)
      .raw(",\"primitive_succeeded\":")
      .boolean(row.outcome.primitive_succeeded)
      .raw(",\"privilege\":\"").raw(to_string(row.privilege))
      .raw("\",\"scenario\":").str(req.scenario)
      .raw(",\"schema_version\":").num(obs::kSchemaVersion)
      .raw(",\"seed\":").num(req.seed).put('}');
  return w.take();
}

std::string matrix_summary_json(const std::vector<AttackRow>& rows) {
  obs::JsonWriter w;
  w.raw("{\"mode\":\"matrix\",\"rows\":[");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) w.put(',');
    write_attack_row(w, rows[i]);
  }
  w.raw("],\"schema_version\":").num(obs::kSchemaVersion).put('}');
  return w.take();
}

std::string fault_summary_json(const ExperimentRequest& req,
                               const FaultRunResult& res) {
  obs::JsonWriter w;
  w.raw("{\"excursion_c\":").num(res.max_excursion_after_fault_c)
      .raw(",\"fault_time_s\":").num(sim::to_seconds(res.fault_time))
      .raw(",\"faults_injected\":").num(res.faults_injected)
      .raw(",\"loop_recovered\":").boolean(res.loop_recovered)
      .raw(",\"max_ctl_gap_s\":").num(sim::to_seconds(res.max_ctl_gap))
      .raw(",\"mode\":\"fault\",\"mttr_s\":");
  if (res.mttr >= 0) {
    w.num(sim::to_seconds(res.mttr));
  } else {
    w.raw("-1");
  }
  w.raw(",\"platform\":\"").raw(platform_name(req.platform))
      .raw("\",\"platform_label\":").str(res.platform_label)
      .raw(",\"probe_attempted\":").boolean(res.web_spoof.attempted)
      .raw(",\"probe_attempts\":").num(res.web_spoof.attempts)
      .raw(",\"probe_succeeded\":")
      .boolean(res.web_spoof.primitive_succeeded)
      .raw(",\"restarts\":").num(res.restarts)
      .raw(",\"scenario\":").str(req.scenario)
      .raw(",\"schema_version\":").num(obs::kSchemaVersion)
      .raw(",\"seed\":").num(req.seed).put('}');
  return w.take();
}

ExperimentResponse run_benign_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  const auto run =
      run_benign(req.platform, run_options_from(req, mask, &resp.artifacts));
  appendf(&resp.table, "platform            : %s\n",
          bas::to_string(req.platform));
  appendf(&resp.table, "plant samples       : %zu\n", run.history.size());
  appendf(&resp.table, "final temperature   : %.2f C\n",
          run.history.back().true_temp_c);
  appendf(&resp.table, "context switches    : %llu\n",
          static_cast<unsigned long long>(run.context_switches));
  appendf(&resp.table, "kernel entries      : %llu\n",
          static_cast<unsigned long long>(run.kernel_entries));
  appendf(&resp.table, "alarm property      : %s\n",
          run.safety.alarm_violation ? "VIOLATED" : "held");
  appendf(&resp.table, "control alive       : %s\n",
          run.safety.control_alive ? "yes" : "NO");
  put(mask, ArtifactKind::kSummary, benign_summary_json(req, run),
      &resp.artifacts);
  return resp;
}

ExperimentResponse run_attack_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  AttackKind kind;
  (void)parse_attack_kind(req.attack, &kind);  // validate() guaranteed it
  const Privilege priv = req.root ? Privilege::kRoot : Privilege::kCodeExec;
  const auto row = run_attack(req.platform, kind, priv,
                              run_options_from(req, mask, &resp.artifacts));
  appendf(&resp.table, "platform   : %s\n", row.platform_label.c_str());
  appendf(&resp.table, "attack     : %s (%s)\n", to_string(row.kind),
          to_string(row.privilege));
  appendf(&resp.table, "primitive  : %s\n",
          row.outcome.primitive_succeeded ? "SUCCEEDED" : "blocked");
  appendf(&resp.table, "detail     : %s\n", row.outcome.detail.c_str());
  appendf(&resp.table, "physical   : %s\n", row.safety.summary().c_str());
  put(mask, ArtifactKind::kSummary, attack_summary_json(req, row),
      &resp.artifacts);
  resp.exit_code = row.safety.physically_compromised() ? 1 : 0;
  return resp;
}

ExperimentResponse run_matrix_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  // T1 reads only the rows: its cells run without telemetry snapshots.
  const auto rows =
      attack_rows(run_campaign(attack_matrix_cells(), req.jobs, 0));
  if (req.format == "csv") {
    resp.table = attack_rows_to_csv(rows);
  } else if (req.format == "md") {
    resp.table = attack_rows_to_markdown(rows);
  } else {
    resp.table = format_attack_table(rows);
  }
  put(mask, ArtifactKind::kSummary, matrix_summary_json(rows),
      &resp.artifacts);
  return resp;
}

ExperimentResponse run_fault_request(const ExperimentRequest& req,
                                     unsigned mask) {
  // The reference fault campaign (crash the sensor driver at t=30s, the
  // web interface at t=40s) against one platform, with a post-restart
  // sensor-spoof probe of the reincarnated web process.
  ExperimentResponse resp;
  RunOptions opts = run_options_from(req, mask, &resp.artifacts);
  opts.settle = sim::minutes(1);
  opts.post = sim::minutes(6);
  opts.scenario.room.initial_temp_c = opts.scenario.control.initial_setpoint_c;
  const sim::Time probe_at = req.probe ? sim::sec(70) : -1;
  const auto plan = fault::reference_sensor_crash_plan();
  appendf(&resp.table, "plan:\n%s", plan.describe().c_str());
  const auto res = run_fault(req.platform, plan, opts, probe_at);
  appendf(&resp.table, "platform       : %s\n", res.platform_label.c_str());
  appendf(&resp.table, "faults injected: %llu\n",
          static_cast<unsigned long long>(res.faults_injected));
  appendf(&resp.table, "loop recovered : %s\n",
          res.loop_recovered ? "yes" : "NO");
  if (res.mttr >= 0) {
    appendf(&resp.table, "mttr           : %.3f s (virtual)\n",
            sim::to_seconds(res.mttr));
  } else {
    appendf(&resp.table, "mttr           : inf (never recovered)\n");
  }
  appendf(&resp.table, "restarts       : %d\n", res.restarts);
  appendf(&resp.table, "excursion      : %.2f C after the fault\n",
          res.max_excursion_after_fault_c);
  if (res.web_spoof.attempted) {
    appendf(&resp.table, "spoof probe    : %s (%d attempts)\n",
            res.web_spoof.primitive_succeeded ? "SPOOFED" : "blocked",
            res.web_spoof.attempts);
  } else {
    appendf(&resp.table, "spoof probe    : not reached (web interface dead)\n");
  }
  appendf(&resp.table, "physical       : %s\n", res.safety.summary().c_str());
  put(mask, ArtifactKind::kSummary, fault_summary_json(req, res),
      &resp.artifacts);
  resp.exit_code = res.loop_recovered ? 0 : 1;
  return resp;
}

ExperimentResponse run_fabric_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  FabricOptions opts;
  opts.zones = req.zones;
  opts.seed = req.seed;
  opts.topology = req.topology;
  opts.floors = req.floors;
  opts.buildings = req.buildings;
  opts.sync = req.sync;
  opts.jobs = req.jobs;
  opts.lite_zones = req.lite;
  (void)parse_fabric_attack(req.attack, &opts.attack);  // validated
  const auto res = run_fabric(opts);
  resp.table = format_fabric_table(res);
  if (want(mask, ArtifactKind::kSummary)) {
    resp.artifacts[to_string(ArtifactKind::kSummary)] =
        fabric_summary_json(res);
  }
  // A fabric's telemetry chains end in net.link, each COV sample's last
  // link.
  put_telemetry(mask, *res.telemetry, "net.link", &resp.artifacts);
  return resp;
}

ExperimentResponse run_campaign_request(const ExperimentRequest& req,
                                        unsigned mask) {
  ExperimentResponse resp;
  std::vector<CampaignCell> cells;
  switch (req.mode) {
    case RequestMode::kCampaignMatrix:
      cells = attack_matrix_cells({});
      break;
    case RequestMode::kCampaignSweep:
      cells = seed_sweep_cells(req.platform, {}, 1, req.seeds);
      break;
    case RequestMode::kCampaignFault: {
      RunOptions opts;
      opts.settle = sim::minutes(1);
      opts.post = sim::minutes(6);
      opts.seed = req.seed;
      opts.scenario.room.initial_temp_c =
          opts.scenario.control.initial_setpoint_c;
      cells = fault_campaign_cells(fault::reference_sensor_crash_plan(), opts,
                                   sim::sec(70));
      break;
    }
    default: {
      FabricOptions base;
      base.seed = req.seed;
      cells = fabric_matrix_cells(req.zones, base);
      break;
    }
  }

  const bool profiling = want(mask, ArtifactKind::kProfile) ||
                         want(mask, ArtifactKind::kProfileTrace);
  const auto result = run_campaign(cells, req.jobs, mask);
  appendf(&resp.table, "campaign: %zu cells, --jobs %d, %.2f s wall, "
          "%llu steals\n",
          result.cells.size(), result.jobs, result.wall_seconds,
          static_cast<unsigned long long>(result.steals));
  if (req.mode == RequestMode::kCampaignMatrix) {
    resp.table += format_attack_table(attack_rows(result));
  } else if (req.mode == RequestMode::kCampaignFault) {
    resp.table += format_fault_table(fault_rows(result));
  } else if (req.mode == RequestMode::kCampaignFabric) {
    for (const auto& run : fabric_rows(result)) {
      resp.table += format_fabric_table(run);
    }
  } else {
    for (const auto& c : result.cells) {
      appendf(&resp.table, "%-28s %zu samples, alarm %s\n", c.name.c_str(),
              c.benign.history.size(),
              c.benign.safety.alarm_violation ? "VIOLATED" : "held");
    }
  }

  Artifacts* out = &resp.artifacts;
  if (want(mask, ArtifactKind::kSummary)) {
    (*out)[to_string(ArtifactKind::kSummary)] = result.summary_json();
  }
  for (const TelemetryArtifact& a : kTelemetryArtifacts) {
    if (a.campaign != nullptr) put(mask, a.kind, result.*a.campaign, out);
  }
  if (result.telemetry) put_prometheus(mask, result.telemetry->metrics, out);
  // Pool profile: host wall-time, --jobs-dependent by nature — produced
  // only on request and kept out of the deterministic bundle.
  if (profiling) {
    put(mask, ArtifactKind::kProfile, result.profile_json(),
        &resp.volatile_artifacts);
    put(mask, ArtifactKind::kProfileTrace, result.profile_trace_json(),
        &resp.volatile_artifacts);
  }
  return resp;
}

}  // namespace

ExperimentResponse run_request(const ExperimentRequest& req, unsigned mask) {
  switch (req.mode) {
    case RequestMode::kBenign: return run_benign_request(req, mask);
    case RequestMode::kAttack: return run_attack_request(req, mask);
    case RequestMode::kMatrix: return run_matrix_request(req, mask);
    case RequestMode::kFault: return run_fault_request(req, mask);
    case RequestMode::kFabric: return run_fabric_request(req, mask);
    case RequestMode::kCampaignMatrix:
    case RequestMode::kCampaignSweep:
    case RequestMode::kCampaignFault:
    case RequestMode::kCampaignFabric:
      return run_campaign_request(req, mask);
  }
  return {};
}

ExperimentResponse run_request(const ExperimentRequest& req) {
  return run_request(req,
                     req.artifacts.mask() | artifact_bit(ArtifactKind::kSummary));
}

}  // namespace mkbas::core
