#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/pool.hpp"
#include "core/experiment.hpp"
#include "core/fabric_run.hpp"
#include "core/hash.hpp"
#include "core/request.hpp"
#include "obs/telemetry.hpp"

namespace mkbas::core {

/// The campaign engine: fan a list of independent experiment cells across
/// hardware threads and reduce the results in deterministic cell order.
///
/// A *cell* is one fully specified experiment — (platform, scenario, seed,
/// attack or fault plan) — and executes exactly the way the sequential
/// entry points do: it builds its own sim::Machine, so it owns its RNG,
/// metrics registry and trace log outright. Nothing is shared between
/// in-flight cells (the only cross-thread state is the process-wide trace
/// TagRegistry, whose interning order does not affect exported bytes).
/// run_campaign therefore produces byte-identical results for any --jobs
/// value: cells land in a slot indexed by their position, and every task
/// of the reduction (the fold with the trace-hash chain, the merged
/// spans' hash, their string; side by side on the same pool) walks the
/// slots in cell order, never in completion order, as summary_json does.

enum class CellKind { kBenign, kAttack, kFault, kFabric };

const char* to_string(CellKind k);

/// One schedulable experiment. `opts.observe` still fires (before the
/// engine snapshots the registry), so callers can export per-cell
/// artifacts exactly as they would from the sequential entry points.
struct CampaignCell {
  std::string name;  // unique, deterministic label ("attack/kill/minix/root")
  CellKind kind = CellKind::kBenign;
  Platform platform = Platform::kMinix;
  RunOptions opts;
  // kAttack only:
  attack::AttackKind attack_kind = attack::AttackKind::kSpoofSensor;
  attack::Privilege privilege = attack::Privilege::kCodeExec;
  // kFault only:
  fault::FaultPlan plan;
  sim::Time spoof_probe_at = -1;
  // kFabric only: the whole N-zone building is one cell. `opts` is
  // ignored for these cells; everything lives in `fabric`.
  FabricOptions fabric{};
};

/// What came back from one cell. Exactly one of attack/fault/benign/fabric
/// is meaningful (matching `kind`); the observability snapshot is taken
/// unless the campaign's mask asks for neither summary nor telemetry.
struct CellResult {
  std::string name;
  CellKind kind = CellKind::kBenign;
  AttackRow attack;
  FaultRunResult fault;
  BenignRun benign;
  FabricRunResult fabric;
  /// Telemetry snapshot, folded while the cell's Machine was still alive
  /// and after its health detectors were flushed at the cell's end time
  /// (closed spans only — cells quiesce before the observe hook fires).
  /// A fabric cell takes run_fabric's node-order fold. Null without a
  /// snapshot.
  std::shared_ptr<const obs::Telemetry> telemetry;
  /// Views into `telemetry` (null without one), for callers that read
  /// the cell's registry or span store directly.
  const obs::MetricsRegistry* metrics = nullptr;
  const obs::SpanStore* spans = nullptr;
  /// FNV-1a of each snapshot part's JSON, streamed on the pool worker
  /// that ran the cell, so the per-cell JSON is never held. summary_json
  /// prints them.
  obs::TelemetryHashes hashes;
  /// FNV-1a over every trace event rendered as text (names, not interned
  /// ids, so the hash is independent of cross-cell interning order).
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_events = 0;
  /// Host wall-clock for this cell. Diagnostic; never enters summary_json.
  double wall_seconds = 0.0;
};

struct CampaignResult {
  std::vector<CellResult> cells;  // in cell order, regardless of jobs
  int jobs = 1;
  std::uint64_t steals = 0;      // work-stealing pool diagnostic
  double wall_seconds = 0.0;     // host wall-clock for the whole campaign
  /// Host wall-clock from the last cell's end to the end of the reduce.
  /// Diagnostic, like wall_seconds; never enters summary_json.
  double reduce_seconds = 0.0;
  /// Per-cell telemetry folded in cell order — the order-deterministic
  /// merge the --jobs identity tests diff — holding every part but
  /// spans: the merged spans are rendered and hashed straight from the
  /// cells' stores (obs::write_spans_json), so `telemetry->spans` stays
  /// empty. Null without snapshots.
  std::shared_ptr<const obs::Telemetry> telemetry;
  /// FNV-1a chain over the per-cell trace hashes, in cell order.
  std::uint64_t merged_trace_hash = 0;
  /// Each merged part's FNV-1a. A part is rendered into its string, in
  /// the same pass, only when the mask asks for its kind (metrics also
  /// for the summary, which embeds it); otherwise the string stays empty.
  std::string merged_metrics_json;
  std::string merged_spans_json;
  std::string merged_audit_json;
  std::string merged_series_json;
  std::string merged_health_json;
  std::string merged_flight_json;
  obs::TelemetryHashes merged_hashes;

  /// Pool profile of this campaign's run() (host wall time): per-worker
  /// steal counts, busy time and queue-depth samples, plus per-cell
  /// wall-time attribution aligned with `cells` by index. Diagnostic
  /// only — summary_json never reads it.
  std::vector<campaign::WorkerProfile> worker_profiles;
  std::vector<campaign::TaskProfile> cell_profiles;

  /// Deterministic machine-readable summary: per-cell verdicts and
  /// hashes plus the merged metrics and hashes, all formatted from what
  /// run_campaign stored (nothing is rendered or hashed here), so the
  /// mask must have asked for the summary. Contains no timing and no
  /// jobs-dependent fields — `--jobs 1` and `--jobs N` must produce
  /// byte-identical summaries (the CI determinism gate diffs them).
  std::string summary_json() const;

  /// Pool profile as JSON (jobs, steals, reduce_seconds, per-worker
  /// rows, per-cell rows). Host wall time throughout — NOT
  /// deterministic, never diffed; the --profile-out artifact.
  std::string profile_json() const;
  /// The same profile as Perfetto/Chrome trace lanes: one track per
  /// worker, one slice per cell (named after the cell), so a campaign's
  /// schedule drops straight into the trace viewer next to the sim
  /// traces.
  std::string profile_trace_json() const;
};

/// Cell builders. attack_matrix_cells is the one definition of the
/// paper's §IV.D attack-outcome matrix (T1): every attack against every
/// platform at both privileges (seL4 has no root), plus the MINIX
/// fork-quota ablation row, in the table's row order.
std::vector<CampaignCell> attack_matrix_cells(const RunOptions& base = {});
std::vector<CampaignCell> seed_sweep_cells(Platform platform,
                                           const RunOptions& base,
                                           std::uint64_t first_seed,
                                           int count);
std::vector<CampaignCell> fault_campaign_cells(const fault::FaultPlan& plan,
                                               const RunOptions& base = {},
                                               sim::Time spoof_probe_at = -1);

/// One cell per cross-controller network attack (plus the benign
/// baseline), each an N-zone building on the fabric.
std::vector<CampaignCell> fabric_matrix_cells(int zones,
                                              const FabricOptions& base = {});

/// Run every cell (work-stealing across `jobs` threads; `jobs <= 1` runs
/// inline on the calling thread) and reduce in cell order.
///
/// `mask` is run_request's artifact mask (artifact_bit()): what the
/// caller reads besides the rows. With neither the summary bit nor a
/// telemetry bit, cells run without a snapshot: nothing is folded,
/// hashed or rendered, and every `telemetry` stays null. Otherwise every
/// hash is taken, but a merged part is rendered into its string only
/// when asked for (see CampaignResult). The default asks for everything.
CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            int jobs = 1, unsigned mask = ~0u);

/// Extract the typed rows from a campaign in cell order.
std::vector<AttackRow> attack_rows(const CampaignResult& r);
std::vector<FaultRunResult> fault_rows(const CampaignResult& r);
std::vector<FabricRunResult> fabric_rows(const CampaignResult& r);

}  // namespace mkbas::core
