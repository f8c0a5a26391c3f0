#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/attacks.hpp"
#include "bas/scenario.hpp"
#include "core/fabric_run.hpp"
#include "net/topology.hpp"

namespace mkbas::core {

/// Every JSON artifact an experiment can materialize. The CLI maps each
/// kind to an output path; the daemon stores the whole bundle under the
/// request's cell key and serves kinds by name. Each kind's name, path
/// flag and determinism are one row of the artifact table in request.cpp.
/// kProfile/kProfileTrace are host-wall-time diagnostics: they are
/// produced on demand but never cached (a cache must only hold
/// deterministic bytes).
enum class ArtifactKind {
  kSummary = 0,  // the mode's machine-readable summary JSON
  kMetrics,
  kTrace,        // Chrome trace events
  kSpans,
  kAudit,
  kCritical,
  kSeries,
  kHealth,
  kFlight,
  kMetricsProm,  // Prometheus text exposition
  kProfile,      // campaign pool; never cached
  kProfileTrace, // campaign pool; never cached
};
inline constexpr int kArtifactKinds = 12;

const char* to_string(ArtifactKind k);
bool parse_artifact_kind(const std::string& s, ArtifactKind* out);
bool artifact_is_deterministic(ArtifactKind k);

/// Which artifacts a front-end wants, and (CLI only) where each goes:
/// drivers iterate kinds instead of plumbing one field per file.
struct ArtifactRequest {
  std::array<std::string, kArtifactKinds> path{};  // "" = not requested

  std::string& operator[](ArtifactKind k) {
    return path[static_cast<std::size_t>(k)];
  }
  const std::string& operator[](ArtifactKind k) const {
    return path[static_cast<std::size_t>(k)];
  }
  bool wanted(ArtifactKind k) const { return !(*this)[k].empty(); }
  bool any() const;
  /// Bitmask over ArtifactKind for run_request's materialization set.
  unsigned mask() const;
};

/// Bit helpers for the materialization mask.
inline constexpr unsigned artifact_bit(ArtifactKind k) {
  return 1u << static_cast<unsigned>(k);
}
/// Every deterministic kind (what the daemon materializes and caches).
unsigned all_deterministic_artifacts();

/// The experiment modes the runner exposes. Campaign submodes are
/// first-class: "campaign.matrix" is a different computation than
/// "matrix" (it fans the same cells through the pool and additionally
/// merges artifacts), so it gets its own canonical name.
enum class RequestMode {
  kBenign,
  kAttack,
  kMatrix,
  kFault,
  kFabric,
  kCampaignMatrix,
  kCampaignSweep,
  kCampaignFault,
  kCampaignFabric,
};
inline constexpr int kRequestModes = 9;

const char* to_string(RequestMode m);

/// The wire spelling of a platform ("minix"/"sel4"/"linux") — what
/// parse_platform accepts and what canonical JSON must therefore emit.
/// bas::to_string() gives the display label ("MINIX3+ACM") instead.
using bas::platform_name;

/// The request grammar's words for the enums a request names as
/// strings; false when `s` is not one of them.
bool parse_platform(const std::string& s, bas::Platform* out);
bool parse_attack_kind(const std::string& s, attack::AttackKind* out);
bool parse_fabric_attack(const std::string& s, FabricAttack* out);

/// The canonical experiment request: one plain value type naming every
/// deterministic input of every runner mode. CLI flags and HTTP bodies
/// are both thin adapters onto this struct, so one request has exactly
/// one canonical JSON rendering and one 64-bit cell key — the unit the
/// content-addressable result cache is keyed by.
///
/// Canonical form: `to_canonical_json()` emits ALL canonical fields,
/// sorted by key, defaults included, numbers in their shortest decimal
/// form. Two requests are the same cell iff their canonical JSON (and
/// therefore their FNV-1a cell key) matches.
///
/// Two members are deliberately NOT canonical:
///  * `jobs` — an execution hint. Every artifact in this repo is
///    --jobs byte-invariant (the campaign determinism gates enforce it),
///    so parallelism must not split the cache.
///  * `artifacts` — where a front-end wants files written is a view
///    concern; the computation is the same.
struct ExperimentRequest {
  RequestMode mode = RequestMode::kBenign;
  bas::Platform platform = bas::Platform::kMinix;
  std::string scenario = "temp";   // registered scenario variant
  std::uint64_t seed = 1;
  int zones = 4;                   // fabric / campaign.fabric
  int seeds = 8;                   // campaign.sweep: sweep width
  net::TopologySpec::Kind topology = net::TopologySpec::Kind::kFlat;
  int floors = 1;
  int buildings = 1;
  net::SyncMode sync = net::SyncMode::kLookahead;
  bool lite = false;               // fabric: gateway-only zones
  std::string attack = "none";     // attack kind, mode-dependent grammar
  bool root = false;               // attack: root privilege
  bool quota = false;              // MINIX syscall quotas
  bool acl = false;                // Linux separate accounts + ACLs
  bool probe = true;               // fault: post-restart spoof probe
  std::string format = "table";    // matrix table rendering: table|csv|md

  // ---- execution hints / front-end concerns (not canonical) ----
  int jobs = 1;
  ArtifactRequest artifacts;

  /// All canonical fields, keys sorted, defaults included.
  std::string to_canonical_json() const;
  /// FNV-1a over to_canonical_json(): the cache cell key.
  std::uint64_t cell_key() const;
  std::string cell_key_hex() const;  // 16 hex digits, the URL form

  /// "" when the request names a runnable experiment; otherwise a
  /// field-level message ("'attack': 'kill' is not a fabric attack...").
  std::string validate() const;
};

/// Strict deserialization of a request body. Unknown fields are errors
/// (with a did-you-mean hint), type mismatches name the field, enum
/// fields name the offending value and the accepted set. Absent fields
/// take the documented defaults; validate() runs last. `jobs` is
/// accepted as an execution hint. Returns false and fills *err on any
/// failure; *out is default-initialized in that case.
bool parse_request_json(const std::string& json, ExperimentRequest* out,
                        std::string* err);

/// The one flag grammar every experiment_runner subcommand shares. A
/// request flag is its JSON key (`--zones 3` is `"zones":3`) and goes
/// through the same typed setter as a POST /run body; the booleans are
/// switches (--lite --root --quota --acl, and --no-probe for
/// `"probe":false`), --csv/--md set the matrix format, and every
/// artifact has a path flag (--out --metrics-out --trace-out ...). The
/// tables behind them, and parse_cli, are in core/request.cpp. serve
/// adds --port N --batch N --slow-ms N --store-cap N --no-trace. Numbers
/// take plain digits only.
///
/// Every option is a flag: positionals beyond the mode (and the
/// campaign submode) are passed through in `pos` untouched, and unknown
/// flags — single- or double-dash — are parse errors with a
/// did-you-mean hint.
struct CliArgs {
  ExperimentRequest request;       // what the request flags fill
  std::string mode;                // first positional ("benign", ...)
  std::vector<std::string> pos;    // remaining positionals, in order

  // Which of these flags were given: request_from_cli's CLI-only rules.
  bool has_platform = false;
  bool has_seed = false;
  bool has_attack = false;

  int port = 8080;                 // --port: serve listen port (0 = any)
  int batch = 8;                   // --batch: serve max cells per batch
  /// --slow-ms: serve slow-request forensics threshold (0 = snapshot
  /// every request; useful under test).
  int slow_ms = 250;
  /// --store-cap: serve result-store cell bound (0 = unbounded).
  int store_cap = 0;
  /// --no-trace: disable serve request tracing + SSE event publication.
  bool no_trace = false;

  /// Non-empty when parsing failed; the caller prints usage.
  std::string error;
};

CliArgs parse_cli(int argc, char** argv);

/// The CLI adapter: interpret one parsed flag set as a canonical
/// request. Adds only what the CLI asks beyond the JSON grammar: the
/// mode words, --platform and --attack where the mode needs them, and
/// the fault campaign's default seed. Returns false + *err when the
/// combination does not name a runnable experiment (the caller prints
/// usage).
bool request_from_cli(const CliArgs& a, ExperimentRequest* out,
                      std::string* err);

/// "--attack kill" given "kil": nearest candidate within edit distance 3,
/// rendered as " (did you mean '--attack'?)"; empty when nothing close.
std::string did_you_mean(const std::string& word,
                         const std::vector<std::string>& candidates);

}  // namespace mkbas::core
