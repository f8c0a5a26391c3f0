#pragma once

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/span.hpp"

namespace mkbas::obs {

/// FNV-1a of each part's JSON export. A part that was never exported
/// keeps the hash of zero bytes.
struct TelemetryHashes {
  std::uint64_t metrics = Fnv1a::kOffset;
  std::uint64_t spans = Fnv1a::kOffset;
  std::uint64_t audit = Fnv1a::kOffset;
  std::uint64_t series = Fnv1a::kOffset;
  std::uint64_t health = Fnv1a::kOffset;
  std::uint64_t flight = Fnv1a::kOffset;
};

/// The six mergeable observability parts of one machine, or of a fold of
/// machines, as one value. sim::Machine owns one and wires it (health
/// feeds series, audit and spans; denials and detector firings trip the
/// flight recorder). A fold is a default-constructed, unwired Telemetry
/// that merge_from() fills, so merging never triggers a snapshot. Each
/// part keeps its own enable and capacity setters.
struct Telemetry {
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry metrics;
  SpanStore spans;
  AuditJournal audit;
  SeriesStore series;
  HealthMonitor health;
  FlightRecorder flight;

  /// Fold every part of `other` into the same part here. Folding the same
  /// bundles in the same order always gives the same bytes, which is what
  /// lets campaigns and fabrics reduce in cell or node order.
  void merge_from(const Telemetry& other);
  /// Every part's to_json() hashed, each streamed into an FNV-1a sink
  /// without being materialised.
  TelemetryHashes hashes() const;
  /// Fabric node index for the parts that carry one (span ids, series
  /// and health labels); set it before anything is recorded.
  void set_machine(int id);
};

}  // namespace mkbas::obs
