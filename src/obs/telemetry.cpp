#include "obs/telemetry.hpp"

namespace mkbas::obs {

void Telemetry::merge_from(const Telemetry& other) {
  metrics.merge_from(other.metrics);
  spans.merge_from(other.spans);
  audit.merge_from(other.audit);
  series.merge_from(other.series);
  health.merge_from(other.health);
  flight.merge_from(other.flight);
}

namespace {

template <typename Part>
std::uint64_t json_hash(const Part& part) {
  JsonWriter w(JsonWriter::kHash);
  part.write_json(w);
  return w.hash();
}

}  // namespace

TelemetryHashes Telemetry::hashes() const {
  return {json_hash(metrics), json_hash(spans),  json_hash(audit),
          json_hash(series),  json_hash(health), json_hash(flight)};
}

void Telemetry::set_machine(int id) {
  spans.set_machine(id);
  series.set_machine(id);
  health.set_machine(id);
}

}  // namespace mkbas::obs
