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

void Telemetry::set_machine(int id) {
  spans.set_machine(id);
  series.set_machine(id);
  health.set_machine(id);
}

}  // namespace mkbas::obs
