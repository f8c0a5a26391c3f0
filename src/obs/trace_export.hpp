#pragma once

#include <string>

#include "obs/span.hpp"
#include "sim/trace.hpp"

namespace mkbas::obs {

/// Serialize a simulation trace as Chrome trace-event JSON (the "JSON Array
/// Format"), loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
///
/// Mapping:
///  * every simulated process becomes one track (trace pid == sim pid, with
///    a `process_name` metadata record taken from its `proc.spawn` event;
///    machine-level events with sim pid -1 go to track 0, "machine");
///  * ordinary events become 1us complete ("X") slices named by tag, with
///    the TraceKind as the category and detail/value in args;
///  * security *denials* (any kSecurity tag containing "deny") and all
///    kAttack events become instant ("i") events, so they stand out as
///    markers when scrubbing a long run.
///
/// Virtual time is microseconds, which is exactly the `ts` unit the format
/// expects — timestamps pass through untranslated.
std::string to_chrome_trace_json(const sim::TraceLog& log);

/// Serialize a span store as Chrome trace-event JSON with flow events.
///
/// Mapping:
///  * trace pid = machine (fabric node), tid = sim pid, so an N-zone
///    building renders as N process groups;
///  * every closed span becomes a complete ("X") slice named by its
///    span name, with trace/span/parent ids in args (abandoned spans
///    get "abandoned":true so a reincarnation gap is visible);
///  * every parent->child edge that crosses a (machine, pid) boundary
///    becomes a flow ("s" at the parent slice, "f" with bp:"e" at the
///    child), which Perfetto renders as the cross-machine arrows the
///    flow graph is about. The flow id is the child span id.
std::string to_span_trace_json(const SpanStore& spans);

}  // namespace mkbas::obs
