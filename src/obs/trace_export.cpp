#include "obs/trace_export.hpp"

#include <map>
#include <unordered_map>

#include "obs/json.hpp"

namespace mkbas::obs {

namespace {

// pid -1 (machine-level events) renders as track 0; real sim pids start
// at 1, so the tracks never collide.
int track_of(int sim_pid) { return sim_pid < 0 ? 0 : sim_pid; }

bool is_denial(const sim::TraceEvent& ev, const std::string& tag_name) {
  return ev.kind == sim::TraceKind::kSecurity &&
         tag_name.find("deny") != std::string::npos;
}

}  // namespace

std::string to_chrome_trace_json(const sim::TraceLog& log) {
  auto& tags = sim::TagRegistry::instance();

  // Track names: the machine emits "proc.spawn" with detail == process
  // name. Processes spawned before a ring buffer evicted their spawn event
  // fall back to "pid<N>".
  std::map<int, std::string> names;
  names[0] = "machine";
  std::uint32_t spawn_tag = 0;
  const bool have_spawn = tags.try_lookup("proc.spawn", &spawn_tag);
  for (const auto& ev : log.events()) {
    if (have_spawn && ev.tag == spawn_tag && ev.pid >= 0) {
      names[track_of(ev.pid)] = ev.detail;
    } else {
      names.emplace(track_of(ev.pid), "pid" + std::to_string(track_of(ev.pid)));
    }
  }

  JsonWriter w;
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const auto& [pid, name] : names) {
    if (!first) w.put(',');
    first = false;
    w.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":").num(pid)
        .raw(",\"tid\":0,\"args\":{\"name\":").str(name).raw("}}");
  }
  for (const auto& ev : log.events()) {
    if (!first) w.put(',');
    first = false;
    w.raw("{\"name\":").tag(ev.tag).raw(",\"cat\":\"")
        .raw(sim::to_string(ev.kind)).raw("\",\"ts\":").num(ev.time)
        .raw(",\"pid\":").num(track_of(ev.pid)).raw(",\"tid\":0,");
    if (is_denial(ev, tags.name(ev.tag))) {
      w.raw("\"ph\":\"i\",\"s\":\"p\",");  // process-scoped denial marker
    } else if (ev.kind == sim::TraceKind::kAttack) {
      w.raw("\"ph\":\"i\",\"s\":\"g\",");  // global attack marker
    } else {
      w.raw("\"ph\":\"X\",\"dur\":1,");
    }
    w.raw("\"args\":{\"detail\":").str(ev.detail).raw(",\"value\":")
        .general(ev.value).raw("}}");
  }
  w.raw("]}");
  return w.take();
}

std::string to_span_trace_json(const SpanStore& spans) {
  // Where each closed span ran, for the cross-machine flow arrows.
  struct Site {
    int machine;
    int pid;
    sim::Time start;
  };
  std::unordered_map<std::uint64_t, Site> sites;
  for (const Span& s : spans.spans()) {
    sites.emplace(s.span_id, Site{s.machine, s.pid, s.start});
  }

  JsonWriter w;
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans.spans()) {
    if (!first) w.put(',');
    first = false;
    const sim::Duration dur = s.end > s.start ? s.end - s.start : 1;
    w.raw("{\"name\":").tag(s.name)
        .raw(",\"cat\":\"span\",\"ph\":\"X\",\"ts\":").num(s.start)
        .raw(",\"dur\":").num(dur).raw(",\"pid\":").num(s.machine)
        .raw(",\"tid\":").num(s.pid < 0 ? 0 : s.pid)
        .raw(",\"args\":{\"trace\":\"").hex(s.trace_id)
        .raw("\",\"span\":\"").hex(s.span_id)
        .raw("\",\"parent\":\"").hex(s.parent_span).put('"');
    if (s.abandoned) w.raw(",\"abandoned\":true");
    if (s.note != 0) w.raw(",\"note\":").tag(s.note);
    w.raw("}}");

    // Arrow from the parent's slice when the edge crosses a machine or
    // process boundary — intra-process nesting is visible as-is.
    auto it = sites.find(s.parent_span);
    if (it != sites.end() &&
        (it->second.machine != s.machine || it->second.pid != s.pid)) {
      const Site& from = it->second;
      w.raw(",{\"name\":").tag(s.name)
          .raw(",\"cat\":\"flow\",\"ph\":\"s\",\"id\":\"").hex(s.span_id)
          .raw("\",\"ts\":").num(from.start).raw(",\"pid\":")
          .num(from.machine).raw(",\"tid\":").num(from.pid < 0 ? 0 : from.pid)
          .raw("},{\"name\":").tag(s.name)
          .raw(",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"")
          .hex(s.span_id).raw("\",\"ts\":").num(s.start)
          .raw(",\"pid\":").num(s.machine)
          .raw(",\"tid\":").num(s.pid < 0 ? 0 : s.pid).put('}');
    }
  }
  w.raw("]}");
  return w.take();
}

}  // namespace mkbas::obs
