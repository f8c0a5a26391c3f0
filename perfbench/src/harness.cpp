#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double exact = p / 100.0 * static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

HttpOutcome classify_http(bool transport_ok, int status,
                          const std::string& body) {
  if (!transport_ok) return HttpOutcome::kTransportError;
  if (status < 200 || status > 299) return HttpOutcome::kBadStatus;
  if (body.find("\"status\":\"failed\"") != std::string::npos) {
    return HttpOutcome::kCellFailed;
  }
  return HttpOutcome::kOk;
}

const char* to_string(HttpOutcome o) {
  switch (o) {
    case HttpOutcome::kOk: return "ok";
    case HttpOutcome::kTransportError: return "transport error";
    case HttpOutcome::kBadStatus: return "non-2xx status";
    case HttpOutcome::kCellFailed: return "cell failed";
  }
  return "?";
}

double OpenLoop::step(const Send& send) {
  const Event e = heap_.top();
  heap_.pop();
  if (now_() < e.due_us) sleep_until_(e.due_us);
  const double send_us = now_();
  late_.push_back(send_us - e.due_us);
  return send(e, send_us) - e.due_us;
}

void sleep_until_us(double due_us) {
  // Sleep coarsely to within ~150 us, then spin: a plain sleep overshoots
  // by a scheduler tick, which would land on every hit's latency.
  const double slack = due_us - now_us();
  if (slack > 200.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(slack - 150.0)));
  }
  while (now_us() < due_us) {
  }
}

void SpanLog::add(const std::string& name, const std::string& lane,
                  double start_us, double end_us, const std::string& id,
                  const std::string& parent) {
  if (enabled_) spans_.push_back(Span{name, lane, id, parent, start_us, end_us});
}

std::string SpanLog::to_json(const std::string& metadata) const {
  std::map<std::string, int> tids;
  for (const auto& s : spans_) tids.emplace(s.lane, 0);
  int next = 1;
  for (auto& [lane, tid] : tids) tid = next++;
  double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
  for (const auto& s : spans_) t0 = std::min(t0, s.start_us);

  std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":" + metadata +
                    ",\"traceEvents\":[";
  out += "{\"args\":{\"name\":\"perfbench\"},\"name\":\"process_name\","
         "\"ph\":\"M\",\"pid\":1,\"tid\":0}";
  for (const auto& [lane, tid] : tids) {
    out += ",{\"args\":{\"name\":\"" + json_escape(lane) +
           "\"},\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + "}";
  }
  char buf[64];
  for (const auto& s : spans_) {
    out += ",{\"args\":{";
    bool first = true;
    if (!s.id.empty()) {
      out += "\"id\":\"" + json_escape(s.id) + "\"";
      first = false;
    }
    if (!s.parent.empty()) {
      if (!first) out += ",";
      out += "\"parent\":\"" + json_escape(s.parent) + "\"";
    }
    out += "},\"cat\":\"perfbench\",\"dur\":";
    std::snprintf(buf, sizeof buf, "%.3f", s.end_us - s.start_us);
    out += buf;
    out += ",\"name\":\"" + json_escape(s.name) +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(tids[s.lane]) + ",\"ts\":";
    std::snprintf(buf, sizeof buf, "%.3f", s.start_us - t0);
    out += buf;
    out += "}";
  }
  out += "]}";
  return out;
}

ScopedSpan::ScopedSpan(SpanLog& log, std::string name, std::string lane,
                       std::string id, std::string parent)
    : log_(log),
      name_(std::move(name)),
      lane_(std::move(lane)),
      id_(std::move(id)),
      parent_(std::move(parent)),
      start_us_(log.enabled() ? now_us() : 0.0) {}

ScopedSpan::~ScopedSpan() {
  if (log_.enabled()) log_.add(name_, lane_, start_us_, now_us(), id_, parent_);
}

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        while (!v.empty() && v.front() == ' ') v.erase(v.begin());
        return v;
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string host_json(std::uint64_t seed, const std::string& workload) {
  return "{\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) +
         "\",\"compiler\":\"" + json_escape(compiler()) +
         "\",\"cpu_model\":\"" + json_escape(cpu_model()) +
         "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"seed\":" + std::to_string(seed) + ",\"workload\":\"" +
         json_escape(workload) + "\"}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::fail_check(const std::string& why) {
  correct = false;
  ++failed;
  // Keep the first reasons; a broken run can fail thousands of requests.
  if (check_failures.size() < 20) check_failures.push_back(why);
}

void RunResult::set_setup(const std::vector<double>& rounds_s) {
  metrics["setup_s"] = {median(rounds_s), "s"};
  named["setup_s"] = metrics["setup_s"];
  std::string list;
  char buf[32];
  for (const double s : rounds_s) {
    std::snprintf(buf, sizeof buf, "%s%.3f", list.empty() ? "" : " ", s);
    list += buf;
  }
  notes.push_back("set-up rounds (s): " + list);
}

void RunResult::note_percentile(const std::string& what,
                                const Percentile& p) {
  if (!p.resolved()) {
    notes.push_back(what + ": only " + std::to_string(p.beyond) +
                    " of " + std::to_string(p.n) +
                    " samples beyond (fewer than ten)");
  }
}

std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) {
    // JSON has no infinity; a failed sample set reports the largest
    // finite double so it still misses every limit.
    v = v > 0 ? std::numeric_limits<double>::max()
              : -std::numeric_limits<double>::max();
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
