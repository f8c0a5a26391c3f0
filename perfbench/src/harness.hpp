// Shared pieces of the repo benchmark: statistics, the in-memory span
// recorder, failure classification, the open-loop scheduler, host
// fingerprinting and the result record every workload fills in.
//
// Everything here is benchmark-side code. The simulator is only ever
// called through its public headers, from the workload files.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
/// Microseconds of the steady clock since an arbitrary fixed epoch.
double now_us();

// ---- statistics -------------------------------------------------------

/// One nearest-rank percentile of a sample set. A failed operation enters
/// the samples as +infinity, so it misses every latency limit.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;       // samples, failures included
  std::size_t beyond = 0;  // samples ranked above the percentile
  /// The choosing-metrics rule: a percentile is reported as resolved
  /// only with at least ten samples beyond it.
  bool resolved() const { return beyond >= 10; }
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`. Empty input
/// gives value 0 with n == 0.
Percentile percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

// ---- failure classification ------------------------------------------

/// What one HTTP exchange with the daemon amounted to. A verdict inside
/// a served bundle (exit_code 1: Linux physically compromised, or a
/// fault loop that never recovers) is the experiment's answer, not a
/// failure; only the transport, the status line and "status":"failed"
/// decide.
enum class HttpOutcome { kOk, kTransportError, kBadStatus, kCellFailed };

HttpOutcome classify_http(bool transport_ok, int status,
                          const std::string& body);
const char* to_string(HttpOutcome o);

// ---- open-loop scheduling --------------------------------------------

/// Due-time accounting for an open-loop generator: every event has a
/// time at which it was due to be sent, the generator sends it as soon
/// as it can at or after that time, and its latency runs from the due
/// time — so a stall delays (and is charged to) every event behind it.
///
/// The clock and the sleep are injected so the self-test can drive the
/// scheduler with a virtual clock and an injected stall.
class OpenLoop {
 public:
  struct Event {
    double due_us = 0.0;
    int stream = 0;
    std::uint64_t index = 0;
  };
  /// Returns the completion time (microseconds, same clock) of the
  /// event it was handed; the loop records the lateness itself.
  using Send = std::function<double(const Event&, double send_us)>;

  OpenLoop(std::function<double()> now_us,
           std::function<void(double)> sleep_until_us)
      : now_(std::move(now_us)), sleep_until_(std::move(sleep_until_us)) {}

  void schedule(const Event& e) { heap_.push(e); }
  bool empty() const { return heap_.empty(); }
  double next_due() const { return heap_.top().due_us; }

  /// Pop the earliest-due event, wait for its due time, send it.
  /// Returns the event's latency from due time to completion.
  double step(const Send& send);

  /// Send time minus due time of every event sent so far.
  const std::vector<double>& lateness_us() const { return late_; }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.due_us != b.due_us) return a.due_us > b.due_us;
      if (a.stream != b.stream) return a.stream > b.stream;
      return a.index > b.index;
    }
  };
  std::function<double()> now_;
  std::function<void(double)> sleep_until_;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::vector<double> late_;
};

/// Sleep until `due_us` on the real clock: a coarse sleep, then a short
/// spin, so the generator is not late by a whole scheduler tick.
void sleep_until_us(double due_us);

// ---- spans ------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are kept until exit
/// and written as Chrome trace-event JSON, the format the repo's own
/// trace exports use, so Perfetto opens them side by side. Only the
/// benchmark's driving thread records.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Record one complete span. `id` groups the spans of one request
  /// (the cell key for HTTP traffic); `parent` names the enclosing span.
  void add(const std::string& name, const std::string& lane, double start_us,
           double end_us, const std::string& id = "",
           const std::string& parent = "");
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace JSON with one thread track per lane. `metadata` is a
  /// JSON object rendered verbatim into the top-level "metadata" key.
  std::string to_json(const std::string& metadata) const;

 private:
  struct Span {
    std::string name, lane, id, parent;
    double start_us = 0.0, end_us = 0.0;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer; records only when the log is
/// enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string lane,
             std::string id = "", std::string parent = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::string name_, lane_, id_, parent_;
  double start_us_ = 0.0;
};

// ---- host and results -------------------------------------------------

/// Run hygiene: what every result carries about where it was measured.
std::string host_json(std::uint64_t seed, const std::string& workload);
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One per-layer ledger row: the value, the count it is based on, the
/// end-to-end metric it should move and the workload it moves it on.
struct LayerRow {
  std::string name;
  double value = 0.0;
  std::string unit;
  double base = 0.0;        // base count (0 = none)
  std::string base_what;    // what `base` counts
  std::string target;       // end-to-end metric it should move
  std::string workload;     // where it should move it
  double share_pct = -1.0;  // estimated share of the workload's time
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // human-readable reasons
  std::vector<std::string> notes;           // e.g. under-sampled tails
  /// Gated end-to-end metrics: the names in BENCHMARK.json, which every
  /// workload reports.
  std::map<std::string, Metric> metrics;
  /// Workload-specific names for the same measurements plus ungated
  /// diagnostics, printed by name and unit on the line before the result.
  std::map<std::string, Metric> named;
  /// Workload-specific ledger rows (traced runs).
  std::vector<LayerRow> layers;
  /// The workload's primary end-to-end value as a lower-is-better cost;
  /// a traced run compares it against an untraced one to report
  /// bench.trace_overhead_pct.
  double cost = 0.0;

  void fail_check(const std::string& why);
  /// setup_s: the median of the set-up rounds; every round is noted.
  void set_setup(const std::vector<double>& rounds_s);
  /// Report a percentile; note it when fewer than ten samples lie beyond.
  void note_percentile(const std::string& what, const Percentile& p);
};

std::string json_number(double v);
std::string json_escape(const std::string& s);

}  // namespace perfbench
