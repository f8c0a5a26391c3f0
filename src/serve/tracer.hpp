#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/health.hpp"
#include "obs/span.hpp"

namespace mkbas::serve {

/// Host-time request tracer for the serve plane, built on the same
/// obs::SpanStore the simulator uses — but with host_us() timestamps
/// instead of virtual time, which is why its output is exported only
/// through the non-deterministic endpoints (GET /trace, GET /flight)
/// and never enters a cached bundle.
///
/// Every HTTP request becomes one span chain:
///
///   serve.req.<route>                 (root: ingress -> flush end)
///     serve.parse                     (ingress -> parse complete)
///     serve.lookup                    (store submit/lookup window)
///     serve.serialize                 (response body rendering)
///     serve.flush                     (queued -> bytes left the socket)
///
/// and a queued /run additionally opens, under the SAME trace id:
///
///   serve.queue_wait                  (enqueue -> executor pickup)
///   serve.execute                     (pool execution wall time)
///
/// The trace id IS the cell key, so a /run, its execution, and every
/// later /result hit for that cell join one trace — the correlation the
/// ISSUE calls for. Requests without a cell key (/status, /metrics, ...)
/// mint fresh trace ids.
///
/// The SpanStore is not thread-safe; every entry point here locks one
/// mutex (HTTP loop thread + executor + scrapers contend only briefly).
/// Lineage grows per span minted, so the store is rotated out wholesale
/// every kEpochSpans spans — cumulative counters survive rotation, the
/// Perfetto export covers the current epoch.
class ServeTracer {
 public:
  /// Closed-span ring per epoch; lineage is bounded by the epoch swap.
  static constexpr std::size_t kRingSpans = 8192;
  static constexpr std::uint64_t kEpochSpans = 1 << 18;

  ServeTracer();
  ServeTracer(const ServeTracer&) = delete;
  ServeTracer& operator=(const ServeTracer&) = delete;

  void set_enabled(bool on);
  bool enabled() const { return enabled_; }
  /// Slow-request threshold in host microseconds (0 fires on every
  /// request — the forensics tests use that).
  void set_slow_us(std::uint64_t us) { slow_us_ = us; }
  std::uint64_t slow_us() const { return slow_us_; }

  /// Per-request stage boundaries, host_us(). Zeros are tolerated
  /// (in-process handle() has no socket timestamps): a missing ingress
  /// falls back to the first known timestamp.
  struct RequestTimes {
    std::uint64_t ingress_us = 0;
    std::uint64_t parsed_us = 0;
    std::uint64_t lookup_start_us = 0;
    std::uint64_t lookup_end_us = 0;
    std::uint64_t serialize_start_us = 0;
    std::uint64_t serialize_end_us = 0;
  };

  /// Record one request's chain retrospectively (all stages already
  /// timed). With expect_flush the root stays open and the returned
  /// token must be fed to flush_done() exactly once; without it the
  /// root closes at serialize end and 0 is returned.
  std::uint64_t record_request(const std::string& route,
                               std::uint64_t cell_key, const RequestTimes& t,
                               bool expect_flush);
  /// Close the flush span + root for `token` (from the HTTP flush
  /// observer). `route` forensics fire here when the ingress-to-flush
  /// total crosses the slow threshold.
  void flush_done(std::uint64_t token, std::uint64_t now_us);

  /// Queue-wait and execution spans for a queued cell, joined to the
  /// cell's trace.
  void queue_enter(std::uint64_t cell_key, std::uint64_t now_us);
  void queue_exit(std::uint64_t cell_key, std::uint64_t now_us);
  void execute_begin(std::uint64_t cell_key, std::uint64_t now_us);
  /// Returns the execution wall time in µs (0 when tracing is off or
  /// the begin was lost to a rotation).
  std::uint64_t execute_end(std::uint64_t cell_key, std::uint64_t now_us,
                            bool failed);

  /// Manual forensics trigger (store state snapshot rides in `detail`).
  void snapshot_slow(std::uint64_t now_us, const std::string& reason,
                     const std::string& detail);

  /// Perfetto JSON of the current epoch's closed spans (GET /trace).
  std::string trace_json() const;
  /// Flight-recorder dump (GET /flight).
  std::string flight_json() const;
  /// Copy of the current epoch's span store, for test assertions.
  obs::SpanStore snapshot() const;

  std::uint64_t requests_recorded() const;
  std::uint64_t slow_triggers() const;
  std::uint64_t rotations() const;
  std::size_t open_flushes() const;

 private:
  void maybe_rotate_locked();
  void slow_locked(std::uint64_t now_us, const std::string& reason,
                   const std::string& detail);

  struct PendingFlush {
    std::uint64_t root_id = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t ingress_us = 0;
    std::uint64_t serialize_end_us = 0;
    std::uint32_t route = 0;  // interned, for the slow-detail JSON
  };
  struct PendingCell {
    std::uint64_t queue_span = 0;
    std::uint64_t exec_span = 0;
    std::uint64_t exec_start_us = 0;
  };

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::uint64_t slow_us_ = 250 * 1000;  // --slow-ms default: 250 ms
  obs::SpanStore spans_;
  obs::FlightRecorder flight_;
  std::map<std::uint64_t, PendingFlush> flushes_;  // token -> open root
  std::map<std::uint64_t, PendingCell> cells_;     // cell key -> queue state
  /// route -> interned "serve.req.<route>": the handful of routes are
  /// resolved once instead of paying the concat and the intern on every
  /// request.
  std::unordered_map<std::string, std::uint32_t> route_names_;
  std::uint64_t requests_ = 0;
  std::uint64_t slow_ = 0;
  std::uint64_t rotations_ = 0;

  // Interned span names (resolved once; interning takes a global lock).
  std::uint32_t n_parse_, n_lookup_, n_serialize_, n_flush_;
  std::uint32_t n_queue_wait_, n_execute_;
  std::uint32_t note_failed_;
};

}  // namespace mkbas::serve
