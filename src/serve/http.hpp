#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mkbas::serve {

/// Host wall-clock in microseconds since process start (steady clock).
/// The serve-plane tracer timestamps spans with this; it is the one
/// clock in the repo that is deliberately NOT virtual time, and its
/// readings must never leak into deterministic artifacts.
std::uint64_t host_us();

/// One parsed HTTP/1.1 request, as the epoll loop hands it to the
/// daemon. Header names are lower-cased; `client` identifies the
/// submitter for queue fairness (X-Client header when present, else the
/// peer address) — two connections sending the same X-Client share one
/// fairness queue.
struct HttpRequest {
  std::string method;  // "GET", "POST"
  std::string path;    // "/run" — target up to '?'
  std::string query;   // after '?', no decoding ("artifact=metrics")
  std::map<std::string, std::string> headers;
  std::string body;
  std::string client;
  /// host_us() when the first byte of this request was seen / when the
  /// parse completed — the ingress and parse span boundaries. Zero when
  /// the request was hand-built (in-process handle() tests).
  std::uint64_t ingress_us = 0;
  std::uint64_t parsed_us = 0;

  /// Header by lower-case name; nullptr when absent.
  const std::string* header(const std::string& name) const;
  /// First "key=value" match in the query string; "" when absent.
  std::string query_param(const std::string& key) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Streaming response (SSE): headers go out without Content-Length,
  /// `body` is the initial frame, and the connection stays open as a
  /// push channel fed by HttpServer::stream_write until the peer
  /// disconnects. The server assigns a stream id and reports it via the
  /// stream-open hook.
  bool stream = false;
  /// Non-zero: the flush observer is invoked with this token once the
  /// response bytes have fully left the socket buffer (the flush span
  /// boundary for request tracing).
  std::uint64_t trace_token = 0;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Minimal epoll HTTP/1.1 server, loopback only.
///
/// One event-loop thread, level-triggered epoll, nonblocking sockets.
/// Keep-alive is the default (HTTP/1.1 semantics; "Connection: close"
/// honoured); pipelined requests on one connection are served in order.
/// Malformed requests get a clean 400 and a close — never a silent
/// hang. The handler runs on the loop thread — it must be quick (cache
/// lookup, enqueue) or deliberately synchronous (replay); heavy
/// execution belongs on the daemon's executor thread.
///
/// Streaming: a handler returning `stream = true` turns its connection
/// into a bounded push channel. Any thread may then append frames with
/// stream_write(); the loop thread drains them into the socket. A full
/// per-stream buffer makes stream_write return false (the caller drops
/// with accounting) — a slow consumer can never block a producer.
class HttpServer {
 public:
  using StreamOpenFn = std::function<void(std::uint64_t stream_id,
                                          const HttpRequest& req)>;
  using StreamCloseFn = std::function<void(std::uint64_t stream_id)>;
  using FlushObserverFn =
      std::function<void(std::uint64_t trace_token, std::uint64_t now_us)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Stream lifecycle hooks, invoked on the loop thread. Set before
  /// start().
  void set_stream_hooks(StreamOpenFn on_open, StreamCloseFn on_close) {
    on_stream_open_ = std::move(on_open);
    on_stream_close_ = std::move(on_close);
  }
  /// Flush-completion hook for trace_token responses, invoked on the
  /// loop thread (also on connection teardown, so every token is
  /// reported exactly once). Set before start().
  void set_flush_observer(FlushObserverFn fn) {
    flush_observer_ = std::move(fn);
  }

  /// Bind 127.0.0.1:`port` (0 = any free port) and start the loop
  /// thread. False + *err on bind/listen failure.
  bool start(int port, HttpHandler handler, std::string* err);

  /// The actually-bound port (useful after start(0, ...)).
  int port() const { return port_; }

  /// The CPU the loop thread last woke on (-1 before it first runs).
  int loop_cpu() const { return loop_cpu_.load(std::memory_order_relaxed); }

  /// Wake the loop, close every connection, join the thread. Idempotent.
  void stop();

  /// Append `data` to stream `stream_id`'s outbound buffer (any
  /// thread). False when the stream is gone or appending would push the
  /// unsent backlog past `max_buffered` — the frame is dropped, the
  /// caller accounts for it.
  bool stream_write(std::uint64_t stream_id, const std::string& data,
                    std::size_t max_buffered);

 private:
  struct Conn {
    int fd = -1;
    std::string in;    // bytes read, not yet parsed
    std::string out;   // response bytes not yet written
    std::string peer;  // "ip:port"
    bool close_after_write = false;
    bool streaming = false;       // SSE channel; inbound bytes ignored
    std::uint64_t stream_id = 0;  // valid iff streaming
    std::uint64_t ingress_us = 0;  // first byte of the request being read
    std::uint64_t sent_total = 0;  // bytes ever written to the socket
    /// (trace_token, total bytes queued when the response was rendered):
    /// the token's response has fully flushed once sent_total reaches
    /// the offset.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tokens;
  };

  /// Outbound frames queued by stream_write, drained by the loop.
  struct StreamBuf {
    int fd = -1;
    std::string pending;
  };

  void loop();
  /// Parse-and-handle every complete request in c->in. False: the
  /// connection must close (400 already queued on protocol errors).
  bool drain_requests(Conn* c);
  void flush(Conn* c);
  void drain_streams();
  void close_conn(int fd);

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: stop() and stream_write wake the loop
  int port_ = 0;
  HttpHandler handler_;
  StreamOpenFn on_stream_open_;
  StreamCloseFn on_stream_close_;
  FlushObserverFn flush_observer_;
  std::thread thread_;
  std::map<int, Conn> conns_;
  bool running_ = false;

  std::mutex stream_mu_;
  std::map<std::uint64_t, StreamBuf> streams_;
  std::uint64_t next_stream_id_ = 1;
  bool streams_closed_ = false;  // stop() in progress: refuse writes
  std::atomic<bool> wake_armed_{false};
  /// Loop-thread stream_writes (request handlers publishing SSE frames)
  /// skip the eventfd and set this instead: the loop coalesces frames
  /// and drains streams at most once per kStreamTickUs, so a chatty
  /// event stream costs a few hundred sends per second, not one
  /// subscriber wakeup per frame. A backlog past kStreamBurstBytes
  /// forces an immediate drain instead of waiting out the tick.
  std::atomic<bool> local_stream_pending_{false};
  std::atomic<std::thread::id> loop_tid_{};
  std::atomic<int> loop_cpu_{-1};
  std::uint64_t last_stream_drain_us_ = 0;  // loop thread only
  static constexpr std::uint64_t kStreamTickUs = 2000;
  static constexpr std::size_t kStreamBurstBytes = 64 * 1024;
};

}  // namespace mkbas::serve
