#include "serve/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace mkbas::serve {

std::uint64_t host_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            epoch)
          .count());
}

namespace {

/// Largest accepted request body — a canonical ExperimentRequest is a
/// few hundred bytes; anything near this is a client bug.
constexpr std::size_t kMaxBody = 1 << 20;
constexpr std::size_t kMaxHeader = 64 * 1024;

const char* reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// Parse one request if c_in holds a complete one. Returns 1 parsed,
/// 0 need more bytes, -1 protocol error. Consumed bytes are erased.
int parse_request(std::string* in, HttpRequest* req) {
  const std::size_t head_end = in->find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return in->size() > kMaxHeader ? -1 : 0;
  }
  const std::string head = in->substr(0, head_end);
  // Request line.
  const std::size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 <= sp1) return -1;
  req->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (line.compare(sp2 + 1, std::string::npos, "HTTP/1.1") != 0 &&
      line.compare(sp2 + 1, std::string::npos, "HTTP/1.0") != 0) {
    return -1;
  }
  const std::size_t q = target.find('?');
  req->path = target.substr(0, q);
  req->query = q == std::string::npos ? "" : target.substr(q + 1);
  // Headers.
  req->headers.clear();
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string h = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = h.find(':');
    if (colon == std::string::npos) return -1;
    req->headers[lower(trim(h.substr(0, colon)))] = trim(h.substr(colon + 1));
  }
  // Body.
  std::size_t body_len = 0;
  const auto it = req->headers.find("content-length");
  if (it != req->headers.end()) {
    char* end = nullptr;
    body_len = std::strtoull(it->second.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || it->second.empty() ||
        body_len > kMaxBody) {
      return -1;
    }
  }
  const std::size_t total = head_end + 4 + body_len;
  if (in->size() < total) return 0;
  req->body = in->substr(head_end + 4, body_len);
  in->erase(0, total);
  return 1;
}

std::string render(const HttpResponse& r, bool close_after) {
  std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                    reason(r.status) + "\r\nContent-Type: " + r.content_type +
                    "\r\nContent-Length: " + std::to_string(r.body.size()) +
                    "\r\n";
  if (close_after) out += "Connection: close\r\n";
  out += "\r\n";
  out += r.body;
  return out;
}

/// Streaming (SSE) header block: no Content-Length — the response body
/// is open-ended and ends when the connection does.
std::string render_stream_head(const HttpResponse& r) {
  return "HTTP/1.1 " + std::to_string(r.status) + " " + reason(r.status) +
         "\r\nContent-Type: " + r.content_type +
         "\r\nCache-Control: no-cache\r\n\r\n" + r.body;
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
  const auto it = headers.find(name);
  return it == headers.end() ? nullptr : &it->second;
}

std::string HttpRequest::query_param(const std::string& key) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (eq == std::string::npos && pair == key) return "";
    pos = amp + 1;
  }
  return "";
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(int port, HttpHandler handler, std::string* err) {
  auto fail = [&](const char* what) {
    if (err != nullptr) *err = std::string(what) + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return false;
  };

  handler_ = std::move(handler);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return fail("bind");
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) return fail("listen");
  if (!set_nonblocking(listen_fd_)) return fail("fcntl");

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  {
    std::lock_guard<std::mutex> lk(stream_mu_);
    streams_closed_ = false;
  }
  running_ = true;
  thread_ = std::thread([this] { loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_) return;
  running_ = false;
  {
    // Refuse further stream_write appends; the eventfd write below is
    // safe because writers only touch wake_fd_ under stream_mu_ while
    // streams_closed_ is still false.
    std::lock_guard<std::mutex> lk(stream_mu_);
    streams_closed_ = true;
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
  }
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lk(stream_mu_);
    streams_.clear();
  }
  for (auto& [fd, c] : conns_) ::close(fd);
  conns_.clear();
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

bool HttpServer::stream_write(std::uint64_t stream_id, const std::string& data,
                              std::size_t max_buffered) {
  std::lock_guard<std::mutex> lk(stream_mu_);
  if (streams_closed_) return false;
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) return false;
  if (it->second.pending.size() + data.size() > max_buffered) return false;
  it->second.pending += data;
  if (it->second.pending.size() <= kStreamBurstBytes &&
      std::this_thread::get_id() ==
          loop_tid_.load(std::memory_order_relaxed)) {
    // On the loop thread (a request handler publishing events) the loop
    // itself drains on its stream tick — no self-wake. A large backlog
    // falls through to the eventfd for an immediate drain.
    local_stream_pending_.store(true, std::memory_order_relaxed);
  } else if (!wake_armed_.exchange(true)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
  }
  return true;
}

void HttpServer::drain_streams() {
  std::lock_guard<std::mutex> lk(stream_mu_);
  for (auto& [id, sb] : streams_) {
    if (sb.pending.empty()) continue;
    const auto it = conns_.find(sb.fd);
    if (it == conns_.end()) {
      sb.pending.clear();
      continue;
    }
    it->second.out += sb.pending;
    sb.pending.clear();
    flush(&it->second);
  }
}

void HttpServer::flush(Conn* c) {
  while (!c->out.empty()) {
    const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c->out.erase(0, static_cast<std::size_t>(n));
      c->sent_total += static_cast<std::uint64_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Level-triggered EPOLLOUT will call us again.
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.fd = c->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      break;
    } else {
      c->close_after_write = true;
      c->out.clear();
      break;
    }
  }
  if (c->out.empty()) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
  }
  // Report every tokened response whose bytes have fully left userspace.
  if (!c->tokens.empty() && flush_observer_) {
    const std::uint64_t now = host_us();
    std::size_t kept = 0;
    for (const auto& [token, off] : c->tokens) {
      if (off <= c->sent_total) {
        flush_observer_(token, now);
      } else {
        c->tokens[kept++] = {token, off};
      }
    }
    c->tokens.resize(kept);
  }
}

void HttpServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.streaming) {
    {
      std::lock_guard<std::mutex> lk(stream_mu_);
      streams_.erase(c.stream_id);
    }
    if (on_stream_close_) on_stream_close_(c.stream_id);
  }
  // A dead connection still resolves its pending flush tokens (the
  // flush "ended" when the peer went away) so trace spans never leak.
  if (!c.tokens.empty() && flush_observer_) {
    const std::uint64_t now = host_us();
    for (const auto& [token, off] : c.tokens) flush_observer_(token, now);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

bool HttpServer::drain_requests(Conn* c) {
  for (;;) {
    if (c->ingress_us == 0) c->ingress_us = host_us();
    HttpRequest req;
    const int r = parse_request(&c->in, &req);
    if (r == 0) return true;
    if (r < 0) {
      // Protocol error: answer 400 and close — a broken client gets a
      // diagnosis, never a hang (and never a free parse of whatever
      // follows the malformed bytes).
      HttpResponse bad;
      bad.status = 400;
      bad.body = "{\"error\":\"malformed HTTP request\"}";
      c->out += render(bad, true);
      c->close_after_write = true;
      c->in.clear();
      return true;
    }
    req.ingress_us = c->ingress_us;
    c->ingress_us = 0;  // next pipelined request stamps afresh
    req.parsed_us = host_us();
    req.client = c->peer;
    if (const std::string* id = req.header("x-client")) req.client = *id;
    const std::string* conn_hdr = req.header("connection");
    const bool close_after =
        conn_hdr != nullptr && lower(*conn_hdr) == "close";
    HttpResponse resp;
    try {
      resp = handler_(req);
    } catch (const std::exception& e) {
      resp.status = 500;
      resp.body = std::string("{\"error\":\"") + e.what() + "\"}";
      resp.stream = false;
    }
    if (resp.stream) {
      // The connection becomes a push channel: headers out now, frames
      // arrive via stream_write until the peer hangs up.
      c->streaming = true;
      c->in.clear();  // pipelined bytes after an SSE subscribe are noise
      {
        std::lock_guard<std::mutex> lk(stream_mu_);
        c->stream_id = next_stream_id_++;
        StreamBuf& sb = streams_[c->stream_id];
        sb.fd = c->fd;
      }
      c->out += render_stream_head(resp);
      if (on_stream_open_) on_stream_open_(c->stream_id, req);
      return true;
    }
    c->out += render(resp, close_after);
    if (resp.trace_token != 0) {
      c->tokens.emplace_back(resp.trace_token,
                             c->sent_total + c->out.size());
    }
    if (close_after) {
      c->close_after_write = true;
      return true;
    }
  }
}

void HttpServer::loop() {
  loop_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  epoll_event events[64];
  while (running_) {
    // Coalesced stream delivery: frames queued by loop-thread handlers
    // wait out the stream tick (bounding the epoll timeout so they can
    // never starve), then go out in one send per subscriber.
    int timeout_ms = -1;
    if (local_stream_pending_.load(std::memory_order_relaxed)) {
      const std::uint64_t now = host_us();
      const std::uint64_t elapsed = now - last_stream_drain_us_;
      if (elapsed >= kStreamTickUs) {
        local_stream_pending_.store(false, std::memory_order_relaxed);
        drain_streams();
        last_stream_drain_us_ = now;
      } else {
        timeout_ms = static_cast<int>((kStreamTickUs - elapsed) / 1000) + 1;
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    loop_cpu_.store(::sched_getcpu(), std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t tok;
        [[maybe_unused]] const auto r = ::read(wake_fd_, &tok, sizeof tok);
        wake_armed_.store(false);
        if (running_) {
          // An off-thread or burst wake drains everything, including
          // coalesced loop-thread frames: restart their tick.
          local_stream_pending_.store(false, std::memory_order_relaxed);
          drain_streams();
          last_stream_drain_us_ = host_us();
        }
        continue;  // running_ checked at loop top
      }
      if (fd == listen_fd_) {
        for (;;) {
          sockaddr_in peer{};
          socklen_t plen = sizeof peer;
          const int cfd = ::accept(
              listen_fd_, reinterpret_cast<sockaddr*>(&peer), &plen);
          if (cfd < 0) break;
          set_nonblocking(cfd);
          const int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          Conn& c = conns_[cfd];
          c.fd = cfd;
          char ip[INET_ADDRSTRLEN] = "?";
          ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof ip);
          c.peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = cfd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev);
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      bool dead = false;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) dead = true;
      if (!dead && (events[i].events & EPOLLIN) != 0) {
        const bool was_empty = c.in.empty();
        char buf[16 * 1024];
        for (;;) {
          const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
          if (r > 0) {
            c.in.append(buf, static_cast<std::size_t>(r));
          } else if (r == 0) {
            dead = true;
            break;
          } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          } else {
            dead = true;
            break;
          }
        }
        if (was_empty && !c.in.empty() && c.ingress_us == 0) {
          c.ingress_us = host_us();
        }
        if (c.streaming) {
          c.in.clear();  // subscribers have nothing more to say
        } else if (!dead && !drain_requests(&c)) {
          dead = true;
        }
      }
      if (!dead && !c.out.empty()) flush(&c);
      if (dead || (c.close_after_write && c.out.empty())) close_conn(fd);
    }
  }
}

}  // namespace mkbas::serve
