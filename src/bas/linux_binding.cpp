#include "bas/linux_binding.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace mkbas::bas {

using linuxsim::Errno;
using linuxsim::Mode;
using linuxsim::MqMessage;
using linuxsim::Uid;

namespace {

constexpr Uid kSharedUid = 1000;

/// The text layout of each flow on Linux: the keys of the request's and of
/// the reply's fields, ';'-separated. A request without fields is its
/// bare key; a call without reply keys gets no reply on the wire.
struct TextLayout {
  const char* port;
  const char* request;
  const char* reply;
};

const TextLayout& text_of(const std::string& port) {
  static constexpr TextLayout kText[] = {
      {"sensorOut", "temp", ""},
      {"heaterCmd", "cmd", ""},
      {"alarmCmd", "cmd", ""},
      {"setpointOut", "setpoint", ""},
      {"envQuery", "envreq", "temp;sp;heater;alarm"},
  };
  for (const TextLayout& t : kText) {
    if (port == t.port) return t;
  }
  throw std::logic_error("no Linux text layout for port " + port);
}

/// "key=value" per field (f64 as %.3f, i32 as %d), ';'-joined.
std::string encode(const char* keys, const char* fields, const Payload& msg) {
  if (*fields == '\0') return keys;
  char buf[128];
  std::size_t n = 0;
  for (int i = 0; fields[i] != '\0' && n < sizeof buf; ++i) {
    const int len = static_cast<int>(std::strcspn(keys, ";"));
    const char* sep = i == 0 ? "" : ";";
    n += static_cast<std::size_t>(
        fields[i] == 'f'
            ? std::snprintf(buf + n, sizeof buf - n, "%s%.*s=%.3f", sep, len,
                            keys, msg.f64(i))
            : std::snprintf(buf + n, sizeof buf - n, "%s%.*s=%d", sep, len,
                            keys, msg.i32(i)));
    keys += len + (keys[len] == ';' ? 1 : 0);
  }
  return std::string(buf, std::min(n, sizeof buf - 1));
}

/// Finds each "key=" anywhere in `text` and parses the number after it.
bool decode(const std::string& text, const char* keys, const char* fields,
            Payload* out) {
  *out = Payload{};
  for (int i = 0; fields[i] != '\0'; ++i) {
    const int klen = static_cast<int>(std::strcspn(keys, ";"));
    char key[32];
    const int len = std::snprintf(key, sizeof key, "%.*s=", klen, keys);
    keys += klen + (keys[klen] == ';' ? 1 : 0);
    const auto pos = text.find(key, 0, static_cast<std::size_t>(len));
    if (pos == std::string::npos) return false;
    const char* start = text.c_str() + pos + len;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    out->push(v);
  }
  return true;
}

/// What the queue and socket ports share: every flow travels as text.
class TextPorts : public Ports {
 protected:
  TextPorts(const ScenarioSpec& spec, const std::string& process)
      : Ports(spec, process) {
    for (const Link& l : links_) text_.push_back(&text_of(l.conn->src_port));
  }

  const TextLayout& text(int i) const { return *text_[i]; }
  std::string request_text(int i, const Payload& msg) const {
    return encode(text(i).request, links_[i].flow->request, msg);
  }
  bool parse_request(int i, const std::string& s, Payload* msg) const {
    return decode(s, text(i).request, links_[i].flow->request, msg);
  }
  /// Calls without reply keys get no reply on the wire.
  bool answered(int i) const { return *text(i).reply != '\0'; }
  std::string reply_text(int i, const Payload& msg) const {
    return encode(text(i).reply, links_[i].flow->reply, msg);
  }

  /// The reply to a call on `out`, polled 30 times 100 ms apart (it
  /// arrives after the controller's next loop iteration).
  template <class Receive>
  bool poll_reply(sim::Machine& m, Port out, Payload* reply,
                  Receive receive) const {
    for (int tries = 0; tries < 30; ++tries) {
      std::string s;
      const Errno r = receive(&s);
      if (r == Errno::kOk) {
        return decode(s, text(out).reply, links_[out].flow->reply, reply);
      }
      if (r != Errno::kEAGAIN) return false;
      m.sleep_for(sim::msec(100));
    }
    return false;
  }

 private:
  std::vector<const TextLayout*> text_;  // by link
};

}  // namespace

// ---- shared ----

LinuxBinding::LinuxBinding(sim::Machine& machine, const ScenarioSpec& spec,
                           Accounts accounts)
    : machine_(machine),
      spec_(spec),
      accounts_(accounts),
      kernel_(std::make_unique<linuxsim::LinuxKernel>(machine)) {}

void LinuxBinding::boot(std::function<void()> setup,
                        std::vector<const ProcessSpec*> order,
                        std::function<void(const ProcessSpec&)> run) {
  const Uid uid =
      accounts_ == Accounts::kShared ? kSharedUid : linuxsim::kRootUid;
  kernel_->spawn_process("scenario", uid, [this, setup, order, run] {
    setup();
    for (const ProcessSpec* proc : order) {
      kernel_->spawn_process(proc->name, uid_of(proc->name),
                             [run, proc] { run(*proc); }, proc->priority);
    }
    kernel_->sys_exit(0);
  }, /*priority=*/3);
}

Uid LinuxBinding::uid_of(const std::string& instance) const {
  const auto& insts = spec_.system.instances;
  const auto it = std::find_if(insts.begin(), insts.end(),
                               [&](const auto& i) { return i.name == instance; });
  return accounts_ == Accounts::kShared
             ? kSharedUid
             : kSharedUid + 1 + static_cast<Uid>(it - insts.begin());
}

Mode LinuxBinding::mode_for(const std::vector<std::string>& writers,
                            const std::vector<std::string>& readers) const {
  Mode mode = Mode::rw_owner_only();
  if (accounts_ == Accounts::kSeparate) {
    mode.owner_read = mode.owner_write = false;  // no DAC use
    for (const auto& w : writers) mode.grant(uid_of(w), false, true);
    for (const auto& r : readers) mode.grant(uid_of(r), true, false);
  }
  return mode;
}

std::string LinuxBinding::encode_temp(double t) {
  return encode("temp", "f", {t});
}
std::string LinuxBinding::encode_setpoint(double sp) {
  return encode("setpoint", "f", {sp});
}
std::string LinuxBinding::encode_cmd(bool on) {
  return encode("cmd", "i", {on ? 1.0 : 0.0});
}

// ---- POSIX message queues ----

namespace {

/// The queues, in creation order: one per flow (by its source port), plus
/// the reply queue of the environment query.
struct Queue {
  const char* name;
  const char* port;
  bool reply;
};
constexpr Queue kQueues[] = {
    {MqBinding::kQSensor, "sensorOut", false},
    {MqBinding::kQSetpoint, "setpointOut", false},
    {MqBinding::kQEnvReq, "envQuery", false},
    {MqBinding::kQEnv, "envQuery", true},
    {MqBinding::kQHeater, "heaterCmd", false},
    {MqBinding::kQAlarm, "alarmCmd", false},
};

}  // namespace

class MqBinding::ProcessPorts final : public TextPorts {
 public:
  /// Runs in the process itself, at its start: opens every queue it uses
  /// (in creation order), then its log file.
  ProcessPorts(MqBinding& b, const ProcessSpec& proc)
      : TextPorts(b.spec_, proc.name),
        b_(b),
        k_(*b.kernel_),
        fd_(links_.size(), -1),
        reply_fd_(links_.size(), -1) {
    for (const Queue& q : kQueues) {
      for (std::size_t i = 0; i < links_.size(); ++i) {
        if (links_[i].conn->src_port != q.port) continue;
        (q.reply ? reply_fd_ : fd_)[i] = k_.mq_open(q.name, false);
      }
    }
    if (proc.log != nullptr) {
      log_fd_ = k_.open_file(proc.log, true, Mode::rw_owner_only());
      env_in_ = port("envIn");  // the log line uses its reply layout
    }
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (links_[i].inbound && links_[i].flow->kind != FlowKind::kCall) {
        block_ = static_cast<int>(i);
      }
    }
  }

  /// A process cannot run without the queues of its one-way flows.
  bool ready() const {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (links_[i].flow->kind != FlowKind::kCall && fd_[i] < 0) return false;
    }
    return true;
  }

  void send(Port out, const Payload& msg) override {
    // Non-blocking, like the other platforms: stale samples are dropped.
    k_.mq_send(fd_[out], {request_text(out, msg), 0}, false);
  }

  bool call(Port out, const Payload& request, Payload* reply) override {
    if (fd_[out] < 0 || (answered(out) && reply_fd_[out] < 0) ||
        k_.mq_send(fd_[out], {request_text(out, request), 0}, false) !=
            Errno::kOk) {
      return false;
    }
    if (!answered(out)) {
      *reply = {1};
      return true;
    }
    return poll_reply(b_.machine_, out, reply, [&](std::string* s) {
      MqMessage m;
      const Errno r = k_.mq_receive(reply_fd_[out], m, false);
      *s = m.data;
      return r;
    });
  }

  bool await(Port* in, Payload* msg) override {
    for (;;) {
      if (phase_ == 0) {
        // The paper's loop: wait for new data on the one-way input ...
        MqMessage m;
        if (k_.mq_receive(fd_[block_], m) != Errno::kOk) return false;
        phase_ = 1;
        if (parse_request(block_, m.data, msg)) return take(block_, in);
      }
      // ... then drain the call inputs without blocking ...
      for (; phase_ <= static_cast<int>(links_.size()); ++phase_) {
        const int i = phase_ - 1;
        if (!links_[i].inbound || links_[i].flow->kind != FlowKind::kCall) {
          continue;
        }
        MqMessage m;
        while (fd_[i] >= 0 && k_.mq_receive(fd_[i], m, false) == Errno::kOk) {
          if (parse_request(i, m.data, msg)) return take(i, in);
        }
      }
      // ... and write the environment to the log file.
      if (log_fd_ >= 0) {
        k_.write_file(log_fd_, "t=" + std::to_string(b_.machine_.now()) +
                                   " " + reply_text(env_in_, env_) +
                                   "\n");
      }
      phase_ = 0;
    }
  }

  void reply(const Payload& msg) override {
    if (current_ >= 0 && reply_fd_[current_] >= 0) {
      k_.mq_send(reply_fd_[current_], {reply_text(current_, msg), 0}, false);
    }
  }

  void log(const Payload& env) override { env_ = env; }

 private:
  bool take(int i, Port* in) {
    current_ = *in = i;
    return true;
  }

  MqBinding& b_;
  linuxsim::LinuxKernel& k_;
  std::vector<int> fd_;        // each flow's queue
  std::vector<int> reply_fd_;  // and its reply queue, if it has one
  int block_ = -1;  // the one-way input
  int phase_ = 0;   // 0: block on it; k: drain links_[k-1]
  int log_fd_ = -1;
  int env_in_ = -1;
  Payload env_;
};

MqBinding::MqBinding(sim::Machine& machine, const ScenarioSpec& spec,
                     Accounts accounts)
    : LinuxBinding(machine, spec, accounts) {
  std::vector<const ProcessSpec*> order;
  for (const ProcessSpec& proc : spec.processes) order.push_back(&proc);
  // "The scenario process in Linux spawns all other processes and creates
  // 6 message queues that are needed for various communications."
  auto create_queues = [this] {
    for (const Queue& q : kQueues) {
      const auto& conns = spec_.system.connections;
      const auto c = std::find_if(conns.begin(), conns.end(),
                                  [&q](auto& conn) { return conn.src_port == q.port; });
      const int fd = kernel_->mq_open(
          q.name, /*create=*/true,
          q.reply ? mode_for({c->dst}, {c->src}) : mode_for({c->src}, {c->dst}));
      if (fd >= 0) kernel_->mq_close(fd);
    }
  };
  boot(create_queues, order, [this](const ProcessSpec& proc) {
    ProcessPorts io(*this, proc);
    if (io.ready()) proc.body(io);
  });
}

// ---- Unix domain sockets ----

namespace {

struct Service {
  const char* instance;
  const char* fs_path;
  const char* abstract_name;
};

const Service& service_of(const std::string& instance) {
  static constexpr Service kServices[] = {
      {"tempProc", UdsBinding::kCtlSock, UdsBinding::kCtlAbstract},
      {"heaterActProc", UdsBinding::kHeaterSock, UdsBinding::kHeaterAbstract},
      {"alarmProc", UdsBinding::kAlarmSock, UdsBinding::kAlarmAbstract},
  };
  for (const Service& s : kServices) {
    if (instance == s.instance) return s;
  }
  throw std::logic_error("no socket service for " + instance);
}

}  // namespace

class UdsBinding::ProcessPorts final : public TextPorts {
 public:
  /// Runs in the process itself, at its start: a server binds its own
  /// socket (admitting, with separate accounts, exactly its clients), then
  /// the process connects to each distinct peer of its out-ports.
  ProcessPorts(UdsBinding& b, const ProcessSpec& proc)
      : TextPorts(b.spec_, proc.name), b_(b), k_(*b.kernel_) {
    std::vector<std::string> clients;
    for (const Link& l : links_) {
      auto& peers = l.inbound ? clients : peers_;
      const auto it = std::find(peers.begin(), peers.end(), l.peer());
      conn_of_.push_back(static_cast<int>(it - peers.begin()));
      if (it == peers.end()) peers.push_back(l.peer());
    }
    // connect requires write permission on the socket
    if (!clients.empty()) server_ = b.bind_service(proc.name, b.mode_for(clients, {}));
    for (const auto& peer : peers_) conn_.push_back(b.connect_retry(peer, 50));
  }

  void send(Port out, const Payload& msg) override {
    const int c = conn_of_[out];
    const std::string wire = request_text(out, msg);
    if (links_[out].flow->kind == FlowKind::kSample) {
      if (conn_[c] >= 0 && k_.sock_send(conn_[c], wire, false) == Errno::kEPIPE) {
        k_.sock_close(conn_[c]);
        conn_[c] = -1;
      }
      if (conn_[c] < 0) conn_[c] = b_.connect_retry(peers_[c], 2);
    } else if (conn_[c] >= 0 &&
               k_.sock_send(conn_[c], wire, false) == Errno::kEPIPE) {
      k_.sock_close(conn_[c]);
      conn_[c] = b_.connect_retry(peers_[c], 3);
    }
  }

  bool call(Port out, const Payload& request, Payload* reply) override {
    const int fd = conn_[conn_of_[out]];
    if (fd < 0 ||
        k_.sock_send(fd, request_text(out, request), false) != Errno::kOk) {
      return false;
    }
    if (!answered(out)) {
      *reply = {1};
      return true;
    }
    return poll_reply(b_.machine_, out, reply, [&](std::string* s) {
      return k_.sock_recv(fd, s, false);
    });
  }

  bool await(Port* in, Payload* msg) override {
    for (;;) {
      // Multiplex: accept any new client, then poll every open
      // connection. Like any Unix service daemon, the server serves
      // whoever managed to connect — the permission check happened (or
      // didn't) at connect time, and nothing authenticates what a client
      // sends (SO_PEERCRED exists but, as in the apps of [10], nobody
      // calls it — and with a shared account it would not help anyway).
      if (pos_ < 0) {
        const int fresh = k_.sock_accept(server_, /*blocking=*/false);
        if (fresh >= 0) clients_.push_back(fresh);
        pos_ = 0;
      }
      while (pos_ < static_cast<int>(clients_.size())) {
        const int fd = clients_[pos_];
        std::string wire;
        const Errno r = k_.sock_recv(fd, &wire, /*blocking=*/false);
        if (r == Errno::kEOF || r == Errno::kEBADF) {
          k_.sock_close(fd);
          clients_.erase(clients_.begin() + pos_);
          continue;
        }
        ++pos_;
        if (r == Errno::kOk && demux(wire, in, msg)) {
          from_ = fd;
          return true;
        }
      }
      pos_ = -1;
      b_.machine_.sleep_for(sim::msec(50));
    }
  }

  void reply(const Payload& msg) override {
    if (current_ >= 0 && answered(current_)) {
      k_.sock_send(from_, reply_text(current_, msg), false);
    }
  }

  void refresh() override {
    for (std::size_t c = 0; c < peers_.size(); ++c) {
      if (conn_[c] < 0) conn_[c] = b_.connect_retry(peers_[c], 2);
    }
  }

 private:
  /// One server socket carries every in-port: the text says which (a
  /// request without fields must be exactly its key).
  bool demux(const std::string& s, Port* in, Payload* msg) {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (!links_[i].inbound) continue;
      if (*links_[i].flow->request == '\0' ? s == text(i).request
                                            : parse_request(i, s, msg)) {
        current_ = *in = static_cast<Port>(i);
        return true;
      }
    }
    return false;
  }

  UdsBinding& b_;
  linuxsim::LinuxKernel& k_;
  std::vector<std::string> peers_;  // distinct out-port peers, model order
  std::vector<int> conn_;           // one connection per peer
  std::vector<int> conn_of_;        // by out link: its peer's index
  int server_ = -1;
  std::vector<int> clients_;
  int pos_ = -1;  // next client to poll; -1: start a new pass
  int from_ = -1;
};

UdsBinding::UdsBinding(sim::Machine& machine, const ScenarioSpec& spec,
                       Accounts accounts, Namespace ns)
    : LinuxBinding(machine, spec, accounts), ns_(ns) {
  // Pure servers first so their clients find the names, then the rest.
  std::vector<const ProcessSpec*> order;
  for (const ProcessSpec& proc : spec.processes) order.push_back(&proc);
  std::stable_partition(order.begin(), order.end(), [&spec](auto* proc) {
    return std::none_of(
        spec.system.connections.begin(), spec.system.connections.end(),
        [proc](const auto& c) { return c.src == proc->name; });
  });
  boot([] {}, order, [this](const ProcessSpec& proc) {
    ProcessPorts io(*this, proc);
    proc.body(io);
  });
}

int UdsBinding::bind_service(const std::string& instance, Mode mode) {
  const Service& svc = service_of(instance);
  for (;;) {
    const int s = kernel_->sock_socket();
    const Errno r = ns_ == Namespace::kFilesystem
                        ? kernel_->sock_bind(s, svc.fs_path, mode)
                        : kernel_->sock_bind_abstract(s, svc.abstract_name);
    if (r == Errno::kOk) {
      kernel_->sock_listen(s, 8);
      return s;
    }
    // Name still held (e.g. by a dying predecessor — or a squatter).
    kernel_->sock_close(s);
    machine_.sleep_for(sim::msec(200));
  }
}

int UdsBinding::connect_service(const char* fs_path,
                                const char* abstract_name) {
  return ns_ == Namespace::kFilesystem
             ? kernel_->sock_connect(fs_path)
             : kernel_->sock_connect_abstract(abstract_name);
}

int UdsBinding::connect_retry(const std::string& instance, int tries) {
  const Service& svc = service_of(instance);
  for (int i = 0; i < tries; ++i) {
    const int fd = connect_service(svc.fs_path, svc.abstract_name);
    if (fd >= 0) return fd;
    machine_.sleep_for(sim::msec(100));
  }
  return -1;
}

}  // namespace mkbas::bas
