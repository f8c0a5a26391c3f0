#include "linuxsim/kernel.hpp"

#include <algorithm>
#include <cassert>

namespace mkbas::linuxsim {

const char* to_string(Errno e) {
  switch (e) {
    case Errno::kOk:
      return "OK";
    case Errno::kEACCES:
      return "EACCES";
    case Errno::kEPERM:
      return "EPERM";
    case Errno::kENOENT:
      return "ENOENT";
    case Errno::kEEXIST:
      return "EEXIST";
    case Errno::kEAGAIN:
      return "EAGAIN";
    case Errno::kESRCH:
      return "ESRCH";
    case Errno::kEBADF:
      return "EBADF";
    case Errno::kEINVAL:
      return "EINVAL";
    case Errno::kECONNREFUSED:
      return "ECONNREFUSED";
    case Errno::kEPIPE:
      return "EPIPE";
    case Errno::kEOF:
      return "EOF";
  }
  return "?";
}

LinuxKernel::LinuxKernel(sim::Machine& machine) : machine_(machine) {
  auto& mx = machine_.metrics();
  met_.sc_kill = mx.counter("linux.syscall.kill");
  met_.sc_signal = mx.counter("linux.syscall.signal");
  met_.sc_spawn = mx.counter("linux.syscall.spawn");
  met_.sc_exit = mx.counter("linux.syscall.exit");
  met_.sc_setuid = mx.counter("linux.syscall.setuid");
  met_.sc_mq_open = mx.counter("linux.syscall.mq_open");
  met_.sc_mq_send = mx.counter("linux.syscall.mq_send");
  met_.sc_mq_receive = mx.counter("linux.syscall.mq_receive");
  met_.sc_sock_connect = mx.counter("linux.syscall.sock_connect");
  met_.sc_sock_accept = mx.counter("linux.syscall.sock_accept");
  met_.sc_sock_send = mx.counter("linux.syscall.sock_send");
  met_.sc_sock_recv = mx.counter("linux.syscall.sock_recv");
  met_.sc_file = mx.counter("linux.syscall.file");
  met_.perm_denied = mx.counter("linux.perm.denied");
  met_.ipc_latency = mx.log_histogram("linux.ipc.latency", 4, 1e7);
  tag_mq_span_ = sim::TagRegistry::instance().intern("linux.mq");
}

// ---- Task plumbing ----

LinuxKernel::Task& LinuxKernel::current_task() {
  // Fail loudly in all build types: calling a syscall from outside a task
  // (e.g. from a driver callback) is a harness bug, not a recoverable
  // condition.
  sim::Process* p = machine_.current();
  if (p == nullptr) {
    throw std::logic_error("Linux syscall outside process context");
  }
  const auto it = tasks_.find(p->pid());
  if (it == tasks_.end()) {
    throw std::logic_error("caller is not a Linux task");
  }
  return *it->second;
}

const LinuxKernel::Task* LinuxKernel::task_by_pid(int pid) const {
  const auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

LinuxKernel::Task* LinuxKernel::task_by_pid(int pid) {
  const auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

int LinuxKernel::do_spawn(const std::string& name, Uid uid,
                          std::function<void()> body, int priority) {
  sim::Process* proc = machine_.spawn(name, std::move(body), priority);
  if (proc == nullptr) return -1;
  auto task = std::make_unique<Task>();
  task->pid = proc->pid();
  task->name = name;
  task->uid = uid;
  task->proc = proc;
  const int pid = task->pid;
  tasks_[pid] = std::move(task);
  proc->add_exit_hook([this, pid](sim::Process&) {
    // Close descriptors and drop the task entry so waiter lists and the
    // namespace never reference a dead task.
    Task* t = task_by_pid(pid);
    if (t == nullptr) return;
    for (auto& [fd, desc] : t->fds) close_desc(desc);
    tasks_.erase(pid);
  });
  machine_.trace().emit(machine_.now(), pid, sim::TraceKind::kProcess,
                        "linux.spawn",
                        name + " uid=" + std::to_string(uid));
  return pid;
}

int LinuxKernel::spawn_process(const std::string& name, Uid uid,
                               std::function<void()> body, int priority) {
  return do_spawn(name, uid, std::move(body), priority);
}

int LinuxKernel::fork_process(const std::string& name,
                              std::function<void()> body, int priority) {
  enter_linux();
  met_.sc_spawn.inc();
  return do_spawn(name, current_task().uid, std::move(body), priority);
}

void LinuxKernel::enter_linux() {
  machine_.enter_kernel();
  deliver_pending_signals(current_task());
}

void LinuxKernel::deliver_pending_signals(Task& task) {
  if (task.delivering_signals) return;  // no nested delivery
  task.delivering_signals = true;
  while (!task.pending_signals.empty()) {
    const int sig = task.pending_signals.front();
    task.pending_signals.pop_front();
    const auto it = task.sig_handlers.find(sig);
    if (it != task.sig_handlers.end()) {
      machine_.trace().emit(machine_.now(), task.pid,
                            sim::TraceKind::kProcess, "linux.sig_handled",
                            task.name + " sig " + std::to_string(sig));
      it->second();  // runs in the target's own context
      continue;
    }
    if (sig == kSigTerm) {
      task.delivering_signals = false;
      machine_.trace().emit(machine_.now(), task.pid,
                            sim::TraceKind::kProcess, "linux.sig_default",
                            task.name + " terminated by SIGTERM");
      throw sim::ProcessExit{128 + sig};
    }
    // SIGUSR1 (and anything else) without a handler: ignored.
  }
  task.delivering_signals = false;
}

Errno LinuxKernel::sys_kill_sig(int pid, int sig) {
  enter_linux();
  met_.sc_kill.inc();
  Task& self = current_task();
  Task* target = task_by_pid(pid);
  if (target == nullptr) return Errno::kESRCH;
  // Classic Unix rule: root signals anyone; others only their own uid.
  if (self.uid != kRootUid && self.uid != target->uid) {
    met_.perm_denied.inc();
    std::string detail = self.name + " (uid " + std::to_string(self.uid) +
                         ") -> " + target->name + " (uid " +
                         std::to_string(target->uid) + ")";
    machine_.trace().emit(machine_.now(), self.pid,
                          sim::TraceKind::kSecurity, "linux.kill_deny",
                          detail);
    machine_.audit().record(machine_.now(), machine_.machine_id(), self.pid,
                            "linux.kill_deny", std::move(detail),
                            machine_.spans(),
                            machine_.spans().current(self.pid));
    return Errno::kEPERM;
  }
  if (sig == kSigKill) {
    machine_.trace().emit(machine_.now(), self.pid,
                          sim::TraceKind::kProcess, "linux.kill",
                          self.name + " kills " + target->name);
    machine_.kill(target->proc);
    return Errno::kOk;
  }
  // Catchable signal: queue it and nudge the target so blocked syscalls
  // re-check their conditions and deliver.
  target->pending_signals.push_back(sig);
  machine_.make_ready(target->proc);
  return Errno::kOk;
}

Errno LinuxKernel::install_signal_handler(int sig,
                                          std::function<void()> handler) {
  enter_linux();
  met_.sc_signal.inc();
  if (sig == kSigKill) return Errno::kEINVAL;  // SIGKILL is uncatchable
  current_task().sig_handlers[sig] = std::move(handler);
  return Errno::kOk;
}

void LinuxKernel::sys_exit(int code) {
  enter_linux();
  met_.sc_exit.inc();
  throw sim::ProcessExit{code};
}

Uid LinuxKernel::getuid() {
  enter_linux();
  return current_task().uid;
}

int LinuxKernel::getpid() {
  enter_linux();
  return current_task().pid;
}

int LinuxKernel::find_pid(const std::string& name) const {
  for (const auto& [pid, task] : tasks_) {
    if (task->name == name) return pid;
  }
  return -1;
}

bool LinuxKernel::is_alive(int pid) const { return task_by_pid(pid) != nullptr; }

Uid LinuxKernel::uid_of(int pid) const {
  const Task* t = task_by_pid(pid);
  return t == nullptr ? -1 : t->uid;
}

Errno LinuxKernel::sys_setuid(Uid uid) {
  enter_linux();
  met_.sc_setuid.inc();
  Task& self = current_task();
  if (self.uid != kRootUid) return Errno::kEPERM;
  self.uid = uid;
  return Errno::kOk;
}

void LinuxKernel::exploit_escalate_to_root() {
  enter_linux();
  Task& self = current_task();
  machine_.trace().emit(machine_.now(), self.pid, sim::TraceKind::kAttack,
                        "linux.privesc",
                        self.name + ": uid " + std::to_string(self.uid) +
                            " -> 0 (exploited)");
  self.uid = kRootUid;
}

// ---- Permission checks ----

namespace {

/// The one DAC check behind every inode: queues, files and socket nodes.
/// Root bypasses it entirely; otherwise the uid's ACL entry decides, and
/// without one the owner or other bit does.
bool dac_allows(Uid uid, Uid owner, const Mode& mode, bool write) {
  if (uid == kRootUid) return true;
  const auto acl_it = mode.acl.find(uid);
  if (acl_it != mode.acl.end()) {
    return write ? acl_it->second.second : acl_it->second.first;
  }
  if (uid == owner) return write ? mode.owner_write : mode.owner_read;
  return write ? mode.other_write : mode.other_read;
}

}  // namespace

bool LinuxKernel::may_read(const Task& t, const Node& n) const {
  return dac_allows(t.uid, n.owner, n.mode, /*write=*/false);
}

bool LinuxKernel::may_write(const Task& t, const Node& n) const {
  return dac_allows(t.uid, n.owner, n.mode, /*write=*/true);
}

LinuxKernel::FileDesc* LinuxKernel::fd_of(Task& t, int fd) {
  const auto it = t.fds.find(fd);
  return it == t.fds.end() ? nullptr : &it->second;
}

void LinuxKernel::wake_all(std::vector<sim::Process*>& waiters) {
  for (sim::Process* p : waiters) machine_.make_ready(p);
  waiters.clear();
}

// ---- Message queues ----

int LinuxKernel::mq_open(const std::string& name, bool create, Mode mode,
                         int maxmsg) {
  enter_linux();
  met_.sc_mq_open.inc();
  Task& self = current_task();
  auto it = namespace_.find(name);
  std::shared_ptr<Node> node;
  if (it == namespace_.end()) {
    if (!create) return -static_cast<int>(Errno::kENOENT);
    if (namespace_.size() >= kMaxQueues) {
      return -static_cast<int>(Errno::kEAGAIN);
    }
    node = std::make_shared<Node>();
    node->type = Node::Type::kMqueue;
    node->name = name;
    node->owner = self.uid;
    node->mode = mode;
    node->maxmsg = std::max(1, maxmsg);
    namespace_[name] = node;
  } else {
    node = it->second;
    if (node->type != Node::Type::kMqueue) {
      return -static_cast<int>(Errno::kEINVAL);
    }
    // Opening an existing queue is where the file-permission check bites.
    const bool r = may_read(self, *node);
    const bool w = may_write(self, *node);
    if (!r && !w) {
      met_.perm_denied.inc();
      std::string detail = self.name + " denied on " + name;
      machine_.trace().emit(machine_.now(), self.pid,
                            sim::TraceKind::kSecurity, "linux.mq_deny",
                            detail);
      machine_.audit().record(machine_.now(), machine_.machine_id(),
                              self.pid, "linux.mq_deny", std::move(detail),
                              machine_.spans(),
                              machine_.spans().current(self.pid));
      return -static_cast<int>(Errno::kEACCES);
    }
  }
  const int fd = self.next_fd++;
  FileDesc desc;
  desc.node = node;
  desc.readable = may_read(self, *node);
  desc.writable = may_write(self, *node);
  self.fds[fd] = desc;
  node->open_count++;
  return fd;
}

Errno LinuxKernel::mq_close(int fd) {
  enter_linux();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr) return Errno::kEBADF;
  desc->node->open_count--;
  self.fds.erase(fd);
  return Errno::kOk;
}

Errno LinuxKernel::mq_unlink(const std::string& name) {
  enter_linux();
  Task& self = current_task();
  const auto it = namespace_.find(name);
  if (it == namespace_.end()) return Errno::kENOENT;
  if (self.uid != kRootUid && self.uid != it->second->owner) {
    return Errno::kEACCES;
  }
  it->second->unlinked = true;
  namespace_.erase(it);  // open descriptors keep the node alive
  return Errno::kOk;
}

Errno LinuxKernel::mq_send(int fd, const MqMessage& msg, bool blocking) {
  enter_linux();
  met_.sc_mq_send.inc();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr) return Errno::kEBADF;
  if (!desc->writable) return Errno::kEACCES;
  std::shared_ptr<Node> node = desc->node;
  while (static_cast<int>(node->queue.size()) >= node->maxmsg) {
    if (!blocking) return Errno::kEAGAIN;
    node->send_waiters.push_back(self.proc);
    machine_.block_current("mq.send_full");
    deliver_pending_signals(self);
    // Re-validate: the fd may have been closed by a signal handler etc.
    if (fd_of(self, fd) == nullptr) return Errno::kEBADF;
  }
  MqMessage stamped = msg;
  // Fault injection: on the Linux baseline the "wire" is the queue, so the
  // filter sees (sender task, queue name). Runs after the mode checks — a
  // dropped message was still a permitted one.
  if (const auto& filt = machine_.msg_filter()) {
    const sim::MsgFaultAction act = filt(self.name, node->name);
    if (act.drop) {
      return Errno::kOk;  // swallowed in transit; sender sees success
    }
    if (act.corrupt && !stamped.data.empty()) {
      sim::corrupt_bytes(reinterpret_cast<std::uint8_t*>(stamped.data.data()),
                         stamped.data.size(), act.corrupt_seed);
    }
    if (act.delay > 0) {
      machine_.charge(act.delay);
      deliver_pending_signals(self);
      if (fd_of(self, fd) == nullptr) return Errno::kEBADF;
    }
  }
  // Insert by priority (descending), FIFO within equal priority.
  auto pos = std::find_if(
      node->queue.begin(), node->queue.end(),
      [&](const MqMessage& m) { return m.priority < msg.priority; });
  stamped.enqueued_at = machine_.now();
  {
    // The queue hop is a flow span from enqueue to dequeue; its context
    // rides in the kernel's queue entry, like enqueued_at.
    auto& spans = machine_.spans();
    stamped.span = spans.begin_flow(self.pid, machine_.now(), tag_mq_span_,
                                    spans.current(self.pid));
  }
  node->queue.insert(pos, stamped);
  machine_.trace().emit(machine_.now(), self.pid, sim::TraceKind::kIpc,
                        "mq.send", self.name + " -> " + node->name);
  wake_all(node->recv_waiters);
  return Errno::kOk;
}

Errno LinuxKernel::mq_receive(int fd, MqMessage& out, bool blocking) {
  enter_linux();
  met_.sc_mq_receive.inc();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr) return Errno::kEBADF;
  if (!desc->readable) return Errno::kEACCES;
  std::shared_ptr<Node> node = desc->node;
  while (node->queue.empty()) {
    if (!blocking) return Errno::kEAGAIN;
    node->recv_waiters.push_back(self.proc);
    machine_.block_current("mq.recv_empty");
    deliver_pending_signals(self);
    if (fd_of(self, fd) == nullptr) return Errno::kEBADF;
  }
  out = node->queue.front();
  node->queue.pop_front();
  met_.ipc_latency.record(
      static_cast<double>(machine_.now() - out.enqueued_at));
  if (out.span != 0) {
    auto& spans = machine_.spans();
    spans.set_current(self.pid, spans.context_of(out.span));
    spans.end_flow(machine_.now(), out.span);
  }
  wake_all(node->send_waiters);
  return Errno::kOk;
}

// ---- Unix domain sockets ----

void LinuxKernel::wake_conn(Connection& conn) {
  wake_all(conn.server_waiters);
  wake_all(conn.client_waiters);
}

void LinuxKernel::close_desc(FileDesc& desc) {
  if (desc.node) {
    desc.node->open_count--;
    desc.node.reset();
  }
  if (desc.listener) {
    desc.listener->closed = true;
    if (desc.listener->abstract) {
      abstract_sockets_.erase(desc.listener->name);
    } else {
      fs_sockets_.erase(desc.listener->name);
    }
    wake_all(desc.listener->accept_waiters);
    desc.listener.reset();
  }
  if (desc.conn) {
    if (desc.conn_is_server_side) {
      desc.conn->server_closed = true;
    } else {
      desc.conn->client_closed = true;
    }
    wake_conn(*desc.conn);
    desc.conn.reset();
  }
}

int LinuxKernel::sock_socket() {
  enter_linux();
  Task& self = current_task();
  const int fd = self.next_fd++;
  FileDesc desc;
  desc.is_unbound_socket = true;
  self.fds[fd] = desc;
  return fd;
}

Errno LinuxKernel::sock_bind(int fd, const std::string& path, Mode mode) {
  enter_linux();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr || !desc->is_unbound_socket) return Errno::kEBADF;
  if (fs_sockets_.count(path) != 0) return Errno::kEEXIST;
  auto lst = std::make_shared<Listener>();
  lst->name = path;
  lst->abstract = false;
  lst->owner = self.uid;
  lst->mode = mode;
  fs_sockets_[path] = lst;
  desc->listener = lst;
  desc->is_unbound_socket = false;
  return Errno::kOk;
}

Errno LinuxKernel::sock_bind_abstract(int fd, const std::string& name) {
  enter_linux();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr || !desc->is_unbound_socket) return Errno::kEBADF;
  if (abstract_sockets_.count(name) != 0) return Errno::kEEXIST;
  // NOTE: no ownership or mode is recorded — the abstract namespace has
  // no permission model. Whoever binds first owns the name.
  auto lst = std::make_shared<Listener>();
  lst->name = name;
  lst->abstract = true;
  lst->owner = self.uid;
  abstract_sockets_[name] = lst;
  desc->listener = lst;
  desc->is_unbound_socket = false;
  machine_.trace().emit(machine_.now(), self.pid,
                        sim::TraceKind::kSecurity, "uds.abstract_bind",
                        self.name + " bound @" + name +
                            " (no permission check possible)");
  return Errno::kOk;
}

Errno LinuxKernel::sock_listen(int fd, int backlog) {
  enter_linux();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr || !desc->listener) return Errno::kEBADF;
  desc->listener->listening = true;
  desc->listener->backlog = std::max(1, backlog);
  return Errno::kOk;
}

int LinuxKernel::sock_accept(int fd, bool blocking) {
  enter_linux();
  met_.sc_sock_accept.inc();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr || !desc->listener) {
    return -static_cast<int>(Errno::kEBADF);
  }
  std::shared_ptr<Listener> lst = desc->listener;
  while (lst->pending.empty()) {
    if (lst->closed) return -static_cast<int>(Errno::kEINVAL);
    if (!blocking) return -static_cast<int>(Errno::kEAGAIN);
    lst->accept_waiters.push_back(self.proc);
    machine_.block_current("uds.accept");
    deliver_pending_signals(self);
    if (fd_of(self, fd) == nullptr) return -static_cast<int>(Errno::kEBADF);
  }
  std::shared_ptr<Connection> conn = lst->pending.front();
  lst->pending.pop_front();
  conn->server_uid = self.uid;
  const int new_fd = self.next_fd++;
  FileDesc cd;
  cd.conn = conn;
  cd.conn_is_server_side = true;
  self.fds[new_fd] = cd;
  wake_conn(*conn);  // the connector may be waiting for acceptance
  return new_fd;
}

int LinuxKernel::sock_connect(const std::string& path) {
  enter_linux();
  met_.sc_sock_connect.inc();
  Task& self = current_task();
  const auto it = fs_sockets_.find(path);
  if (it == fs_sockets_.end()) return -static_cast<int>(Errno::kENOENT);
  std::shared_ptr<Listener> lst = it->second;
  // Connecting requires write permission on the socket node — the
  // protection the filesystem namespace offers (and abstract lacks).
  if (!dac_allows(self.uid, lst->owner, lst->mode, /*write=*/true)) {
    met_.perm_denied.inc();
    std::string detail = self.name + " denied on " + path;
    machine_.trace().emit(machine_.now(), self.pid,
                          sim::TraceKind::kSecurity, "uds.connect_deny",
                          detail);
    machine_.audit().record(machine_.now(), machine_.machine_id(), self.pid,
                            "uds.connect_deny", std::move(detail),
                            machine_.spans(),
                            machine_.spans().current(self.pid));
    return -static_cast<int>(Errno::kEACCES);
  }
  if (!lst->listening || lst->closed) {
    return -static_cast<int>(Errno::kECONNREFUSED);
  }
  if (static_cast<int>(lst->pending.size()) >= lst->backlog) {
    return -static_cast<int>(Errno::kECONNREFUSED);
  }
  auto conn = std::make_shared<Connection>();
  conn->client_uid = self.uid;
  lst->pending.push_back(conn);
  wake_all(lst->accept_waiters);
  const int fd = self.next_fd++;
  FileDesc cd;
  cd.conn = conn;
  cd.conn_is_server_side = false;
  self.fds[fd] = cd;
  return fd;
}

int LinuxKernel::sock_connect_abstract(const std::string& name) {
  enter_linux();
  met_.sc_sock_connect.inc();
  Task& self = current_task();
  const auto it = abstract_sockets_.find(name);
  if (it == abstract_sockets_.end()) {
    return -static_cast<int>(Errno::kENOENT);
  }
  std::shared_ptr<Listener> lst = it->second;
  // No permission check of any kind: this is the namespace's hazard.
  if (!lst->listening || lst->closed) {
    return -static_cast<int>(Errno::kECONNREFUSED);
  }
  if (static_cast<int>(lst->pending.size()) >= lst->backlog) {
    return -static_cast<int>(Errno::kECONNREFUSED);
  }
  auto conn = std::make_shared<Connection>();
  conn->client_uid = self.uid;
  lst->pending.push_back(conn);
  wake_all(lst->accept_waiters);
  const int fd = self.next_fd++;
  FileDesc cd;
  cd.conn = conn;
  cd.conn_is_server_side = false;
  self.fds[fd] = cd;
  return fd;
}

Errno LinuxKernel::sock_send(int fd, const std::string& data,
                             bool blocking) {
  enter_linux();
  met_.sc_sock_send.inc();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr || !desc->conn) return Errno::kEBADF;
  std::shared_ptr<Connection> conn = desc->conn;
  const bool server = desc->conn_is_server_side;
  auto& queue = server ? conn->to_client : conn->to_server;
  for (;;) {
    if ((server && conn->client_closed) ||
        (!server && conn->server_closed)) {
      return Errno::kEPIPE;
    }
    if (queue.size() < Connection::kBufDepth) break;
    if (!blocking) return Errno::kEAGAIN;
    auto& waiters = server ? conn->server_waiters : conn->client_waiters;
    waiters.push_back(self.proc);
    machine_.block_current("uds.send_full");
    deliver_pending_signals(self);
    if (fd_of(self, fd) == nullptr) return Errno::kEBADF;
  }
  // UDS is a byte stream: no message boundary survives, so no causal
  // context can ride the wire — the trace deliberately breaks here,
  // modeling the real protocol limit.
  queue.push_back(Datagram{data, machine_.now()});
  wake_conn(*conn);
  return Errno::kOk;
}

Errno LinuxKernel::sock_recv(int fd, std::string* out, bool blocking) {
  enter_linux();
  met_.sc_sock_recv.inc();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr || !desc->conn) return Errno::kEBADF;
  std::shared_ptr<Connection> conn = desc->conn;
  const bool server = desc->conn_is_server_side;
  auto& queue = server ? conn->to_server : conn->to_client;
  for (;;) {
    if (!queue.empty()) {
      *out = queue.front().data;
      met_.ipc_latency.record(
          static_cast<double>(machine_.now() - queue.front().enqueued));
      queue.pop_front();
      wake_conn(*conn);
      return Errno::kOk;
    }
    if ((server && conn->client_closed) ||
        (!server && conn->server_closed)) {
      return Errno::kEOF;
    }
    if (!blocking) return Errno::kEAGAIN;
    auto& waiters = server ? conn->server_waiters : conn->client_waiters;
    waiters.push_back(self.proc);
    machine_.block_current("uds.recv_empty");
    deliver_pending_signals(self);
    if (fd_of(self, fd) == nullptr) return Errno::kEBADF;
  }
}

Errno LinuxKernel::sock_close(int fd) {
  enter_linux();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr) return Errno::kEBADF;
  close_desc(*desc);
  self.fds.erase(fd);
  return Errno::kOk;
}

Uid LinuxKernel::sock_peer_uid(int fd) {
  enter_linux();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr || !desc->conn) return -1;
  return desc->conn_is_server_side ? desc->conn->client_uid
                                   : desc->conn->server_uid;
}

// ---- Flat files ----

int LinuxKernel::open_file(const std::string& name, bool create, Mode mode) {
  enter_linux();
  met_.sc_file.inc();
  Task& self = current_task();
  auto it = namespace_.find(name);
  std::shared_ptr<Node> node;
  if (it == namespace_.end()) {
    if (!create) return -static_cast<int>(Errno::kENOENT);
    node = std::make_shared<Node>();
    node->type = Node::Type::kFile;
    node->name = name;
    node->owner = self.uid;
    node->mode = mode;
    namespace_[name] = node;
  } else {
    node = it->second;
    if (node->type != Node::Type::kFile) {
      return -static_cast<int>(Errno::kEINVAL);
    }
    if (!may_read(self, *node) && !may_write(self, *node)) {
      return -static_cast<int>(Errno::kEACCES);
    }
  }
  const int fd = self.next_fd++;
  FileDesc desc;
  desc.node = node;
  desc.readable = may_read(self, *node);
  desc.writable = may_write(self, *node);
  self.fds[fd] = desc;
  node->open_count++;
  return fd;
}

Errno LinuxKernel::write_file(int fd, const std::string& data) {
  enter_linux();
  met_.sc_file.inc();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr) return Errno::kEBADF;
  if (!desc->writable) return Errno::kEACCES;
  desc->node->contents += data;
  return Errno::kOk;
}

Errno LinuxKernel::read_file(int fd, std::string& out) {
  enter_linux();
  met_.sc_file.inc();
  Task& self = current_task();
  FileDesc* desc = fd_of(self, fd);
  if (desc == nullptr) return Errno::kEBADF;
  if (!desc->readable) return Errno::kEACCES;
  out = desc->node->contents;
  return Errno::kOk;
}

}  // namespace mkbas::linuxsim
