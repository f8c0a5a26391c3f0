#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/machine.hpp"

namespace mkbas::linuxsim {

/// User id. Root (uid 0) bypasses every permission check — the crux of the
/// paper's second attack simulation (§IV.D.1).
using Uid = int;
inline constexpr Uid kRootUid = 0;

enum class Errno {
  kOk = 0,
  kEACCES,  // permission denied by mode bits
  kEPERM,   // operation not permitted (kill/setuid rules)
  kENOENT,  // no such file / queue / process
  kEEXIST,  // already exists (O_EXCL semantics)
  kEAGAIN,  // would block (non-blocking op)
  kESRCH,   // no such pid
  kEBADF,   // bad descriptor
  kEINVAL,
  kECONNREFUSED,  // connect to a dead / full / non-listening socket
  kEPIPE,         // send after the peer closed
  kEOF,           // orderly end-of-stream on recv
};

const char* to_string(Errno e);

/// Simplified POSIX permission bits: read/write for owner and other, plus
/// optional per-uid ACL entries (setfacl-style). ACLs model the paper's
/// "message queue specifically configured to only allow the correct user
/// account" — the well-configured baseline that root still defeats.
struct Mode {
  bool owner_read = true;
  bool owner_write = true;
  bool other_read = false;
  bool other_write = false;
  std::map<Uid, std::pair<bool, bool>> acl;  // uid -> (read, write)

  static Mode rw_owner_only() { return {true, true, false, false, {}}; }
  static Mode rw_everyone() { return {true, true, true, true, {}}; }
  Mode& grant(Uid uid, bool read, bool write) {
    acl[uid] = {read, write};
    return *this;
  }
};

/// A POSIX message-queue message: payload bytes plus a priority. The
/// kernel stamps `enqueued_at` on mq_send so delivery can record the true
/// send->receive latency; user code can ignore the field.
struct MqMessage {
  std::string data;
  unsigned priority = 0;
  sim::Time enqueued_at = 0;
  /// Open "linux.mq" flow span of this queue hop — kernel metadata on
  /// the queue entry (like enqueued_at), never payload bytes.
  std::uint64_t span = 0;
};

/// The monolithic-kernel (Linux) personality used as the paper's baseline.
///
/// Faithful to the properties the paper's attacks exploit (§II, §IV.C/D.1):
///  * IPC is POSIX message queues, implemented through the virtual file
///    system and therefore guarded only by file mode bits;
///  * messages carry no kernel-verified sender identity — any process that
///    can open a queue for writing can impersonate anyone;
///  * uid 0 bypasses all permission checks: a root process can open any
///    queue and kill any process;
///  * kill() is permitted for root or a matching uid.
class LinuxKernel {
 public:
  static constexpr int kMaxQueues = 64;
  static constexpr int kDefaultMaxMsg = 10;

  explicit LinuxKernel(sim::Machine& machine);
  ~LinuxKernel() { machine_.shutdown(); }

  LinuxKernel(const LinuxKernel&) = delete;
  LinuxKernel& operator=(const LinuxKernel&) = delete;

  // ---- Processes ----

  /// Loader-side spawn (the scenario process uses this). Returns pid or -1.
  int spawn_process(const std::string& name, Uid uid,
                    std::function<void()> body,
                    int priority = sim::Machine::kDefaultPriority);

  /// fork-and-exec style: child inherits the caller's uid.
  int fork_process(const std::string& name, std::function<void()> body,
                   int priority = sim::Machine::kDefaultPriority);

  // Signal numbers (the relevant subset).
  static constexpr int kSigKill = 9;   // uncatchable, unconditional
  static constexpr int kSigUsr1 = 10;  // default: ignored
  static constexpr int kSigTerm = 15;  // catchable; default: terminate

  /// kill(2) with SIGKILL: root may kill anyone; others only processes
  /// of the same uid.
  Errno sys_kill(int pid) { return sys_kill_sig(pid, kSigKill); }

  /// kill(2) with an explicit signal. SIGKILL is unconditional; SIGTERM
  /// runs the target's handler if installed (delivered at the target's
  /// next syscall or blocking-point wakeup) or terminates it; SIGUSR1
  /// without a handler is ignored.
  Errno sys_kill_sig(int pid, int sig);

  /// signal(2)/sigaction(2): install a handler for the calling task.
  /// The handler runs in the target's own context. SIGKILL cannot be
  /// caught.
  Errno install_signal_handler(int sig, std::function<void()> handler);

  [[noreturn]] void sys_exit(int code);

  Uid getuid();
  int getpid();
  int find_pid(const std::string& name) const;  // pgrep-style helper
  bool is_alive(int pid) const;
  Uid uid_of(int pid) const;

  /// setuid(2): only root may change identity.
  Errno sys_setuid(Uid uid);

  /// Models a successful privilege-escalation exploit (the paper's second
  /// simulation assumes one): flips the caller's uid to root and records
  /// the event in the attack trace.
  void exploit_escalate_to_root();

  // ---- POSIX message queues (mq_overview(7)) ----

  /// mq_open: create or open. Permission checks against mode bits unless
  /// the caller is root. Returns fd (>=0) or a negative Errno.
  int mq_open(const std::string& name, bool create, Mode mode = {},
              int maxmsg = kDefaultMaxMsg);

  Errno mq_close(int fd);
  Errno mq_unlink(const std::string& name);

  /// Blocking when the queue is full (non-blocking variant returns EAGAIN).
  Errno mq_send(int fd, const MqMessage& msg, bool blocking = true);
  /// Blocking when empty. Highest priority first, FIFO within priority.
  Errno mq_receive(int fd, MqMessage& out, bool blocking = true);

  // ---- Unix domain sockets (§III: "the IPC options are either Unix
  //      domain sockets or message queues") ----
  //
  // Stream sockets in two namespaces, matching Linux semantics:
  //  * filesystem namespace: the bound path is a VFS node guarded by
  //    mode bits/ACLs at connect time;
  //  * abstract namespace ("@name"): no filesystem node and therefore
  //    NO permission check at all — first binder wins. This is the
  //    misuse surface of the Android CVEs the paper cites [10]: any
  //    process can squat a well-known abstract name and impersonate the
  //    service.

  int sock_socket();
  Errno sock_bind(int fd, const std::string& path, Mode mode = {});
  Errno sock_bind_abstract(int fd, const std::string& name);
  Errno sock_listen(int fd, int backlog = 8);
  /// Accept a pending connection; returns new fd (>=0) or negative Errno.
  int sock_accept(int fd, bool blocking = true);
  /// Connect to a filesystem-bound socket (checked against mode bits).
  int sock_connect(const std::string& path);
  /// Connect to an abstract-namespace socket (no checks).
  int sock_connect_abstract(const std::string& name);
  Errno sock_send(int fd, const std::string& data, bool blocking = true);
  Errno sock_recv(int fd, std::string* out, bool blocking = true);
  Errno sock_close(int fd);
  /// Peer credentials (SO_PEERCRED): uid of the peer, or -1. The one
  /// authenticity primitive Unix sockets do offer — if services use it.
  Uid sock_peer_uid(int fd);

  // ---- Flat files (for the control process's log) ----

  int open_file(const std::string& name, bool create, Mode mode = {});
  Errno write_file(int fd, const std::string& data);
  Errno read_file(int fd, std::string& out);

  sim::Machine& machine() { return machine_; }

 private:
  struct Node {  // a VFS entry: message queue or flat file
    enum class Type { kMqueue, kFile } type = Type::kMqueue;
    std::string name;
    Uid owner = 0;
    Mode mode;
    bool unlinked = false;
    int open_count = 0;
    // mqueue payload
    std::deque<MqMessage> queue;
    int maxmsg = kDefaultMaxMsg;
    std::vector<sim::Process*> send_waiters;
    std::vector<sim::Process*> recv_waiters;
    // file payload
    std::string contents;
  };

  struct Datagram {  // one buffered stream chunk plus its enqueue time
    std::string data;
    sim::Time enqueued = 0;
  };

  struct Connection {  // one established stream, two directions
    std::deque<Datagram> to_server, to_client;
    static constexpr std::size_t kBufDepth = 64;
    bool server_closed = false, client_closed = false;
    Uid server_uid = -1, client_uid = -1;
    std::vector<sim::Process*> server_waiters, client_waiters;
  };

  struct Listener {  // a bound, listening socket
    std::string name;
    bool abstract = false;
    Uid owner = -1;
    Mode mode;  // meaningful only in the filesystem namespace
    bool listening = false;
    int backlog = 8;
    std::deque<std::shared_ptr<Connection>> pending;
    std::vector<sim::Process*> accept_waiters;
    bool closed = false;
  };

  struct FileDesc {
    std::shared_ptr<Node> node;
    bool readable = false;
    bool writable = false;
    // Socket roles (a descriptor is exactly one of: node, listener, conn)
    std::shared_ptr<Listener> listener;
    std::shared_ptr<Connection> conn;
    bool conn_is_server_side = false;
    bool is_unbound_socket = false;
  };

  struct Task {
    int pid = 0;
    std::string name;
    Uid uid = 0;
    sim::Process* proc = nullptr;
    std::map<int, FileDesc> fds;
    int next_fd = 3;
    std::map<int, std::function<void()>> sig_handlers;
    std::deque<int> pending_signals;
    bool delivering_signals = false;
  };

  Task& current_task();
  const Task* task_by_pid(int pid) const;
  Task* task_by_pid(int pid);
  void close_desc(FileDesc& desc);
  void wake_conn(Connection& conn);
  /// Kernel entry for Linux syscalls: charge + deliver pending signals.
  void enter_linux();
  void deliver_pending_signals(Task& task);
  bool may_read(const Task& t, const Node& n) const;
  bool may_write(const Task& t, const Node& n) const;
  FileDesc* fd_of(Task& t, int fd);
  void wake_all(std::vector<sim::Process*>& waiters);
  int do_spawn(const std::string& name, Uid uid, std::function<void()> body,
               int priority);

  /// Pre-resolved handles ("linux.*" namespace); no string lookups on the
  /// IPC path.
  struct Metrics {
    obs::Counter sc_kill, sc_signal, sc_spawn, sc_exit, sc_setuid;
    obs::Counter sc_mq_open, sc_mq_send, sc_mq_receive;
    obs::Counter sc_sock_connect, sc_sock_accept, sc_sock_send, sc_sock_recv;
    obs::Counter sc_file;
    obs::Counter perm_denied;
    obs::Histogram ipc_latency;  // mq/uds send->receive, virtual usec
  };

  /// Interned once at construction; the IPC path never touches the tag
  /// registry's string table.
  std::uint32_t tag_mq_span_ = 0;

  sim::Machine& machine_;
  Metrics met_;
  std::unordered_map<std::string, std::shared_ptr<Node>> namespace_;
  std::unordered_map<std::string, std::shared_ptr<Listener>> fs_sockets_;
  std::unordered_map<std::string, std::shared_ptr<Listener>>
      abstract_sockets_;  // no permission metadata: that is the point
  std::unordered_map<int, std::unique_ptr<Task>> tasks_;  // by pid
  std::unordered_map<int, int> pid_alias_;  // sim pid == linux pid here
};

}  // namespace mkbas::linuxsim
