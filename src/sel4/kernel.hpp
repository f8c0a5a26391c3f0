#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>

#include "sel4/objects.hpp"
#include "sim/machine.hpp"

namespace mkbas::sel4 {

/// Result of a receive: error status plus the badge of the capability the
/// sender used (how seL4 servers identify clients).
struct RecvResult {
  Sel4Error status = Sel4Error::kOk;
  std::uint64_t badge = 0;
};

/// The seL4 personality (§III.C): a capability-based microkernel model.
///
/// All authority is capabilities held in per-thread CSpaces; the kernel
/// has no concept of users or root. The kernel hands all initial authority
/// (one large Untyped plus the root CNode) to the bootstrap thread, which
/// retypes objects and distributes capabilities — policy lives entirely in
/// user space, as the seL4 designers intended (§III.C, [11]).
///
/// Faithful properties this model preserves:
///  * capabilities are unforgeable (user code only holds slot indices);
///  * rights derivation only shrinks (copy/mint mask rights);
///  * send requires write, receive requires read;
///  * capability transfer over an endpoint requires grant on the sender's
///    endpoint cap AND an explicitly designated receive slot;
///  * seL4_Call attaches a one-time reply capability; seL4_Reply consumes
///    it; callers of dead servers unblock with an error;
///  * there is no operation to enumerate or steal another thread's
///    capabilities — brute-forcing one's own CSpace only finds what the
///    bootstrap put there (§IV.D.3).
class Sel4Kernel {
 public:
  using Slot = int;

  static constexpr int kDefaultCNodeSlots = 64;
  static constexpr std::size_t kInitialUntypedBytes = 1 << 22;  // 4 MiB

  explicit Sel4Kernel(sim::Machine& machine);
  ~Sel4Kernel() { machine_.shutdown(); }

  Sel4Kernel(const Sel4Kernel&) = delete;
  Sel4Kernel& operator=(const Sel4Kernel&) = delete;

  // ---- Boot ----

  /// Start the bootstrap thread. It receives the root CNode with slot 0 =
  /// cap to its own CNode and slot 1 = the initial Untyped.
  sim::Process* boot_root(std::function<void()> body,
                          int priority = 2);
  static constexpr Slot kRootCNodeSlot = 0;
  static constexpr Slot kRootUntypedSlot = 1;

  // ---- Object creation (requires an Untyped capability) ----

  /// Retype part of an untyped into a new object; a full-rights cap to it
  /// is written into `dest_slot` of the caller's CSpace.
  Sel4Error retype(Slot untyped_slot, ObjType type, Slot dest_slot,
                   int cnode_slots = kDefaultCNodeSlots);

  /// Create a new thread (TCB + its own CSpace) from untyped memory. A cap
  /// to the child's TCB goes to `tcb_dest`, and a cap to the child's root
  /// CNode goes to `cnode_dest` so the creator can install capabilities.
  /// The thread starts only on tcb_resume().
  Sel4Error create_thread(Slot untyped_slot, const std::string& name,
                          std::function<void()> body, int priority,
                          Slot tcb_dest, Slot cnode_dest,
                          int cnode_slots = kDefaultCNodeSlots);

  /// Start a not-yet-started thread, or resume a suspended one.
  Sel4Error tcb_resume(Slot tcb_slot);

  /// Suspend a thread (TCB_Suspend): it stops being scheduled and any
  /// wakeup is deferred until tcb_resume. Requires holding its TCB cap —
  /// which is exactly what the compromised web component lacks.
  Sel4Error tcb_suspend(Slot tcb_slot);

  /// True iff the thread behind the TCB cap at `tcb_slot` has been started
  /// and its process is still live. The CAmkES restart monitor polls this
  /// to detect crashed components.
  bool tcb_alive(Slot tcb_slot);

  // ---- CNode operations ----

  /// Copy a cap within the caller's own CSpace, masking rights.
  Sel4Error cnode_copy(Slot src, Slot dst, CapRights mask);
  /// Copy + set a badge (endpoint identification for servers).
  Sel4Error cnode_mint(Slot src, Slot dst, CapRights mask,
                       std::uint64_t badge);
  Sel4Error cnode_move(Slot src, Slot dst);
  Sel4Error cnode_delete(Slot slot);

  /// Revoke: delete every capability in the system referencing the same
  /// object as `slot` (the slot itself included). Models revoking a
  /// master capability together with all copies derived from it; threads
  /// blocked on the object wake with kDeleted.
  Sel4Error cnode_revoke(Slot slot);

  /// Install a cap from the caller's CSpace into another CNode the caller
  /// holds a cap to (bootstrap uses this to populate children).
  Sel4Error cnode_copy_into(Slot target_cnode, Slot src, Slot dest_in_target,
                            CapRights mask, std::uint64_t badge = 0);

  /// Walk a chain of CNode caps (multi-level CSpace addressing); returns
  /// kOk iff a capability exists at the end of the path. Every call walks
  /// the chain against the live CSpace, so the verdict always reflects the
  /// current capability topology. Used by the capability-lookup-depth
  /// benchmark (T4).
  Sel4Error probe_path(const std::vector<Slot>& path);

  // ---- IPC ----

  Sel4Error send(Slot ep_slot, const Sel4Msg& msg);
  Sel4Error nbsend(Slot ep_slot, const Sel4Msg& msg);
  RecvResult recv(Slot ep_slot, Sel4Msg& out);
  RecvResult nbrecv(Slot ep_slot, Sel4Msg& out);
  /// Atomic send + wait-for-reply; requires grant (a one-time reply cap
  /// travels with the message).
  Sel4Error call(Slot ep_slot, Sel4Msg& inout);
  /// Reply through the pending one-time reply capability.
  Sel4Error reply(const Sel4Msg& msg);

  /// seL4_ReplyRecv: reply to the pending caller and atomically wait for
  /// the next message — the hot loop of every seL4 server.
  RecvResult reply_recv(Slot ep_slot, const Sel4Msg& reply_msg,
                        Sel4Msg& out);

  /// Designate a slot of the caller's CSpace to receive transferred caps.
  void set_receive_slot(Slot slot);

  // ---- Notifications ----

  Sel4Error signal(Slot ntfn_slot);
  Sel4Error wait(Slot ntfn_slot, std::uint64_t* bits_out);

  // ---- Frames (shared memory; CAmkES dataports) ----
  //
  // A mapped page with MMU-enforced rights: writes through a read-only
  // capability fail the way a fault would.

  static constexpr std::size_t kFrameBytes = 4096;

  Sel4Error frame_write(Slot frame_slot, std::size_t offset,
                        const std::uint8_t* src, std::size_t len);
  Sel4Error frame_read(Slot frame_slot, std::size_t offset,
                       std::uint8_t* dst, std::size_t len);

  // ---- Introspection (within one's own authority only) ----

  /// True iff the caller's CSpace holds a capability at `slot`. This is
  /// what a brute-forcing attacker can learn — nothing about other
  /// threads' CSpaces (used by the §IV.D.3 attack simulation).
  bool probe_own_slot(Slot slot);
  int cspace_slots();

  /// Inspect a slot of a CNode the caller holds a capability to. This is
  /// legitimate authority (you can always read CNodes you own); the
  /// bootstrap uses it to machine-verify the capability distribution
  /// against the CapDL spec, as in [14].
  struct CapInfo {
    bool present = false;
    ObjType type = ObjType::kEndpoint;
    CapRights rights;
    std::uint64_t badge = 0;
    int object = -1;
  };
  Sel4Error cnode_inspect(Slot cnode_cap, Slot slot_in_target, CapInfo& out);

  sim::Machine& machine() { return machine_; }

 private:
  struct WaitingSender {
    int tcb;  // object id
    Sel4Msg msg;
    std::uint64_t badge;
    bool is_call;
    bool can_grant;
    sim::Time enqueued = 0;  // when the send syscall reached the endpoint
  };
  struct EndpointObj {
    std::deque<WaitingSender> senders;
    std::deque<int> receivers;  // tcb object ids
  };
  struct NotificationObj {
    std::uint64_t word = 0;
    std::deque<int> waiters;
  };
  struct FrameObj {
    std::vector<std::uint8_t> data;
  };
  struct CNodeObj {
    std::vector<Capability> slots;
  };
  struct UntypedObj {
    std::size_t bytes_left = 0;
  };
  struct TcbObj {
    std::string name;
    sim::Process* proc = nullptr;
    int cnode = -1;  // object id of root CNode
    bool started = false;
    std::function<void()> body;
    int priority = sim::Machine::kDefaultPriority;

    // IPC rendezvous state while blocked:
    Sel4Msg* recv_buf = nullptr;
    std::uint64_t recv_badge = 0;
    Sel4Error ipc_status = Sel4Error::kOk;
    Slot receive_slot = -1;     // where transferred caps land
    int reply_to_tcb = -1;      // pending one-time reply cap (server side)
    int waiting_reply_from = -1;  // caller side: which tcb owes us a reply
    bool can_receive_grant = false;  // sender used a grant cap (for call)
    /// Open "sel4.ipc" flow span of this thread's in-flight send. The
    /// causal context rides kernel-side, like the badge — the message
    /// registers never carry tracing metadata.
    std::uint64_t out_span = 0;
  };

  struct Object {
    ObjType type = ObjType::kUntyped;
    std::variant<std::monostate, UntypedObj, TcbObj, EndpointObj,
                 NotificationObj, CNodeObj, FrameObj>
        payload;
    int refcount = 0;
  };

  static std::size_t object_cost(ObjType t, int cnode_slots);
  int alloc_object(ObjType t, int cnode_slots);
  void unref_object(int id);
  Object& obj(int id) { return objects_[static_cast<std::size_t>(id)]; }

  TcbObj& current_tcb();
  int current_tcb_id();
  CNodeObj& cspace_of(TcbObj& t);
  Capability* cap_at(CNodeObj& cs, Slot slot);
  /// Resolve a slot of the CURRENT thread expecting a type; nullptr with
  /// `err` set otherwise.
  Capability* resolve(Slot slot, ObjType want, Sel4Error& err);

  void deliver_to_receiver(TcbObj& receiver, int receiver_id,
                           const WaitingSender& ws);
  /// Record the server->caller reply as a zero-length flow span and hand
  /// its context to the caller.
  void reply_hop_span(TcbObj& server, TcbObj& caller);
  /// Consume `server`'s pending one-time reply cap (reply_to_tcb >= 0)
  /// and hand `msg` to the caller, which becomes ready. Returns the caller,
  /// or nullptr if it died or stopped waiting (the reply is dropped).
  TcbObj* deliver_reply(TcbObj& server, const Sel4Msg& msg);
  void transfer_cap_if_any(TcbObj& sender, TcbObj& receiver,
                           const Sel4Msg& msg, bool can_grant);
  Sel4Error do_send(Slot ep_slot, const Sel4Msg& msg, bool blocking,
                    bool is_call);
  RecvResult do_recv(Slot ep_slot, Sel4Msg& out, bool blocking);
  void on_thread_gone(int tcb_id);
  /// A security event on the trace only.
  void trace_sec(const std::string& what, const std::string& detail);
  /// A capability denial: counted, fed to the denial-rate signal, traced
  /// and audited.
  void deny(const std::string& what, const std::string& detail);

  /// Pre-resolved handles ("sel4.*" namespace); no string lookups on the
  /// IPC path.
  struct Metrics {
    obs::Counter sc_send, sc_nbsend, sc_recv, sc_nbrecv, sc_call, sc_reply;
    obs::Counter sc_reply_recv, sc_signal, sc_wait, sc_retype;
    obs::Counter sc_create_thread, sc_cnode, sc_frame, sc_tcb;
    obs::Counter cap_denied;
    obs::Histogram ipc_latency;  // send->deliver, virtual microseconds
  };

  sim::Machine& machine_;
  Metrics met_;
  obs::HealthSignal denial_sig_;  // rate detector over cap denials
  /// Interned once at construction; the IPC path never touches the
  /// tag registry's string table.
  std::uint32_t tag_ipc_span_ = 0;
  // deque: object references must stay valid across blocking syscalls
  // while other threads allocate objects.
  std::deque<Object> objects_;
  std::unordered_map<int, int> pid_to_tcb_;
};

}  // namespace mkbas::sel4
