#include "sel4/kernel.hpp"

#include <cassert>

namespace mkbas::sel4 {

const char* to_string(ObjType t) {
  switch (t) {
    case ObjType::kUntyped:
      return "untyped";
    case ObjType::kTcb:
      return "tcb";
    case ObjType::kEndpoint:
      return "endpoint";
    case ObjType::kNotification:
      return "notification";
    case ObjType::kCNode:
      return "cnode";
    case ObjType::kFrame:
      return "frame";
  }
  return "?";
}

const char* to_string(Sel4Error e) {
  switch (e) {
    case Sel4Error::kOk:
      return "OK";
    case Sel4Error::kBadSlot:
      return "BadSlot";
    case Sel4Error::kEmptySlot:
      return "EmptySlot";
    case Sel4Error::kWrongType:
      return "WrongType";
    case Sel4Error::kNoRights:
      return "NoRights";
    case Sel4Error::kDeleted:
      return "Deleted";
    case Sel4Error::kNotReady:
      return "NotReady";
    case Sel4Error::kNoReplyCap:
      return "NoReplyCap";
    case Sel4Error::kUntypedExhausted:
      return "UntypedExhausted";
    case Sel4Error::kSlotOccupied:
      return "SlotOccupied";
    case Sel4Error::kTableFull:
      return "TableFull";
    case Sel4Error::kTruncated:
      return "Truncated";
  }
  return "?";
}

Sel4Kernel::Sel4Kernel(sim::Machine& machine) : machine_(machine) {
  auto& mx = machine_.metrics();
  met_.sc_send = mx.counter("sel4.syscall.send");
  met_.sc_nbsend = mx.counter("sel4.syscall.nbsend");
  met_.sc_recv = mx.counter("sel4.syscall.recv");
  met_.sc_nbrecv = mx.counter("sel4.syscall.nbrecv");
  met_.sc_call = mx.counter("sel4.syscall.call");
  met_.sc_reply = mx.counter("sel4.syscall.reply");
  met_.sc_reply_recv = mx.counter("sel4.syscall.reply_recv");
  met_.sc_signal = mx.counter("sel4.syscall.signal");
  met_.sc_wait = mx.counter("sel4.syscall.wait");
  met_.sc_retype = mx.counter("sel4.syscall.retype");
  met_.sc_create_thread = mx.counter("sel4.syscall.create_thread");
  met_.sc_cnode = mx.counter("sel4.syscall.cnode_op");
  met_.sc_frame = mx.counter("sel4.syscall.frame_op");
  met_.sc_tcb = mx.counter("sel4.syscall.tcb_op");
  met_.cap_denied = mx.counter("sel4.cap.denied");
  met_.ipc_latency = mx.log_histogram("sel4.ipc.latency", 4, 1e7);
  // Denial-rate health signal (see MinixKernel: surge fires without
  // warmup, CUSUM catches slow probing).
  obs::DetectorConfig denial_cfg;
  denial_cfg.rate = true;
  denial_cfg.surge = 64.0;
  denial_sig_ = machine_.health().signal("sel4.cap.denied", denial_cfg);
  tag_ipc_span_ = sim::TagRegistry::instance().intern("sel4.ipc");
}

void Sel4Kernel::trace_sec(const std::string& what,
                           const std::string& detail) {
  sim::Process* p = machine_.current();
  machine_.trace().emit(machine_.now(), p ? p->pid() : -1,
                        sim::TraceKind::kSecurity, what, detail);
}

void Sel4Kernel::deny(const std::string& what, const std::string& detail) {
  // Single emission point for capability denials: the counter stays in
  // exact agreement with the trace tag counts.
  met_.cap_denied.inc();
  denial_sig_.count(machine_.now());
  trace_sec(what, detail);
  sim::Process* p = machine_.current();
  const int pid = p ? p->pid() : -1;
  machine_.audit().record(machine_.now(), machine_.machine_id(), pid, what,
                          detail, machine_.spans(),
                          machine_.spans().current(pid));
}

// ---- Object management ----

std::size_t Sel4Kernel::object_cost(ObjType t, int cnode_slots) {
  switch (t) {
    case ObjType::kTcb:
      return 1024;
    case ObjType::kEndpoint:
    case ObjType::kNotification:
      return 16;
    case ObjType::kCNode:
      return static_cast<std::size_t>(cnode_slots) * 16;
    case ObjType::kFrame:
      return kFrameBytes;
    case ObjType::kUntyped:
      return 0;  // sub-untypeds not modelled
  }
  return 0;
}

int Sel4Kernel::alloc_object(ObjType t, int cnode_slots) {
  Object o;
  o.type = t;
  switch (t) {
    case ObjType::kUntyped:
      o.payload = UntypedObj{};
      break;
    case ObjType::kTcb:
      o.payload = TcbObj{};
      break;
    case ObjType::kEndpoint:
      o.payload = EndpointObj{};
      break;
    case ObjType::kNotification:
      o.payload = NotificationObj{};
      break;
    case ObjType::kCNode: {
      CNodeObj c;
      c.slots.resize(static_cast<std::size_t>(cnode_slots));
      o.payload = std::move(c);
      break;
    }
    case ObjType::kFrame: {
      FrameObj f;
      f.data.resize(kFrameBytes, 0);
      o.payload = std::move(f);
      break;
    }
  }
  objects_.push_back(std::move(o));
  return static_cast<int>(objects_.size()) - 1;
}

void Sel4Kernel::unref_object(int id) {
  if (id < 0) return;
  Object& o = obj(id);
  if (--o.refcount > 0) return;
  // Last capability gone: blocked threads on this object wake with an
  // error so authority revocation is visible, not a silent hang.
  if (o.type == ObjType::kEndpoint) {
    auto& ep = std::get<EndpointObj>(o.payload);
    for (auto& ws : ep.senders) {
      TcbObj& t = std::get<TcbObj>(obj(ws.tcb).payload);
      t.ipc_status = Sel4Error::kDeleted;
      if (t.proc != nullptr) machine_.make_ready(t.proc);
    }
    ep.senders.clear();
    for (int r : ep.receivers) {
      TcbObj& t = std::get<TcbObj>(obj(r).payload);
      t.ipc_status = Sel4Error::kDeleted;
      if (t.proc != nullptr) machine_.make_ready(t.proc);
    }
    ep.receivers.clear();
  } else if (o.type == ObjType::kNotification) {
    auto& n = std::get<NotificationObj>(o.payload);
    for (int w : n.waiters) {
      TcbObj& t = std::get<TcbObj>(obj(w).payload);
      t.ipc_status = Sel4Error::kDeleted;
      if (t.proc != nullptr) machine_.make_ready(t.proc);
    }
    n.waiters.clear();
  }
}

// ---- CSpace plumbing ----

int Sel4Kernel::current_tcb_id() {
  sim::Process* p = machine_.current();
  if (p == nullptr) {
    throw std::logic_error("seL4 syscall outside process context");
  }
  const auto it = pid_to_tcb_.find(p->pid());
  if (it == pid_to_tcb_.end()) {
    throw std::logic_error("caller is not an seL4 thread");
  }
  return it->second;
}

Sel4Kernel::TcbObj& Sel4Kernel::current_tcb() {
  return std::get<TcbObj>(obj(current_tcb_id()).payload);
}

Sel4Kernel::CNodeObj& Sel4Kernel::cspace_of(TcbObj& t) {
  return std::get<CNodeObj>(obj(t.cnode).payload);
}

Capability* Sel4Kernel::cap_at(CNodeObj& cs, Slot slot) {
  if (slot < 0 || static_cast<std::size_t>(slot) >= cs.slots.size()) {
    return nullptr;
  }
  return &cs.slots[static_cast<std::size_t>(slot)];
}

Capability* Sel4Kernel::resolve(Slot slot, ObjType want, Sel4Error& err) {
  CNodeObj& cs = cspace_of(current_tcb());
  Capability* cap = cap_at(cs, slot);
  if (cap == nullptr) {
    err = Sel4Error::kBadSlot;
    return nullptr;
  }
  if (!cap->valid()) {
    err = Sel4Error::kEmptySlot;
    return nullptr;
  }
  if (cap->type != want) {
    err = Sel4Error::kWrongType;
    return nullptr;
  }
  err = Sel4Error::kOk;
  return cap;
}

// ---- Boot ----

sim::Process* Sel4Kernel::boot_root(std::function<void()> body,
                                    int priority) {
  const int cnode = alloc_object(ObjType::kCNode, kDefaultCNodeSlots);
  const int tcb = alloc_object(ObjType::kTcb, 0);
  const int untyped = alloc_object(ObjType::kUntyped, 0);
  std::get<UntypedObj>(obj(untyped).payload).bytes_left =
      kInitialUntypedBytes;

  auto& cs = std::get<CNodeObj>(obj(cnode).payload);
  cs.slots[kRootCNodeSlot] =
      Capability{cnode, ObjType::kCNode, CapRights::all(), 0};
  cs.slots[kRootUntypedSlot] =
      Capability{untyped, ObjType::kUntyped, CapRights::all(), 0};
  obj(cnode).refcount = 1;
  obj(untyped).refcount = 1;
  obj(tcb).refcount = 1;

  TcbObj& t = std::get<TcbObj>(obj(tcb).payload);
  t.name = "rootserver";
  t.cnode = cnode;
  t.started = true;
  sim::Process* proc = machine_.spawn("rootserver", std::move(body), priority);
  if (proc == nullptr) return nullptr;
  t.proc = proc;
  pid_to_tcb_[proc->pid()] = tcb;
  proc->add_exit_hook([this, tcb](sim::Process&) { on_thread_gone(tcb); });
  return proc;
}

// ---- Object creation ----

Sel4Error Sel4Kernel::retype(Slot untyped_slot, ObjType type, Slot dest_slot,
                             int cnode_slots) {
  machine_.enter_kernel();
  met_.sc_retype.inc();
  Sel4Error err;
  Capability* ucap = resolve(untyped_slot, ObjType::kUntyped, err);
  if (ucap == nullptr) return err;
  if (type == ObjType::kUntyped || type == ObjType::kTcb) {
    return Sel4Error::kWrongType;  // TCBs are made via create_thread
  }
  CNodeObj& cs = cspace_of(current_tcb());
  Capability* dest = cap_at(cs, dest_slot);
  if (dest == nullptr) return Sel4Error::kBadSlot;
  if (dest->valid()) return Sel4Error::kSlotOccupied;

  auto& ut = std::get<UntypedObj>(obj(ucap->object).payload);
  const std::size_t cost = object_cost(type, cnode_slots);
  if (ut.bytes_left < cost) return Sel4Error::kUntypedExhausted;
  ut.bytes_left -= cost;

  const int id = alloc_object(type, cnode_slots);
  // objects_ may have reallocated: re-fetch the destination pointer.
  dest = cap_at(cspace_of(current_tcb()), dest_slot);
  *dest = Capability{id, type, CapRights::all(), 0};
  obj(id).refcount = 1;
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::create_thread(Slot untyped_slot, const std::string& name,
                                    std::function<void()> body, int priority,
                                    Slot tcb_dest, Slot cnode_dest,
                                    int cnode_slots) {
  machine_.enter_kernel();
  met_.sc_create_thread.inc();
  Sel4Error err;
  Capability* ucap = resolve(untyped_slot, ObjType::kUntyped, err);
  if (ucap == nullptr) return err;
  CNodeObj* cs = &cspace_of(current_tcb());
  Capability* d1 = cap_at(*cs, tcb_dest);
  Capability* d2 = cap_at(*cs, cnode_dest);
  if (d1 == nullptr || d2 == nullptr) return Sel4Error::kBadSlot;
  if (d1->valid() || d2->valid()) return Sel4Error::kSlotOccupied;

  auto& ut = std::get<UntypedObj>(obj(ucap->object).payload);
  const std::size_t cost = object_cost(ObjType::kTcb, 0) +
                           object_cost(ObjType::kCNode, cnode_slots);
  if (ut.bytes_left < cost) return Sel4Error::kUntypedExhausted;
  ut.bytes_left -= cost;

  const int cnode = alloc_object(ObjType::kCNode, cnode_slots);
  const int tcb = alloc_object(ObjType::kTcb, 0);
  TcbObj& t = std::get<TcbObj>(obj(tcb).payload);
  t.name = name;
  t.cnode = cnode;
  t.body = std::move(body);
  t.priority = priority;
  obj(cnode).refcount = 1;  // the TCB itself references its CSpace
  obj(tcb).refcount = 1;

  cs = &cspace_of(current_tcb());  // re-fetch after possible realloc
  cs->slots[static_cast<std::size_t>(tcb_dest)] =
      Capability{tcb, ObjType::kTcb, CapRights::all(), 0};
  cs->slots[static_cast<std::size_t>(cnode_dest)] =
      Capability{cnode, ObjType::kCNode, CapRights::all(), 0};
  obj(tcb).refcount++;
  obj(cnode).refcount++;
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                        "sel4.create_thread", name);
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::tcb_resume(Slot tcb_slot) {
  machine_.enter_kernel();
  met_.sc_tcb.inc();
  Sel4Error err;
  Capability* cap = resolve(tcb_slot, ObjType::kTcb, err);
  if (cap == nullptr) return err;
  const int tcb_id = cap->object;
  TcbObj& t = std::get<TcbObj>(obj(tcb_id).payload);
  if (t.started) {
    // Already running: resume from suspension if applicable.
    if (t.proc != nullptr) machine_.resume(t.proc);
    return Sel4Error::kOk;
  }
  if (!t.body) return Sel4Error::kWrongType;
  t.started = true;
  sim::Process* proc =
      machine_.spawn(t.name, std::move(t.body), t.priority);
  if (proc == nullptr) return Sel4Error::kTableFull;
  t.proc = proc;
  pid_to_tcb_[proc->pid()] = tcb_id;
  proc->add_exit_hook(
      [this, tcb_id](sim::Process&) { on_thread_gone(tcb_id); });
  return Sel4Error::kOk;
}

bool Sel4Kernel::tcb_alive(Slot tcb_slot) {
  machine_.enter_kernel();
  met_.sc_tcb.inc();
  Sel4Error err;
  Capability* cap = resolve(tcb_slot, ObjType::kTcb, err);
  if (cap == nullptr) return false;
  TcbObj& t = std::get<TcbObj>(obj(cap->object).payload);
  return t.started && t.proc != nullptr;
}

Sel4Error Sel4Kernel::tcb_suspend(Slot tcb_slot) {
  machine_.enter_kernel();
  met_.sc_tcb.inc();
  Sel4Error err;
  Capability* cap = resolve(tcb_slot, ObjType::kTcb, err);
  if (cap == nullptr) return err;
  TcbObj& t = std::get<TcbObj>(obj(cap->object).payload);
  if (t.proc == nullptr) return Sel4Error::kDeleted;
  machine_.suspend(t.proc);
  trace_sec("tcb.suspend", current_tcb().name + " suspended " + t.name);
  return Sel4Error::kOk;
}

// ---- CNode operations ----

Sel4Error Sel4Kernel::cnode_copy(Slot src, Slot dst, CapRights mask) {
  return cnode_mint(src, dst, mask, /*badge=*/0);
}

Sel4Error Sel4Kernel::cnode_mint(Slot src, Slot dst, CapRights mask,
                                 std::uint64_t badge) {
  machine_.enter_kernel();
  met_.sc_cnode.inc();
  CNodeObj& cs = cspace_of(current_tcb());
  Capability* s = cap_at(cs, src);
  Capability* d = cap_at(cs, dst);
  if (s == nullptr || d == nullptr) return Sel4Error::kBadSlot;
  if (!s->valid()) return Sel4Error::kEmptySlot;
  if (d->valid()) return Sel4Error::kSlotOccupied;
  *d = *s;
  d->rights = s->rights.masked_by(mask);  // derivation can only shrink
  if (badge != 0) d->badge = badge;
  obj(d->object).refcount++;
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::cnode_move(Slot src, Slot dst) {
  machine_.enter_kernel();
  met_.sc_cnode.inc();
  CNodeObj& cs = cspace_of(current_tcb());
  Capability* s = cap_at(cs, src);
  Capability* d = cap_at(cs, dst);
  if (s == nullptr || d == nullptr) return Sel4Error::kBadSlot;
  if (!s->valid()) return Sel4Error::kEmptySlot;
  if (d->valid()) return Sel4Error::kSlotOccupied;
  *d = *s;
  *s = Capability{};
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::cnode_delete(Slot slot) {
  machine_.enter_kernel();
  met_.sc_cnode.inc();
  CNodeObj& cs = cspace_of(current_tcb());
  Capability* s = cap_at(cs, slot);
  if (s == nullptr) return Sel4Error::kBadSlot;
  if (!s->valid()) return Sel4Error::kEmptySlot;
  const int id = s->object;
  *s = Capability{};
  unref_object(id);
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::cnode_revoke(Slot slot) {
  machine_.enter_kernel();
  met_.sc_cnode.inc();
  CNodeObj& cs = cspace_of(current_tcb());
  Capability* s = cap_at(cs, slot);
  if (s == nullptr) return Sel4Error::kBadSlot;
  if (!s->valid()) return Sel4Error::kEmptySlot;
  const int target = s->object;
  // Sweep every CSpace in the system; each cleared cap drops a reference
  // and the final unref wakes any blocked threads with kDeleted.
  for (auto& o : objects_) {
    if (o.type != ObjType::kCNode) continue;
    auto& cnode = std::get<CNodeObj>(o.payload);
    for (auto& cap : cnode.slots) {
      if (cap.valid() && cap.object == target) {
        cap = Capability{};
        unref_object(target);
      }
    }
  }
  trace_sec("cap.revoke",
            current_tcb().name + " revoked object " + std::to_string(target));
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::cnode_copy_into(Slot target_cnode, Slot src,
                                      Slot dest_in_target, CapRights mask,
                                      std::uint64_t badge) {
  machine_.enter_kernel();
  met_.sc_cnode.inc();
  Sel4Error err;
  Capability* cn = resolve(target_cnode, ObjType::kCNode, err);
  if (cn == nullptr) return err;
  const int cnode_obj_id = cn->object;
  CNodeObj& own = cspace_of(current_tcb());
  Capability* s = cap_at(own, src);
  if (s == nullptr) return Sel4Error::kBadSlot;
  if (!s->valid()) return Sel4Error::kEmptySlot;
  CNodeObj& target = std::get<CNodeObj>(obj(cnode_obj_id).payload);
  Capability* d = cap_at(target, dest_in_target);
  if (d == nullptr) return Sel4Error::kBadSlot;
  if (d->valid()) return Sel4Error::kSlotOccupied;
  *d = *s;
  d->rights = s->rights.masked_by(mask);
  if (badge != 0) d->badge = badge;
  obj(d->object).refcount++;
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::probe_path(const std::vector<Slot>& path) {
  machine_.enter_kernel();
  met_.sc_cnode.inc();
  if (path.empty()) return Sel4Error::kBadSlot;
  int cnode_id = current_tcb().cnode;
  for (std::size_t i = 0; i < path.size(); ++i) {
    CNodeObj& cs = std::get<CNodeObj>(obj(cnode_id).payload);
    Capability* cap = cap_at(cs, path[i]);
    if (cap == nullptr) return Sel4Error::kBadSlot;
    if (!cap->valid()) return Sel4Error::kEmptySlot;
    if (i + 1 == path.size()) break;
    if (cap->type != ObjType::kCNode) return Sel4Error::kWrongType;
    cnode_id = cap->object;
  }
  return Sel4Error::kOk;
}

// ---- IPC ----

void Sel4Kernel::transfer_cap_if_any(TcbObj& sender, TcbObj& receiver,
                                     const Sel4Msg& msg, bool can_grant) {
  if (msg.transfer_cap_slot < 0) return;
  if (!can_grant) {
    deny("cap.transfer_deny", sender.name + ": no grant right");
    return;
  }
  if (receiver.receive_slot < 0) {
    trace_sec("cap.transfer_drop", receiver.name + ": no receive slot");
    return;
  }
  CNodeObj& scs = std::get<CNodeObj>(obj(sender.cnode).payload);
  Capability* src = cap_at(scs, msg.transfer_cap_slot);
  if (src == nullptr || !src->valid()) return;
  CNodeObj& rcs = std::get<CNodeObj>(obj(receiver.cnode).payload);
  Capability* dst = cap_at(rcs, receiver.receive_slot);
  if (dst == nullptr || dst->valid()) return;
  *dst = *src;
  obj(dst->object).refcount++;
  trace_sec("cap.transfer",
            sender.name + " -> " + receiver.name + " obj=" +
                std::to_string(src->object));
}

void Sel4Kernel::reply_hop_span(TcbObj& server, TcbObj& caller) {
  // A reply is a synchronous hop: the span opens and closes in the same
  // instant, but it still links the caller's continuation to the
  // server's handling in the causal graph.
  auto& spans = machine_.spans();
  const int spid = server.proc != nullptr ? server.proc->pid() : -1;
  const std::uint64_t span = spans.begin_flow(
      spid, machine_.now(), tag_ipc_span_, spans.current(spid));
  if (span != 0 && caller.proc != nullptr) {
    spans.set_current(caller.proc->pid(), spans.context_of(span));
  }
  spans.end_flow(machine_.now(), span);
}

void Sel4Kernel::deliver_to_receiver(TcbObj& receiver, int receiver_id,
                                     const WaitingSender& ws) {
  (void)receiver_id;
  assert(receiver.recv_buf != nullptr);
  met_.ipc_latency.record(static_cast<double>(machine_.now() - ws.enqueued));
  *receiver.recv_buf = ws.msg;
  receiver.recv_buf->transfer_cap_slot = -1;
  receiver.recv_badge = ws.badge;
  receiver.ipc_status = Sel4Error::kOk;
  TcbObj& sender = std::get<TcbObj>(obj(ws.tcb).payload);
  // Close the hop span and hand its context to the receiver, which now
  // continues the sender's trace.
  if (sender.out_span != 0) {
    auto& spans = machine_.spans();
    if (receiver.proc != nullptr) {
      spans.set_current(receiver.proc->pid(),
                        spans.context_of(sender.out_span));
    }
    spans.end_flow(machine_.now(), sender.out_span);
    sender.out_span = 0;
  }
  transfer_cap_if_any(sender, receiver, ws.msg, ws.can_grant);
  if (ws.is_call) {
    receiver.reply_to_tcb = ws.tcb;  // one-time reply capability
  }
  machine_.trace().emit(machine_.now(),
                        sender.proc ? sender.proc->pid() : -1,
                        sim::TraceKind::kIpc, "sel4.deliver",
                        sender.name + " -> " + receiver.name + " label=" +
                            std::to_string(ws.msg.label));
}

Sel4Error Sel4Kernel::do_send(Slot ep_slot, const Sel4Msg& msg, bool blocking,
                              bool is_call) {
  Sel4Error err;
  Capability* cap = resolve(ep_slot, ObjType::kEndpoint, err);
  if (cap == nullptr) return err;
  if (!cap->rights.write) {
    deny("cap.deny", current_tcb().name + ": send without write");
    return Sel4Error::kNoRights;
  }
  if (is_call && !cap->rights.grant) {
    // seL4_Call needs grant to attach the one-time reply capability.
    deny("cap.deny", current_tcb().name + ": call without grant");
    return Sel4Error::kNoRights;
  }
  if (msg.mrs.size() > Sel4Msg::kMaxMrs) return Sel4Error::kTruncated;

  // Fault injection: in-transit drop/delay/corrupt, applied after the
  // rights checks. Calls are never dropped — the caller would block
  // forever on a reply that cannot come; plans model lost requests as a
  // server crash instead. The receiver identity is only known when a
  // thread is already parked on the endpoint; wildcard-dst windows match
  // either way.
  bool fault_corrupt = false;
  std::uint64_t fault_seed = 0;
  if (const auto& filt = machine_.msg_filter()) {
    std::string dst_name;
    {
      auto& ep0 = std::get<EndpointObj>(obj(cap->object).payload);
      if (!ep0.receivers.empty()) {
        dst_name =
            std::get<TcbObj>(obj(ep0.receivers.front()).payload).name;
      }
    }
    const sim::MsgFaultAction act = filt(current_tcb().name, dst_name);
    if (act.drop && !is_call) return Sel4Error::kOk;
    fault_corrupt = act.corrupt;
    fault_seed = act.corrupt_seed;
    if (act.delay > 0) {
      machine_.charge(act.delay);
      cap = resolve(ep_slot, ObjType::kEndpoint, err);  // may be revoked
      if (cap == nullptr) return err;
    }
  }

  const int self_id = current_tcb_id();
  const int ep_id = cap->object;
  WaitingSender ws{self_id, msg, cap->badge, is_call, cap->rights.grant,
                   machine_.now()};
  if (fault_corrupt && !ws.msg.mrs.empty()) {
    sim::corrupt_bytes(reinterpret_cast<std::uint8_t*>(ws.msg.mrs.data()),
                       ws.msg.mrs.size() * sizeof(std::uint64_t),
                       fault_seed);
  }
  {
    // The endpoint hop is a flow span from the send syscall to delivery;
    // its context rides in the sender's TCB, never in the registers.
    auto& spans = machine_.spans();
    sim::Process* sp = machine_.current();
    const int spid = sp ? sp->pid() : -1;
    std::get<TcbObj>(obj(self_id).payload).out_span = spans.begin_flow(
        spid, machine_.now(), tag_ipc_span_, spans.current(spid));
  }

  auto& ep = std::get<EndpointObj>(obj(ep_id).payload);
  if (!ep.receivers.empty()) {
    const int recv_id = ep.receivers.front();
    ep.receivers.pop_front();
    TcbObj& receiver = std::get<TcbObj>(obj(recv_id).payload);
    deliver_to_receiver(receiver, recv_id, ws);
    machine_.make_ready(receiver.proc);
    if (is_call) {
      TcbObj& self = current_tcb();
      self.waiting_reply_from = recv_id;
      self.ipc_status = Sel4Error::kOk;
      machine_.block_current("sel4.await_reply");
      return self.ipc_status;
    }
    return Sel4Error::kOk;
  }
  if (!blocking) {
    TcbObj& self = current_tcb();
    machine_.spans().end_flow(machine_.now(), self.out_span);
    self.out_span = 0;
    return Sel4Error::kNotReady;
  }

  TcbObj& self = current_tcb();
  self.ipc_status = Sel4Error::kOk;
  ep.senders.push_back(std::move(ws));
  machine_.block_current(is_call ? "sel4.call" : "sel4.send");
  if (self.out_span != 0) {
    // The send never delivered (endpoint revoked / receiver gone): the
    // hop ends here.
    machine_.spans().end_flow(machine_.now(), self.out_span);
    self.out_span = 0;
  }
  return self.ipc_status;
}

RecvResult Sel4Kernel::do_recv(Slot ep_slot, Sel4Msg& out, bool blocking) {
  Sel4Error err;
  Capability* cap = resolve(ep_slot, ObjType::kEndpoint, err);
  if (cap == nullptr) return {err, 0};
  if (!cap->rights.read) {
    deny("cap.deny", current_tcb().name + ": recv without read");
    return {Sel4Error::kNoRights, 0};
  }
  const int ep_id = cap->object;
  const int self_id = current_tcb_id();
  TcbObj& self = current_tcb();
  self.recv_buf = &out;

  auto& ep = std::get<EndpointObj>(obj(ep_id).payload);
  if (!ep.senders.empty()) {
    WaitingSender ws = std::move(ep.senders.front());
    ep.senders.pop_front();
    deliver_to_receiver(self, self_id, ws);
    self.recv_buf = nullptr;
    if (!ws.is_call) {
      // Plain senders unblock on delivery; callers stay blocked for reply.
      TcbObj& sender = std::get<TcbObj>(obj(ws.tcb).payload);
      sender.ipc_status = Sel4Error::kOk;
      if (sender.proc != nullptr) machine_.make_ready(sender.proc);
    } else {
      TcbObj& sender = std::get<TcbObj>(obj(ws.tcb).payload);
      sender.waiting_reply_from = self_id;
    }
    return {Sel4Error::kOk, self.recv_badge};
  }
  if (!blocking) {
    self.recv_buf = nullptr;
    return {Sel4Error::kNotReady, 0};
  }
  self.ipc_status = Sel4Error::kOk;
  ep.receivers.push_back(self_id);
  machine_.block_current("sel4.recv");
  self.recv_buf = nullptr;
  return {self.ipc_status, self.recv_badge};
}

Sel4Error Sel4Kernel::send(Slot ep_slot, const Sel4Msg& msg) {
  machine_.enter_kernel();
  met_.sc_send.inc();
  return do_send(ep_slot, msg, /*blocking=*/true, /*is_call=*/false);
}

Sel4Error Sel4Kernel::nbsend(Slot ep_slot, const Sel4Msg& msg) {
  machine_.enter_kernel();
  met_.sc_nbsend.inc();
  const Sel4Error r =
      do_send(ep_slot, msg, /*blocking=*/false, /*is_call=*/false);
  // seL4_NBSend silently drops when nobody is waiting; we surface the
  // status for tests but treat kNotReady as a non-error.
  return r;
}

RecvResult Sel4Kernel::recv(Slot ep_slot, Sel4Msg& out) {
  machine_.enter_kernel();
  met_.sc_recv.inc();
  return do_recv(ep_slot, out, /*blocking=*/true);
}

RecvResult Sel4Kernel::nbrecv(Slot ep_slot, Sel4Msg& out) {
  machine_.enter_kernel();
  met_.sc_nbrecv.inc();
  return do_recv(ep_slot, out, /*blocking=*/false);
}

Sel4Error Sel4Kernel::call(Slot ep_slot, Sel4Msg& inout) {
  machine_.enter_kernel();
  met_.sc_call.inc();
  TcbObj& self = current_tcb();
  self.recv_buf = &inout;  // the reply lands here
  const Sel4Error r = do_send(ep_slot, inout, /*blocking=*/true,
                              /*is_call=*/true);
  self.recv_buf = nullptr;
  return r;
}

Sel4Kernel::TcbObj* Sel4Kernel::deliver_reply(TcbObj& server,
                                               const Sel4Msg& msg) {
  const int caller_id = server.reply_to_tcb;
  server.reply_to_tcb = -1;  // one-time: consumed
  TcbObj& caller = std::get<TcbObj>(obj(caller_id).payload);
  if (caller.proc == nullptr || caller.waiting_reply_from < 0) {
    return nullptr;
  }
  if (caller.recv_buf != nullptr) {
    *caller.recv_buf = msg;
    caller.recv_buf->transfer_cap_slot = -1;
  }
  caller.waiting_reply_from = -1;
  caller.ipc_status = Sel4Error::kOk;
  reply_hop_span(server, caller);
  machine_.make_ready(caller.proc);
  return &caller;
}

Sel4Error Sel4Kernel::reply(const Sel4Msg& msg) {
  machine_.enter_kernel();
  met_.sc_reply.inc();
  TcbObj& self = current_tcb();
  if (self.reply_to_tcb < 0) return Sel4Error::kNoReplyCap;
  const TcbObj* caller = deliver_reply(self, msg);
  if (caller == nullptr) return Sel4Error::kDeleted;
  machine_.trace().emit(machine_.now(),
                        self.proc ? self.proc->pid() : -1,
                        sim::TraceKind::kIpc, "sel4.reply",
                        self.name + " -> " + caller->name);
  return Sel4Error::kOk;
}

RecvResult Sel4Kernel::reply_recv(Slot ep_slot, const Sel4Msg& reply_msg,
                                  Sel4Msg& out) {
  machine_.enter_kernel();
  met_.sc_reply_recv.inc();
  TcbObj& self = current_tcb();
  if (self.reply_to_tcb >= 0) deliver_reply(self, reply_msg);
  return do_recv(ep_slot, out, /*blocking=*/true);
}

void Sel4Kernel::set_receive_slot(Slot slot) {
  machine_.enter_kernel();
  current_tcb().receive_slot = slot;
}

// ---- Notifications ----

Sel4Error Sel4Kernel::signal(Slot ntfn_slot) {
  machine_.enter_kernel();
  met_.sc_signal.inc();
  Sel4Error err;
  Capability* cap = resolve(ntfn_slot, ObjType::kNotification, err);
  if (cap == nullptr) return err;
  if (!cap->rights.write) return Sel4Error::kNoRights;
  // Notifications are a bit-OR into a single word: no room for causal
  // context, so the trace deliberately breaks here (protocol limit),
  // exactly like MINIX notify bits.
  auto& n = std::get<NotificationObj>(obj(cap->object).payload);
  n.word |= (cap->badge != 0 ? cap->badge : 1);
  if (!n.waiters.empty()) {
    const int tcb_id = n.waiters.front();
    n.waiters.pop_front();
    TcbObj& t = std::get<TcbObj>(obj(tcb_id).payload);
    t.ipc_status = Sel4Error::kOk;
    if (t.proc != nullptr) machine_.make_ready(t.proc);
  }
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::wait(Slot ntfn_slot, std::uint64_t* bits_out) {
  machine_.enter_kernel();
  met_.sc_wait.inc();
  Sel4Error err;
  Capability* cap = resolve(ntfn_slot, ObjType::kNotification, err);
  if (cap == nullptr) return err;
  if (!cap->rights.read) return Sel4Error::kNoRights;
  const int obj_id = cap->object;
  auto* n = &std::get<NotificationObj>(obj(obj_id).payload);
  if (n->word == 0) {
    TcbObj& self = current_tcb();
    self.ipc_status = Sel4Error::kOk;
    n->waiters.push_back(current_tcb_id());
    machine_.block_current("sel4.wait");
    if (self.ipc_status != Sel4Error::kOk) return self.ipc_status;
    n = &std::get<NotificationObj>(obj(obj_id).payload);
  }
  if (bits_out != nullptr) *bits_out = n->word;
  n->word = 0;
  return Sel4Error::kOk;
}

// ---- Frames ----

Sel4Error Sel4Kernel::frame_write(Slot frame_slot, std::size_t offset,
                                  const std::uint8_t* src, std::size_t len) {
  machine_.enter_kernel();
  met_.sc_frame.inc();
  Sel4Error err;
  Capability* cap = resolve(frame_slot, ObjType::kFrame, err);
  if (cap == nullptr) return err;
  if (!cap->rights.write) {
    deny("cap.deny", current_tcb().name + ": frame write without W");
    return Sel4Error::kNoRights;
  }
  auto& frame = std::get<FrameObj>(obj(cap->object).payload);
  if (offset > frame.data.size() || len > frame.data.size() - offset) {
    return Sel4Error::kTruncated;
  }
  std::copy(src, src + len, frame.data.begin() + static_cast<long>(offset));
  return Sel4Error::kOk;
}

Sel4Error Sel4Kernel::frame_read(Slot frame_slot, std::size_t offset,
                                 std::uint8_t* dst, std::size_t len) {
  machine_.enter_kernel();
  met_.sc_frame.inc();
  Sel4Error err;
  Capability* cap = resolve(frame_slot, ObjType::kFrame, err);
  if (cap == nullptr) return err;
  if (!cap->rights.read) {
    deny("cap.deny", current_tcb().name + ": frame read without R");
    return Sel4Error::kNoRights;
  }
  auto& frame = std::get<FrameObj>(obj(cap->object).payload);
  if (offset > frame.data.size() || len > frame.data.size() - offset) {
    return Sel4Error::kTruncated;
  }
  std::copy(frame.data.begin() + static_cast<long>(offset),
            frame.data.begin() + static_cast<long>(offset + len), dst);
  return Sel4Error::kOk;
}

// ---- Introspection ----

Sel4Error Sel4Kernel::cnode_inspect(Slot cnode_cap, Slot slot_in_target,
                                    CapInfo& out) {
  machine_.enter_kernel();
  Sel4Error err;
  Capability* cn = resolve(cnode_cap, ObjType::kCNode, err);
  if (cn == nullptr) return err;
  CNodeObj& target = std::get<CNodeObj>(obj(cn->object).payload);
  Capability* cap = cap_at(target, slot_in_target);
  if (cap == nullptr) return Sel4Error::kBadSlot;
  out = CapInfo{cap->valid(), cap->type, cap->rights, cap->badge,
                cap->object};
  return Sel4Error::kOk;
}

bool Sel4Kernel::probe_own_slot(Slot slot) {
  machine_.enter_kernel();
  CNodeObj& cs = cspace_of(current_tcb());
  Capability* cap = cap_at(cs, slot);
  return cap != nullptr && cap->valid();
}

int Sel4Kernel::cspace_slots() {
  machine_.enter_kernel();
  return static_cast<int>(cspace_of(current_tcb()).slots.size());
}

// ---- Thread death ----

void Sel4Kernel::on_thread_gone(int tcb_id) {
  TcbObj& dead = std::get<TcbObj>(obj(tcb_id).payload);
  // Purge from every endpoint and notification queue.
  for (auto& o : objects_) {
    if (o.type == ObjType::kEndpoint) {
      auto& ep = std::get<EndpointObj>(o.payload);
      for (auto it = ep.senders.begin(); it != ep.senders.end();) {
        it = (it->tcb == tcb_id) ? ep.senders.erase(it) : std::next(it);
      }
      for (auto it = ep.receivers.begin(); it != ep.receivers.end();) {
        it = (*it == tcb_id) ? ep.receivers.erase(it) : std::next(it);
      }
    } else if (o.type == ObjType::kNotification) {
      auto& n = std::get<NotificationObj>(o.payload);
      for (auto it = n.waiters.begin(); it != n.waiters.end();) {
        it = (*it == tcb_id) ? n.waiters.erase(it) : std::next(it);
      }
    } else if (o.type == ObjType::kTcb) {
      auto& t = std::get<TcbObj>(o.payload);
      // Callers waiting on a reply from the dead server unblock with an
      // error instead of hanging forever.
      if (t.waiting_reply_from == tcb_id && t.proc != nullptr) {
        t.waiting_reply_from = -1;
        t.ipc_status = Sel4Error::kDeleted;
        machine_.make_ready(t.proc);
      }
      if (t.reply_to_tcb == tcb_id) t.reply_to_tcb = -1;
    }
  }
  if (dead.proc != nullptr) pid_to_tcb_.erase(dead.proc->pid());
  dead.proc = nullptr;
  dead.recv_buf = nullptr;
  dead.reply_to_tcb = -1;
  dead.waiting_reply_from = -1;
  dead.out_span = 0;  // the machine abandons the pid's open spans
}

}  // namespace mkbas::sel4
