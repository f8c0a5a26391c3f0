#include "minix/kernel.hpp"

#include <cassert>

namespace mkbas::minix {

const char* to_string(IpcResult r) {
  switch (r) {
    case IpcResult::kOk:
      return "OK";
    case IpcResult::kNotAllowed:
      return "EPERM";
    case IpcResult::kDeadSrcDst:
      return "EDEADSRCDST";
    case IpcResult::kBadEndpoint:
      return "EBADEPT";
    case IpcResult::kNotReady:
      return "ENOTREADY";
    case IpcResult::kQuotaExceeded:
      return "EQUOTA";
    case IpcResult::kDeadlock:
      return "ELOCKED";
  }
  return "?";
}

MinixKernel::MinixKernel(sim::Machine& machine, AcmPolicy policy)
    : machine_(machine), policy_(std::move(policy)), slots_(kNumSlots) {
  auto& mx = machine_.metrics();
  met_.sc_send = mx.counter("minix.syscall.send");
  met_.sc_sendnb = mx.counter("minix.syscall.sendnb");
  met_.sc_receive = mx.counter("minix.syscall.receive");
  met_.sc_nbreceive = mx.counter("minix.syscall.nbreceive");
  met_.sc_sendrec = mx.counter("minix.syscall.sendrec");
  met_.sc_senda = mx.counter("minix.syscall.senda");
  met_.sc_notify = mx.counter("minix.syscall.notify");
  met_.sc_grant = mx.counter("minix.syscall.grant");
  met_.sc_safecopy = mx.counter("minix.syscall.safecopy");
  met_.sc_fork = mx.counter("minix.syscall.fork2");
  met_.sc_kill = mx.counter("minix.syscall.pm_kill");
  met_.sc_exit = mx.counter("minix.syscall.pm_exit");
  met_.acm_allowed = mx.counter("minix.acm.allowed");
  met_.acm_denied = mx.counter("minix.acm.denied");
  met_.kill_denied = mx.counter("minix.acm.kill_denied");
  met_.fork_quota_denied = mx.counter("minix.acm.fork_quota_denied");
  met_.rs_restarts = mx.counter("minix.rs.restarts");
  met_.rs_giveup = mx.counter("minix.rs.giveup");
  met_.ipc_latency = mx.log_histogram("minix.ipc.latency", 4, 1e7);
  met_.rs_mttr = mx.log_histogram("minix.rs.mttr", 4, 1e8);
  // Denial-rate health signal: a handful of scattered probes drifts the
  // CUSUM, a denial storm crosses the surge threshold on the first
  // closed window (no warmup needed).
  obs::DetectorConfig denial_cfg;
  denial_cfg.rate = true;
  denial_cfg.surge = 64.0;
  denial_sig_ = machine_.health().signal("minix.acm.denied", denial_cfg);
  // Span/audit tags are interned once here; the IPC fast path must not
  // touch the registry's string table.
  auto& tags = sim::TagRegistry::instance();
  tag_ipc_span_ = tags.intern("minix.ipc");
  tag_pm_audit_ = tags.intern("pm.audit");
  tag_rs_restart_ = tags.intern("rs.restart");
  tag_note_restart_ = tags.intern("restart");
  tag_acm_allow_ = tags.intern("acm.allow");
  tag_acm_deny_ = tags.intern("acm.deny");
  tag_deliver_ = tags.intern("minix.deliver");
  for (int i = 0; i < kNumSlots; ++i) {
    slots_[i].slot = i;
    slots_[i].generation = 1;
  }
  // The PM server boots first, at high priority, like a real system server.
  pm_ep_ = spawn_internal("pm", kPmAcId, [this] { pm_main(); },
                          /*priority=*/2);
}

// ---- Process table management ----

MinixKernel::Pcb* MinixKernel::lookup_pcb(Endpoint ep) {
  if (!ep.valid()) return nullptr;
  const int slot = ep.slot();
  if (slot < 0 || slot >= kNumSlots) return nullptr;
  Pcb& p = slots_[slot];
  if (!p.live || p.generation != ep.generation()) return nullptr;
  return &p;
}

const MinixKernel::Pcb* MinixKernel::lookup_pcb(Endpoint ep) const {
  return const_cast<MinixKernel*>(this)->lookup_pcb(ep);
}

MinixKernel::Pcb& MinixKernel::current_pcb() {
  sim::Process* proc = machine_.current();
  if (proc == nullptr) {
    throw std::logic_error("MINIX syscall outside process context");
  }
  const auto it = pid_to_slot_.find(proc->pid());
  if (it == pid_to_slot_.end()) {
    throw std::logic_error("caller is not a MINIX process");
  }
  return slots_[it->second];
}

Endpoint MinixKernel::spawn_internal(const std::string& name, int ac_id,
                                     std::function<void()> body,
                                     int priority) {
  int slot = -1;
  for (int i = 0; i < kNumSlots; ++i) {
    if (!slots_[i].live) {
      slot = i;
      break;
    }
  }
  if (slot < 0) {
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                          "minix.table_full", name);
    return Endpoint::none();
  }
  Pcb& pcb = slots_[slot];
  if (reincarnation_enabled_ && name != "rs") {
    restart_templates_[name] = RestartTemplate{ac_id, body, priority};
  }
  sim::Process* proc = machine_.spawn(name, std::move(body), priority);
  if (proc == nullptr) return Endpoint::none();
  pcb.live = true;
  pcb.name = name;
  pcb.ac_id = ac_id;
  pcb.proc = proc;
  pcb.wait = Pcb::Wait::kNone;
  pcb.wait_partner = Endpoint::none();
  pcb.user_buf = nullptr;
  pcb.out_span = 0;
  pcb.sender_queue.clear();
  pcb.notify_from.clear();
  pcb.async_in.clear();
  pcb.grants.clear();
  pcb.forks_done = 0;
  pid_to_slot_[proc->pid()] = slot;
  names_[name] = ep_of(pcb);
  proc->add_exit_hook([this, slot](sim::Process&) {
    on_process_gone(slots_[slot]);
  });
  machine_.trace().emit(machine_.now(), proc->pid(), sim::TraceKind::kProcess,
                        "minix.load",
                        name + " ac_id=" + std::to_string(ac_id) +
                            " ep=" + std::to_string(ep_of(pcb).raw()));
  return ep_of(pcb);
}

Endpoint MinixKernel::srv_fork2(const std::string& name, int ac_id,
                                std::function<void()> body, int priority) {
  return spawn_internal(name, ac_id, std::move(body), priority);
}

void MinixKernel::on_process_gone(Pcb& pcb) {
  if (!pcb.live) return;
  const Endpoint dead_ep = ep_of(pcb);

  // Senders blocked on us die with EDEADSRCDST. Their in-flight hop
  // spans close in do_send when they resume and see the failure.
  for (int sender_slot : pcb.sender_queue) {
    Pcb& s = slots_[sender_slot];
    if (s.live && s.wait == Pcb::Wait::kSending &&
        s.wait_partner == dead_ep) {
      s.wait = Pcb::Wait::kNone;
      s.ipc_result = IpcResult::kDeadSrcDst;
      machine_.make_ready(s.proc);
    }
  }
  pcb.sender_queue.clear();

  // Anyone blocked receiving specifically from us, or blocked in a send we
  // never accepted, also unblocks with EDEADSRCDST.
  for (Pcb& other : slots_) {
    if (!other.live || &other == &pcb) continue;
    if (other.wait == Pcb::Wait::kReceiving &&
        other.wait_partner == dead_ep) {
      other.wait = Pcb::Wait::kNone;
      other.ipc_result = IpcResult::kDeadSrcDst;
      machine_.make_ready(other.proc);
    }
    // Drop our slot from other processes' sender queues (we may have been
    // blocked sending to them). Pending notifications are kept: MINIX
    // stores them as a bitmap in the receiver, surviving sender death.
    auto& q = other.sender_queue;
    for (auto it = q.begin(); it != q.end();) {
      it = (*it == pcb.slot) ? q.erase(it) : std::next(it);
    }
  }

  names_.erase(pcb.name);
  if (pcb.proc != nullptr) pid_to_slot_.erase(pcb.proc->pid());
  pcb.grants.clear();  // grants die with their creator

  // Reincarnation (MINIX's self-repairing behaviour): on the abnormal
  // death of a registered system process the kernel notifies PM, which
  // relays to the RS — the same notify chain real MINIX 3 uses.
  if (reincarnation_enabled_ && !machine_.is_shutting_down() &&
      pcb.proc != nullptr &&
      (pcb.proc->kill_pending() || pcb.proc->crashed())) {
    const auto it = restart_templates_.find(pcb.name);
    if (it != restart_templates_.end()) {
      machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                            "rs.death_noticed", pcb.name);
      Message died;
      died.m_type = PmProtocol::kProcDied;
      died.put<std::int64_t>(0, machine_.now());
      died.put_str(8, pcb.name);
      // The death notice continues the trace that was active when the
      // process died (still readable here: exit hooks run before the
      // machine abandons the pid's spans), so the eventual restart
      // chains back to the interrupted operation.
      kernel_notify_pm(died, machine_.spans().current(pcb.proc->pid()));
    }
  }

  pcb.live = false;
  pcb.proc = nullptr;
  pcb.user_buf = nullptr;
  pcb.out_span = 0;  // the machine abandons the pid's open spans
  ++pcb.generation;  // stale endpoints to this slot now fail to resolve
}

void MinixKernel::enable_reincarnation(sim::Duration restart_delay) {
  if (reincarnation_enabled_) return;
  reincarnation_enabled_ = true;
  default_restart_delay_ = restart_delay;
  // The PM -> RS relay edge is part of the trusted-base policy, installed
  // when the RS boots — user processes still cannot reach the RS.
  policy_.allow(kPmAcId, kRsAcId, {RsProtocol::kRestart});
  rs_ep_ = spawn_internal("rs", kRsAcId, [this] { rs_main(); },
                          /*priority=*/2);
}

void MinixKernel::kernel_notify_pm(const Message& m, obs::SpanContext ctx) {
  Pcb* pm = lookup_pcb(pm_ep_);
  if (pm == nullptr) return;
  Message stamped = m;
  stamped.m_source = Endpoint::none().raw();  // kernel-origin marker
  // Kernel-origin hop: opened on pid -1 so the span is not abandoned
  // along with the process whose death it reports.
  auto& spans = machine_.spans();
  const std::uint64_t span =
      spans.begin_flow(-1, machine_.now(), tag_ipc_span_, ctx);
  if (pm->wait == Pcb::Wait::kReceiving && pm->wait_partner.is_any()) {
    *pm->user_buf = stamped;
    pm->wait = Pcb::Wait::kNone;
    pm->user_buf = nullptr;
    pm->ipc_result = IpcResult::kOk;
    if (span != 0 && pm->proc != nullptr) {
      spans.set_current(pm->proc->pid(), spans.context_of(span));
    }
    spans.end_flow(machine_.now(), span);
    machine_.make_ready(pm->proc);
    return;
  }
  if (pm->async_in.size() >= kAsyncDepth) {  // PM wedged: drop
    spans.end_flow(machine_.now(), span);
    return;
  }
  pm->async_in.push_back(Pcb::AsyncMsg{stamped, machine_.now(), span});
}

void MinixKernel::rs_main() {
  Pcb& self = current_pcb();
  for (;;) {
    Message req;
    const IpcResult r = do_receive(self, Endpoint::any(), req);
    machine_.enter_kernel();
    if (r != IpcResult::kOk) continue;
    if (req.m_type != RsProtocol::kRestart) continue;
    const auto died_at = req.get<std::int64_t>(0);
    const std::string name = req.get_str(8);

    RestartPolicy pol;
    pol.delay = default_restart_delay_;
    const auto pit = restart_policies_.find(name);
    if (pit != restart_policies_.end()) pol = pit->second;

    int& count = restart_counts_[name];
    if (pol.max_restarts >= 0 && count >= pol.max_restarts) {
      met_.rs_giveup.inc();
      machine_.trace().emit(machine_.now(), self.proc->pid(),
                            sim::TraceKind::kProcess, "rs.giveup",
                            name + " after " + std::to_string(count) +
                                " restarts");
      continue;
    }
    auto delay = static_cast<double>(pol.delay);
    for (int i = 0; i < count; ++i) delay *= pol.backoff;
    machine_.sleep_for(static_cast<sim::Duration>(delay));

    // Re-resolve after sleeping: the template map may have changed, and
    // someone else may already have brought the server back.
    const auto it = restart_templates_.find(name);
    if (it == restart_templates_.end()) continue;
    if (lookup(name).valid()) continue;
    const RestartTemplate& t = it->second;
    // The restart is a scoped span annotated "restart". RS's current
    // context is still the relayed death notice, so the span chains
    // back to the trace that was interrupted by the crash — the
    // reincarnated server visibly continues that trace.
    const std::uint64_t rspan = machine_.spans().begin(
        self.proc->pid(), machine_.now(), tag_rs_restart_);
    const Endpoint ep = spawn_internal(name, t.ac_id, t.body, t.priority);
    if (!ep.valid()) {
      machine_.spans().end(self.proc->pid(), machine_.now(), rspan);
      continue;
    }
    ++restarts_;
    ++count;
    met_.rs_restarts.inc();
    met_.rs_mttr.record(static_cast<double>(machine_.now() - died_at));
    machine_.trace().emit(machine_.now(), self.proc->pid(),
                          sim::TraceKind::kProcess, "rs.restart",
                          name + " ac_id=" + std::to_string(t.ac_id),
                          sim::to_seconds(machine_.now() - died_at));
    machine_.spans().end(self.proc->pid(), machine_.now(), rspan,
                         tag_note_restart_);
  }
}

void MinixKernel::kernel_kill(Endpoint target) {
  Pcb* pcb = lookup_pcb(target);
  if (pcb == nullptr || pcb->proc == nullptr) return;
  machine_.kill(pcb->proc);  // exit hook performs on_process_gone()
}

// ---- IPC ----

void MinixKernel::trace_sec(const Pcb& src, const Pcb& dst, int m_type,
                            bool allowed) {
  // Single emission point for acm.allow/acm.deny: the counters below are
  // therefore exactly the trace tag counts, even in ring-buffer mode.
  if (allowed) {
    met_.acm_allowed.inc();
  } else {
    met_.acm_denied.inc();
    denial_sig_.count(machine_.now());
  }
  const int pid = src.proc ? src.proc->pid() : -1;
  // Formatted in place inside the recycled trace slot: the per-message
  // fast path makes no string temporaries and, in ring mode, no
  // allocations at all.
  std::string& d = machine_.trace()
                       .emit_slot(machine_.now(), pid,
                                  sim::TraceKind::kSecurity,
                                  allowed ? tag_acm_allow_ : tag_acm_deny_,
                                  static_cast<double>(m_type))
                       .detail;
  d.append(src.name);
  d.append("(ac");
  sim::append_int(d, src.ac_id);
  d.append(") -> ");
  d.append(dst.name);
  d.append("(ac");
  sim::append_int(d, dst.ac_id);
  d.append(") type=");
  sim::append_int(d, m_type);
  if (!allowed) {
    machine_.audit().record(machine_.now(), machine_.machine_id(), pid,
                            "acm.deny", d, machine_.spans(),
                            machine_.spans().current(pid));
  }
}

bool MinixKernel::would_deadlock(const Pcb& src, const Pcb& first_dst) const {
  // Sending to oneself can never rendezvous.
  if (&first_dst == &src) return true;
  // Follow the chain of blocked senders; a cycle back to src means this
  // send can never complete (MINIX returns ELOCKED).
  const Pcb* cur = &first_dst;
  for (int hops = 0; hops < kNumSlots; ++hops) {
    if (cur->wait != Pcb::Wait::kSending) return false;
    const Pcb* next = lookup_pcb(cur->wait_partner);
    if (next == nullptr) return false;
    if (next == &src) return true;
    cur = next;
  }
  return true;  // over-long chain: treat as a cycle
}

std::uint64_t MinixKernel::begin_ipc_span(const Pcb& src) {
  auto& spans = machine_.spans();
  const int pid = src.proc != nullptr ? src.proc->pid() : -1;
  return spans.begin_flow(pid, machine_.now(), tag_ipc_span_,
                          spans.current(pid));
}

void MinixKernel::finish_ipc_span(std::uint64_t span, const Pcb& to) {
  if (span == 0) return;
  auto& spans = machine_.spans();
  if (to.proc != nullptr) {
    spans.set_current(to.proc->pid(), spans.context_of(span));
  }
  spans.end_flow(machine_.now(), span);
}

void MinixKernel::deliver(Pcb& from, Pcb& to, const Message& m) {
  assert(to.wait == Pcb::Wait::kReceiving && to.user_buf != nullptr);
  met_.ipc_latency.record(
      static_cast<double>(machine_.now() - from.send_start));
  finish_ipc_span(from.out_span, to);
  from.out_span = 0;
  *to.user_buf = m;
  // The kernel stamps the true sender identity; user-supplied m_source is
  // discarded. This is the anti-spoofing property of §IV.D.2.
  to.user_buf->m_source = ep_of(from).raw();
  to.wait = Pcb::Wait::kNone;
  to.user_buf = nullptr;
  to.ipc_result = IpcResult::kOk;
  machine_.make_ready(to.proc);
  std::string& d = machine_.trace()
                       .emit_slot(machine_.now(),
                                  from.proc ? from.proc->pid() : -1,
                                  sim::TraceKind::kIpc, tag_deliver_)
                       .detail;
  d.append(from.name);
  d.append(" -> ");
  d.append(to.name);
  d.append(" type=");
  sim::append_int(d, m.m_type);
}

IpcResult MinixKernel::do_send(Pcb& src, Endpoint dst_ep, Message& m,
                               bool blocking) {
  src.send_start = machine_.now();
  Pcb* dst = lookup_pcb(dst_ep);
  if (dst == nullptr) return IpcResult::kDeadSrcDst;
  if (!policy_.allowed(src.ac_id, dst->ac_id, m.m_type)) {
    trace_sec(src, *dst, m.m_type, /*allowed=*/false);
    return IpcResult::kNotAllowed;
  }
  trace_sec(src, *dst, m.m_type, /*allowed=*/true);

  // Fault injection: the in-transit hook runs after the security check
  // (a dropped message was still a *permitted* message). Drop is silent —
  // the sender believes the send succeeded, as on a lossy wire.
  if (const auto& filt = machine_.msg_filter()) {
    const sim::MsgFaultAction act = filt(src.name, dst->name);
    if (act.drop) return IpcResult::kOk;
    if (act.corrupt) {
      // The parked sender's buffer is the in-flight message in this
      // rendezvous model, so corruption lands there.
      sim::corrupt_bytes(m.payload.data(), m.payload.size(),
                         act.corrupt_seed);
    }
    if (act.delay > 0) {
      machine_.charge(act.delay);
      dst = lookup_pcb(dst_ep);  // the destination may have died meanwhile
      if (dst == nullptr) return IpcResult::kDeadSrcDst;
    }
  }

  // The message hop is a flow span from the send syscall to delivery.
  // Its context travels kernel-side (Pcb::out_span), never in the
  // 64-byte payload, mirroring how m_source is kernel-stamped.
  const std::uint64_t span = begin_ipc_span(src);
  if (dst->wait == Pcb::Wait::kReceiving &&
      (dst->wait_partner.is_any() || dst->wait_partner == ep_of(src))) {
    src.out_span = span;
    deliver(src, *dst, m);
    return IpcResult::kOk;
  }
  if (!blocking) {
    machine_.spans().end_flow(machine_.now(), span);
    return IpcResult::kNotReady;
  }
  if (would_deadlock(src, *dst)) {
    machine_.spans().end_flow(machine_.now(), span);
    return IpcResult::kDeadlock;
  }

  src.wait = Pcb::Wait::kSending;
  src.wait_partner = dst_ep;
  src.user_buf = &m;
  src.ipc_result = IpcResult::kOk;
  src.out_span = span;
  dst->sender_queue.push_back(src.slot);
  machine_.block_current("minix.send");
  src.user_buf = nullptr;
  if (src.out_span != 0) {
    // The send failed (partner died): the hop ends here, undelivered.
    machine_.spans().end_flow(machine_.now(), src.out_span);
    src.out_span = 0;
  }
  return src.ipc_result;
}

IpcResult MinixKernel::do_receive(Pcb& self, Endpoint from, Message& out,
                                  bool blocking) {
  // MINIX delivers pending notifications ahead of queued senders.
  for (auto it = self.notify_from.begin(); it != self.notify_from.end();
       ++it) {
    Pcb& notifier = slots_[*it];
    if (from.is_any() || (notifier.live && from == ep_of(notifier))) {
      out = Message{};
      out.m_type = kNotifyMType;
      out.m_source = notifier.live ? ep_of(notifier).raw()
                                   : Endpoint::none().raw();
      self.notify_from.erase(it);
      return IpcResult::kOk;
    }
  }
  // Queued asynchronous messages come next.
  for (auto it = self.async_in.begin(); it != self.async_in.end(); ++it) {
    if (from.is_any() || from.raw() == it->msg.m_source) {
      out = it->msg;
      met_.ipc_latency.record(
          static_cast<double>(machine_.now() - it->enqueued));
      if (it->span != 0) {
        auto& spans = machine_.spans();
        spans.set_current(self.proc != nullptr ? self.proc->pid() : -1,
                          spans.context_of(it->span));
        spans.end_flow(machine_.now(), it->span);
      }
      self.async_in.erase(it);
      return IpcResult::kOk;
    }
  }
  for (auto it = self.sender_queue.begin(); it != self.sender_queue.end();
       ++it) {
    Pcb& sender = slots_[*it];
    if (!sender.live || sender.wait != Pcb::Wait::kSending) continue;
    if (from.is_any() || from == ep_of(sender)) {
      out = *sender.user_buf;
      out.m_source = ep_of(sender).raw();
      met_.ipc_latency.record(
          static_cast<double>(machine_.now() - sender.send_start));
      finish_ipc_span(sender.out_span, self);
      sender.out_span = 0;
      sender.wait = Pcb::Wait::kNone;
      sender.ipc_result = IpcResult::kOk;
      self.sender_queue.erase(it);
      machine_.make_ready(sender.proc);
      machine_.trace().emit(
          machine_.now(), self.proc ? self.proc->pid() : -1,
          sim::TraceKind::kIpc, "minix.deliver",
          sender.name + " -> " + self.name +
              " type=" + std::to_string(out.m_type));
      return IpcResult::kOk;
    }
  }
  if (!from.is_any() && lookup_pcb(from) == nullptr) {
    return IpcResult::kDeadSrcDst;
  }
  if (!blocking) return IpcResult::kNotReady;
  self.wait = Pcb::Wait::kReceiving;
  self.wait_partner = from;
  self.user_buf = &out;
  self.ipc_result = IpcResult::kOk;
  machine_.block_current("minix.recv");
  self.user_buf = nullptr;
  return self.ipc_result;
}

IpcResult MinixKernel::do_send_async(Pcb& src, Endpoint dst_ep, Message& m) {
  src.send_start = machine_.now();
  Pcb* dst = lookup_pcb(dst_ep);
  if (dst == nullptr) return IpcResult::kDeadSrcDst;
  if (!policy_.allowed(src.ac_id, dst->ac_id, m.m_type)) {
    trace_sec(src, *dst, m.m_type, /*allowed=*/false);
    return IpcResult::kNotAllowed;
  }
  trace_sec(src, *dst, m.m_type, /*allowed=*/true);
  if (const auto& filt = machine_.msg_filter()) {
    const sim::MsgFaultAction act = filt(src.name, dst->name);
    if (act.drop) return IpcResult::kOk;
    if (act.corrupt) {
      sim::corrupt_bytes(m.payload.data(), m.payload.size(),
                         act.corrupt_seed);
    }
    if (act.delay > 0) {
      machine_.charge(act.delay);
      dst = lookup_pcb(dst_ep);
      if (dst == nullptr) return IpcResult::kDeadSrcDst;
    }
  }
  const std::uint64_t span = begin_ipc_span(src);
  if (dst->wait == Pcb::Wait::kReceiving &&
      (dst->wait_partner.is_any() || dst->wait_partner == ep_of(src))) {
    src.out_span = span;
    deliver(src, *dst, m);
    return IpcResult::kOk;
  }
  if (dst->async_in.size() >= kAsyncDepth) {
    machine_.spans().end_flow(machine_.now(), span);
    return IpcResult::kNotReady;
  }
  Message stamped = m;
  stamped.m_source = ep_of(src).raw();
  // The hop span rides in the mailbox entry: an async message may
  // outlive its sender, and delivery must still continue the trace.
  dst->async_in.push_back(Pcb::AsyncMsg{stamped, machine_.now(), span});
  return IpcResult::kOk;
}

IpcResult MinixKernel::ipc_send(Endpoint dst, Message& m) {
  machine_.enter_kernel();
  met_.sc_send.inc();
  return do_send(current_pcb(), dst, m, /*blocking=*/true);
}

IpcResult MinixKernel::ipc_sendnb(Endpoint dst, Message& m) {
  machine_.enter_kernel();
  met_.sc_sendnb.inc();
  return do_send(current_pcb(), dst, m, /*blocking=*/false);
}

IpcResult MinixKernel::ipc_receive(Endpoint src, Message& out) {
  machine_.enter_kernel();
  met_.sc_receive.inc();
  return do_receive(current_pcb(), src, out);
}

IpcResult MinixKernel::ipc_nbreceive(Endpoint src, Message& out) {
  machine_.enter_kernel();
  met_.sc_nbreceive.inc();
  return do_receive(current_pcb(), src, out, /*blocking=*/false);
}

IpcResult MinixKernel::ipc_sendrec(Endpoint dst, Message& m) {
  machine_.enter_kernel();
  met_.sc_sendrec.inc();
  Pcb& self = current_pcb();
  const IpcResult sent = do_send(self, dst, m, /*blocking=*/true);
  if (sent != IpcResult::kOk) return sent;
  return do_receive(self, dst, m);
}

IpcResult MinixKernel::ipc_senda(Endpoint dst, Message& m) {
  machine_.enter_kernel();
  met_.sc_senda.inc();
  return do_send_async(current_pcb(), dst, m);
}

IpcResult MinixKernel::ipc_notify(Endpoint dst) {
  machine_.enter_kernel();
  met_.sc_notify.inc();
  Pcb& self = current_pcb();
  self.send_start = machine_.now();
  Pcb* target = lookup_pcb(dst);
  if (target == nullptr) return IpcResult::kDeadSrcDst;
  if (!policy_.allowed(self.ac_id, target->ac_id, kNotifyMType)) {
    trace_sec(self, *target, kNotifyMType, /*allowed=*/false);
    return IpcResult::kNotAllowed;
  }
  // Notifications carry no span context: MINIX stores them as a single
  // bit in the receiver, so there is no room for causal metadata — the
  // trace deliberately breaks here, modeling the real protocol limit.
  if (target->wait == Pcb::Wait::kReceiving &&
      (target->wait_partner.is_any() ||
       target->wait_partner == ep_of(self))) {
    Message m;
    m.m_type = kNotifyMType;
    deliver(self, *target, m);
    return IpcResult::kOk;
  }
  target->notify_from.insert(self.slot);
  return IpcResult::kOk;
}

// ---- Memory grants ----

MinixKernel::GrantId MinixKernel::grant_create(Endpoint grantee,
                                               std::uint8_t* base,
                                               std::size_t len,
                                               GrantAccess access) {
  machine_.enter_kernel();
  met_.sc_grant.inc();
  if (base == nullptr || len == 0 || lookup_pcb(grantee) == nullptr) {
    return -1;
  }
  Pcb& self = current_pcb();
  const GrantId id = next_grant_id_++;
  self.grants[id] = Pcb::Grant{grantee, base, len, access};
  return id;
}

IpcResult MinixKernel::grant_revoke(GrantId id) {
  machine_.enter_kernel();
  met_.sc_grant.inc();
  return current_pcb().grants.erase(id) != 0 ? IpcResult::kOk
                                             : IpcResult::kBadEndpoint;
}

namespace {
constexpr std::size_t kCopyBytesPerUs = 512;  // simulated copy bandwidth
}

IpcResult MinixKernel::safecopy_from(Endpoint granter, GrantId id,
                                     std::size_t offset, std::uint8_t* dst,
                                     std::size_t len) {
  machine_.enter_kernel();
  met_.sc_safecopy.inc();
  Pcb& self = current_pcb();
  Pcb* owner = lookup_pcb(granter);
  if (owner == nullptr) return IpcResult::kDeadSrcDst;
  const auto it = owner->grants.find(id);
  if (it == owner->grants.end()) return IpcResult::kBadEndpoint;
  const Pcb::Grant& g = it->second;
  if (g.grantee != ep_of(self)) {
    trace_sec(self, *owner, -1, /*allowed=*/false);
    return IpcResult::kNotAllowed;
  }
  if (!g.access.read) return IpcResult::kNotAllowed;
  if (offset > g.len || len > g.len - offset) return IpcResult::kNotAllowed;
  std::memcpy(dst, g.base + offset, len);
  machine_.charge(static_cast<sim::Duration>(len / kCopyBytesPerUs));
  return IpcResult::kOk;
}

IpcResult MinixKernel::safecopy_to(Endpoint granter, GrantId id,
                                   std::size_t offset,
                                   const std::uint8_t* src, std::size_t len) {
  machine_.enter_kernel();
  met_.sc_safecopy.inc();
  Pcb& self = current_pcb();
  Pcb* owner = lookup_pcb(granter);
  if (owner == nullptr) return IpcResult::kDeadSrcDst;
  const auto it = owner->grants.find(id);
  if (it == owner->grants.end()) return IpcResult::kBadEndpoint;
  const Pcb::Grant& g = it->second;
  if (g.grantee != ep_of(self)) {
    trace_sec(self, *owner, -1, /*allowed=*/false);
    return IpcResult::kNotAllowed;
  }
  if (!g.access.write) return IpcResult::kNotAllowed;
  if (offset > g.len || len > g.len - offset) return IpcResult::kNotAllowed;
  std::memcpy(g.base + offset, src, len);
  machine_.charge(static_cast<sim::Duration>(len / kCopyBytesPerUs));
  return IpcResult::kOk;
}

// ---- PM server and PM-mediated calls ----

void MinixKernel::pm_main() {
  Pcb& self = current_pcb();
  for (;;) {
    Message req;
    const IpcResult r = do_receive(self, Endpoint::any(), req);
    machine_.enter_kernel();
    if (r != IpcResult::kOk) continue;
    Pcb* caller = lookup_pcb(req.source());
    if (req.m_type == PmProtocol::kExit) {
      // The caller unwinds itself right after sending, so it may already
      // be gone by the time PM processes the message; log either way.
      machine_.trace().emit(
          machine_.now(), self.proc->pid(), sim::TraceKind::kProcess,
          "pm.exit",
          caller != nullptr ? caller->name
                            : "ep=" + std::to_string(req.m_source));
      continue;
    }
    if (req.m_type == PmProtocol::kProcDied) {
      // Kernel-origin death notice (m_source == none): relay to the RS,
      // which owns the restart policy. Payload passes through unchanged.
      if (rs_ep_.valid()) {
        Message relay = req;
        relay.m_type = RsProtocol::kRestart;
        do_send_async(self, rs_ep_, relay);
      }
      continue;
    }
    if (caller == nullptr) continue;

    Message reply;
    reply.m_type = PmProtocol::kAck;

    switch (req.m_type) {
      case PmProtocol::kFork: {
        const int handle = req.get_i32(0);
        const auto it = pending_forks_.find(handle);
        if (it == pending_forks_.end() ||
            it->second.requester_slot != caller->slot) {
          reply.put_i32(0, static_cast<int>(IpcResult::kBadEndpoint));
          break;
        }
        PendingFork pf = std::move(it->second);
        pending_forks_.erase(it);
        if (ac_sealed_) pf.ac_id = caller->ac_id;
        const auto quota = policy_.fork_quota(caller->ac_id);
        if (policy_.quotas_enabled() && quota.has_value() &&
            forks_by_ac_[caller->ac_id] >= *quota) {
          met_.fork_quota_denied.inc();
          std::string detail = caller->name + " ac" +
                               std::to_string(caller->ac_id) +
                               " exceeded quota " + std::to_string(*quota);
          machine_.trace().emit(machine_.now(), self.proc->pid(),
                                sim::TraceKind::kSecurity,
                                "acm.fork_quota_deny", detail);
          machine_.audit().record(
              machine_.now(), machine_.machine_id(), self.proc->pid(),
              "acm.fork_quota_deny", std::move(detail), machine_.spans(),
              machine_.spans().current(self.proc->pid()));
          reply.put_i32(0, static_cast<int>(IpcResult::kQuotaExceeded));
          break;
        }
        const Endpoint child = spawn_internal(pf.name, pf.ac_id,
                                              std::move(pf.body), pf.priority);
        if (!child.valid()) {
          reply.put_i32(0, static_cast<int>(IpcResult::kDeadSrcDst));
          break;
        }
        ++caller->forks_done;
        ++forks_by_ac_[caller->ac_id];
        reply.put_i32(0, 0);
        reply.put_i32(4, child.raw());
        break;
      }
      case PmProtocol::kKill: {
        // The kill audit is itself a span, so a blocked kill's causal
        // chain reads: originating endpoint -> ipc hop -> pm.audit ->
        // (journal entry with the ACM denial).
        const std::uint64_t audit_span = machine_.spans().begin(
            self.proc->pid(), machine_.now(), tag_pm_audit_);
        const Endpoint target_ep{req.get_i32(0)};
        Pcb* target = lookup_pcb(target_ep);
        if (target == nullptr) {
          reply.put_i32(0, static_cast<int>(IpcResult::kDeadSrcDst));
        } else if (!policy_.kill_allowed(caller->ac_id, target->ac_id)) {
          met_.kill_denied.inc();
          std::string detail = caller->name + "(ac" +
                               std::to_string(caller->ac_id) +
                               ") may not kill " + target->name + "(ac" +
                               std::to_string(target->ac_id) + ")";
          machine_.trace().emit(machine_.now(), self.proc->pid(),
                                sim::TraceKind::kSecurity, "acm.kill_deny",
                                detail);
          machine_.audit().record(
              machine_.now(), machine_.machine_id(), self.proc->pid(),
              "acm.kill_deny", std::move(detail), machine_.spans(),
              machine_.spans().current(self.proc->pid()));
          reply.put_i32(0, static_cast<int>(IpcResult::kNotAllowed));
        } else {
          machine_.trace().emit(machine_.now(), self.proc->pid(),
                                sim::TraceKind::kProcess, "pm.kill",
                                caller->name + " kills " + target->name);
          machine_.audit().record(
              machine_.now(), machine_.machine_id(), self.proc->pid(),
              "pm.kill", caller->name + " kills " + target->name,
              machine_.spans(),
              machine_.spans().current(self.proc->pid()));
          kernel_kill(target_ep);
          reply.put_i32(0, 0);
        }
        machine_.spans().end(self.proc->pid(), machine_.now(), audit_span);
        break;
      }
      default:
        reply.put_i32(0, static_cast<int>(IpcResult::kNotAllowed));
        break;
    }
    // Reply asynchronously through the same audited path: a caller that
    // never receives cannot block PM (asymmetric-trust countermeasure).
    do_send_async(self, ep_of(*caller), reply);
  }
}

ForkResult MinixKernel::fork2(const std::string& name, int ac_id,
                              std::function<void()> body, int priority) {
  machine_.enter_kernel();
  met_.sc_fork.inc();
  Pcb& self = current_pcb();
  const int handle = next_fork_handle_++;
  pending_forks_[handle] =
      PendingFork{name, ac_id, std::move(body), priority, self.slot};
  Message m;
  m.m_type = PmProtocol::kFork;
  m.put_i32(0, handle);
  const IpcResult r = ipc_sendrec(pm_ep_, m);
  if (r != IpcResult::kOk) {
    pending_forks_.erase(handle);
    return {r, Endpoint::none()};
  }
  const int err = m.get_i32(0);
  if (err != 0) return {static_cast<IpcResult>(err), Endpoint::none()};
  return {IpcResult::kOk, Endpoint(m.get_i32(4))};
}

IpcResult MinixKernel::pm_kill(Endpoint target) {
  machine_.enter_kernel();
  met_.sc_kill.inc();
  Message m;
  m.m_type = PmProtocol::kKill;
  m.put_i32(0, target.raw());
  const IpcResult r = ipc_sendrec(pm_ep_, m);
  if (r != IpcResult::kOk) return r;
  const int err = m.get_i32(0);
  return err == 0 ? IpcResult::kOk : static_cast<IpcResult>(err);
}

void MinixKernel::pm_exit(int code) {
  machine_.enter_kernel();
  met_.sc_exit.inc();
  Message m;
  m.m_type = PmProtocol::kExit;
  m.put_i32(0, code);
  do_send(current_pcb(), pm_ep_, m, /*blocking=*/false);
  throw sim::ProcessExit{code};
}

// ---- Introspection ----

Endpoint MinixKernel::self() { return ep_of(current_pcb()); }

Endpoint MinixKernel::lookup(const std::string& name) const {
  const auto it = names_.find(name);
  return it == names_.end() ? Endpoint::none() : it->second;
}

Endpoint MinixKernel::wait_lookup(const std::string& name,
                                  sim::Duration timeout) {
  const sim::Time deadline = machine_.now() + timeout;
  for (;;) {
    const Endpoint ep = lookup(name);
    if (ep.valid()) return ep;
    if (machine_.now() >= deadline) return Endpoint::none();
    machine_.sleep_for(sim::msec(10));
  }
}

int MinixKernel::ac_id_of(Endpoint ep) const {
  const Pcb* pcb = lookup_pcb(ep);
  return pcb == nullptr ? -1 : pcb->ac_id;
}

bool MinixKernel::is_live(Endpoint ep) const {
  return lookup_pcb(ep) != nullptr;
}

}  // namespace mkbas::minix
