#include "bas/minix_binding.hpp"

#include <algorithm>
#include <cstdio>

namespace mkbas::bas {

using minix::Endpoint;
using minix::IpcResult;
using minix::Message;
using minix::MinixKernel;

namespace {

/// Field by field into the payload bytes: an f64 takes 8, an i32 4.
void pack(const char* layout, const Payload& msg, Message& m) {
  std::size_t off = 0;
  for (int i = 0; layout[i] != '\0'; ++i) {
    if (layout[i] == 'f') {
      m.put_f64(off, msg.f64(i));
      off += 8;
    } else {
      m.put_i32(off, msg.i32(i));
      off += 4;
    }
  }
}

Payload unpack(const char* layout, const Message& m) {
  Payload p;
  std::size_t off = 0;
  for (int i = 0; layout[i] != '\0'; ++i) {
    if (layout[i] == 'f') {
      p.push(m.get_f64(off));
      off += 8;
    } else {
      p.push(m.get_i32(off));
      off += 4;
    }
  }
  return p;
}

}  // namespace

class MinixBinding::ProcessPorts final : public Ports {
 public:
  /// Runs in the process itself, at its start: resolves each peer of its
  /// out-ports in model order, then the sender of each sample it receives
  /// (authenticated on every message), then opens its log.
  ProcessPorts(MinixBinding& b, const ProcessSpec& proc)
      : Ports(b.spec_, proc.name), b_(b), k_(*b.kernel_) {
    for (const Link& l : links_) {
      ep_.push_back(!l.inbound || l.flow->kind == FlowKind::kSample
                        ? k_.wait_lookup(l.peer())
                        : Endpoint::none());
    }
    if (proc.log != nullptr && b.fs_ != nullptr) {
      fs_client_ = std::make_unique<minix::FsClient>(k_, b.fs_->endpoint());
      log_fd_ = fs_client_->open(proc.log, /*create=*/true);
    }
  }

  void send(Port out, const Payload& msg) override {
    Message m = outgoing(out, msg);
    if (links_[out].flow->kind == FlowKind::kSample) {
      // Non-blocking: a busy receiver simply misses this sample and
      // catches the next one.
      if (k_.ipc_sendnb(ep_[out], m) == IpcResult::kDeadSrcDst) {
        reresolve(out);
      }
    } else if (k_.ipc_send(ep_[out], m) == IpcResult::kDeadSrcDst &&
               reresolve(out)) {
      k_.ipc_send(ep_[out], m);
    }
  }

  bool call(Port out, const Payload& request, Payload* reply) override {
    Message m = outgoing(out, request);
    if (k_.ipc_sendrec(ep_[out], m) != IpcResult::kOk) return false;
    *reply = unpack(links_[out].flow->reply, m);
    return true;
  }

  bool await(Port* in, Payload* msg) override {
    for (;;) {
      Message m;
      if (k_.ipc_receive(Endpoint::any(), m) != IpcResult::kOk) continue;
      const auto it = std::find_if(links_.begin(), links_.end(),
                                   [&m](const Link& l) {
                                     return l.inbound &&
                                            l.conn->m_type == m.m_type;
                                   });
      if (it == links_.end()) continue;  // unknown type: the ACM's job
      const int i = static_cast<int>(it - links_.begin());
      // Defence in depth: the ACM already admits only the sender the
      // model names, but a correct implementation checks anyway (before
      // any work is done on the message).
      if (links_[i].flow->kind == FlowKind::kSample && m.source() != ep_[i]) {
        reresolve(i);
        if (m.source() != ep_[i]) continue;
      }
      current_ = i;
      caller_ = m.source();
      *in = i;
      *msg = unpack(links_[i].flow->request, m);
      return true;
    }
  }

  void reply(const Payload& msg) override {
    if (current_ < 0 || links_[current_].flow->kind != FlowKind::kCall) {
      return;
    }
    Message r;
    r.m_type = aadl::kAckMType;
    pack(links_[current_].flow->reply, msg, r);
    k_.ipc_senda(caller_, r);  // async: never block on clients
  }

  void log(const Payload& env) override {
    if (log_fd_ < 0 || current_ < 0 ||
        links_[current_].flow->kind != FlowKind::kSample) {
      return;
    }
    char line[96];
    std::snprintf(line, sizeof line, "t=%lld temp=%.2f sp=%.1f h=%d a=%d\n",
                  static_cast<long long>(b_.machine_.now() / sim::sec(1)),
                  env.f64(0), env.f64(1), env.i32(2), env.i32(3));
    fs_client_->write(log_fd_, line);
  }

  void refresh() override {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (!links_[i].inbound && !k_.is_live(ep_[i])) reresolve(i);
    }
  }

 private:
  Message outgoing(Port out, const Payload& msg) const {
    Message m;
    m.m_type = links_[out].conn->m_type;
    pack(links_[out].flow->request, msg, m);
    return m;
  }

  /// The peer may have been reincarnated under a new endpoint.
  bool reresolve(int i) {
    const Endpoint fresh = k_.lookup(links_[i].peer());
    if (fresh.valid()) ep_[i] = fresh;
    return fresh.valid();
  }

  MinixBinding& b_;
  MinixKernel& k_;
  std::vector<Endpoint> ep_;  // out: destination; in: the authenticated sender
  Endpoint caller_ = Endpoint::none();
  std::unique_ptr<minix::FsClient> fs_client_;
  int log_fd_ = -1;
};

MinixBinding::MinixBinding(sim::Machine& machine, const ScenarioSpec& spec,
                           Options opts)
    : machine_(machine), spec_(spec), opts_(std::move(opts)) {
  kernel_ = std::make_unique<MinixKernel>(machine_, make_acm());
  if (opts_.fs_log) fs_ = std::make_unique<minix::FsServer>(*kernel_);
  if (opts_.reincarnation) kernel_->enable_reincarnation();
  kernel_->srv_fork2(opts_.loader, opts_.loader_ac_id,
                     [this] { loader_proc(); }, /*priority=*/3);
}

minix::AcmPolicy MinixBinding::make_acm() const {
  const int loader = opts_.loader_ac_id;
  if (opts_.permissive) {
    minix::AcmPolicy acm;
    std::vector<int> acs = {loader};
    for (const auto& inst : spec_.system.instances) acs.push_back(inst.ac_id);
    for (int a : acs) {
      for (int b : acs) {
        acm.allow_mask(a, b, ~0ULL);
        acm.allow_kill(a, b);
      }
      acm.allow_mask(a, MinixKernel::kPmAcId, ~0ULL);
      acm.allow_mask(MinixKernel::kPmAcId, a, ~0ULL);
    }
    return acm;
  }
  minix::AcmPolicy acm = aadl::generate_acm(spec_.system, opts_.acm);
  // The loader needs fork/exit edges to PM (it is not part of the AADL
  // model proper; a real system's init server plays this role).
  acm.allow(loader, MinixKernel::kPmAcId,
            {aadl::kAckMType, minix::PmProtocol::kFork,
             minix::PmProtocol::kExit});
  acm.allow(MinixKernel::kPmAcId, loader, {aadl::kAckMType});
  if (opts_.fs_log) {
    for (const ProcessSpec& proc : spec_.processes) {
      if (proc.log == nullptr) continue;
      const int ac = spec_.system.ac_of(proc.name);
      acm.allow_mask(ac, minix::FsServer::kFsAcId, ~0ULL);
      acm.allow(minix::FsServer::kFsAcId, ac, {aadl::kAckMType});
    }
  }
  return acm;
}

void MinixBinding::loader_proc() {
  // fork2 each process with the ac_id from the AADL specification
  // ("tells kernel each process's ac_id, and loads the correct binaries").
  for (const ProcessSpec& proc : spec_.processes) {
    const auto res = kernel_->fork2(
        proc.name, spec_.system.ac_of(proc.name),
        [this, &proc] {
          ProcessPorts io(*this, proc);
          proc.body(io);
        },
        proc.priority);
    if (res.status != IpcResult::kOk) {
      machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                            "scenario.load_failed", proc.name);
    }
  }
  kernel_->seal_ac_assignment();  // boot period over: ac_ids are now fixed
  kernel_->pm_exit(0);
}

}  // namespace mkbas::bas
