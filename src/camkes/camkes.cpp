#include "camkes/camkes.hpp"

#include <cassert>
#include <sstream>

namespace mkbas::camkes {

using sel4::CapRights;
using sel4::ObjType;
using sel4::Sel4Error;
using sel4::Sel4Msg;

// ---- Runtime (glue code) ----

sel4::Sel4Error Runtime::rpc_call(const std::string& iface,
                                  sel4::Sel4Msg& inout) {
  const auto it = uses_.find(iface);
  if (it == uses_.end()) return Sel4Error::kEmptySlot;
  return kernel_->call(it->second.slot, inout);
}

sel4::Sel4Error Runtime::rpc_send_nb(const std::string& iface,
                                     const sel4::Sel4Msg& msg) {
  const auto it = uses_.find(iface);
  if (it == uses_.end()) return Sel4Error::kEmptySlot;
  return kernel_->nbsend(it->second.slot, msg);
}

Runtime::Incoming Runtime::await() {
  Incoming in;
  if (serve_slot < 0) {
    in.status = Sel4Error::kEmptySlot;
    return in;
  }
  const auto rr = kernel_->recv(serve_slot, in.msg);
  in.status = rr.status;
  if (rr.status == Sel4Error::kOk) {
    const auto it = serves_.find(rr.badge);
    if (it != serves_.end()) {
      in.iface = it->second.iface;
      in.from = it->second.peer;
    }
  }
  return in;
}

sel4::Sel4Error Runtime::reply(const sel4::Sel4Msg& msg) {
  return kernel_->reply(msg);
}

sel4::Sel4Error Runtime::emit(const std::string& iface) {
  const auto it = events_out_.find(iface);
  if (it == events_out_.end()) return Sel4Error::kEmptySlot;
  return kernel_->signal(it->second);
}

sel4::Sel4Error Runtime::wait_event(const std::string& iface,
                                    std::uint64_t* bits) {
  const auto it = events_in_.find(iface);
  if (it == events_in_.end()) return Sel4Error::kEmptySlot;
  return kernel_->wait(it->second, bits);
}

sel4::Sel4Error Runtime::dataport_write(const std::string& iface,
                                        std::size_t offset, const void* src,
                                        std::size_t len) {
  const auto it = dataports_.find(iface);
  if (it == dataports_.end()) return Sel4Error::kEmptySlot;
  return kernel_->frame_write(it->second, offset,
                              static_cast<const std::uint8_t*>(src), len);
}

sel4::Sel4Error Runtime::dataport_read(const std::string& iface,
                                       std::size_t offset, void* dst,
                                       std::size_t len) {
  const auto it = dataports_.find(iface);
  if (it == dataports_.end()) return Sel4Error::kEmptySlot;
  return kernel_->frame_read(it->second, offset,
                             static_cast<std::uint8_t*>(dst), len);
}

std::vector<int> Runtime::enumerate_own_caps() {
  std::vector<int> found;
  const int n = kernel_->cspace_slots();
  for (int s = 0; s < n; ++s) {
    if (kernel_->probe_own_slot(s)) found.push_back(s);
  }
  return found;
}

// ---- CapDlSpec ----

std::string CapDlSpec::to_text() const {
  std::ostringstream os;
  os << "objects {\n";
  for (const auto& o : objects) os << "    " << o << "\n";
  os << "}\ncaps {\n";
  std::string cur;
  for (const auto& p : placements) {
    if (p.component != cur) {
      if (!cur.empty()) os << "    }\n";
      os << "    cnode_" << p.component << " {\n";
      cur = p.component;
    }
    os << "        " << p.slot << ": " << p.object << " (";
    bool first = true;
    auto right = [&](bool have, const char* n) {
      if (!have) return;
      if (!first) os << ", ";
      os << n;
      first = false;
    };
    right(p.read, "R");
    right(p.write, "W");
    right(p.grant, "G");
    if (p.badge != 0) os << ", badge: " << p.badge;
    os << ")\n";
  }
  if (!cur.empty()) os << "    }\n";
  os << "}\n";
  return os.str();
}

// ---- CamkesSystem ----

CamkesSystem::CamkesSystem(sim::Machine& machine)
    : machine_(machine), kernel_(machine) {}

void CamkesSystem::add_component(const std::string& name,
                                 std::function<void(Runtime&)> body,
                                 int priority) {
  Component c;
  c.name = name;
  c.body = std::move(body);
  c.priority = priority;
  c.runtime = std::make_shared<Runtime>();
  components_.push_back(std::move(c));
}

void CamkesSystem::connect(const std::string& conn_name,
                           const std::string& from,
                           const std::string& from_iface,
                           const std::string& to,
                           const std::string& to_iface) {
  connections_.push_back(Connection{conn_name, from, from_iface, to,
                                    to_iface, ConnKind::kRpc, 0, -1});
}

void CamkesSystem::connect_event(const std::string& conn_name,
                                 const std::string& from,
                                 const std::string& from_iface,
                                 const std::string& to,
                                 const std::string& to_iface) {
  connections_.push_back(Connection{conn_name, from, from_iface, to,
                                    to_iface, ConnKind::kEvent, 0, -1});
}

void CamkesSystem::connect_dataport(const std::string& conn_name,
                                    const std::string& from,
                                    const std::string& from_iface,
                                    const std::string& to,
                                    const std::string& to_iface) {
  connections_.push_back(Connection{conn_name, from, from_iface, to,
                                    to_iface, ConnKind::kDataport, 0, -1});
}

void CamkesSystem::load_compiled_system(
    const aadl::CompiledSystem& sys,
    const std::map<std::string, std::function<void(Runtime&)>>& bodies,
    const std::map<std::string, int>& priorities) {
  for (const auto& inst : sys.instances) {
    const auto body_it = bodies.find(inst.name);
    std::function<void(Runtime&)> body =
        body_it != bodies.end() ? body_it->second : [](Runtime&) {};
    const auto pr_it = priorities.find(inst.name);
    add_component(inst.name, std::move(body),
                  pr_it != priorities.end()
                      ? pr_it->second
                      : sim::Machine::kDefaultPriority);
  }
  for (const auto& conn : sys.connections) {
    switch (conn.kind) {
      case aadl::PortKind::kEventData:
        connect(conn.name, conn.src, conn.src_port, conn.dst,
                conn.dst_port);
        break;
      case aadl::PortKind::kEvent:
        connect_event(conn.name, conn.src, conn.src_port, conn.dst,
                      conn.dst_port);
        break;
      case aadl::PortKind::kData:
        connect_dataport(conn.name, conn.src, conn.src_port, conn.dst,
                         conn.dst_port);
        break;
    }
  }
}

void CamkesSystem::instantiate() {
  assert(!instantiated_);
  instantiated_ = true;

  // Assign badges and compute the CapDL spec deterministically up front;
  // the bootstrap then realises exactly this plan. The slot-assignment
  // traversal here and in bootstrap() must match exactly — the
  // verification pass would catch any drift.
  std::uint64_t next_badge = 1;
  for (auto& conn : connections_) conn.badge = next_badge++;

  for (auto& comp : components_) {
    for (const auto& conn : connections_) {
      if (conn.kind == ConnKind::kRpc && conn.to == comp.name) {
        comp.is_server = true;
      }
    }
    if (comp.is_server) {
      capdl_.objects.push_back("ep_" + comp.name + " = ep");
    }
    capdl_.objects.push_back("tcb_" + comp.name + " = tcb");
    capdl_.objects.push_back("cnode_" + comp.name + " = cnode");
  }
  for (const auto& conn : connections_) {
    if (conn.kind == ConnKind::kEvent) {
      capdl_.objects.push_back("ntfn_" + conn.name + " = notification");
    } else if (conn.kind == ConnKind::kDataport) {
      capdl_.objects.push_back("frame_" + conn.name + " = frame (4k)");
    }
  }
  for (auto& comp : components_) {
    if (comp.is_server) {
      capdl_.placements.push_back(
          {comp.name, 2, "ep_" + comp.name, true, false, false, 0});
    }
    int next_slot = 3;
    for (const auto& conn : connections_) {
      if (conn.kind == ConnKind::kRpc && conn.from == comp.name) {
        capdl_.placements.push_back({comp.name, next_slot++,
                                     "ep_" + conn.to, false, true, true,
                                     conn.badge});
      } else if (conn.kind == ConnKind::kEvent && conn.from == comp.name) {
        capdl_.placements.push_back({comp.name, next_slot++,
                                     "ntfn_" + conn.name, false, true,
                                     false, conn.badge});
      } else if (conn.kind == ConnKind::kEvent && conn.to == comp.name) {
        capdl_.placements.push_back({comp.name, next_slot++,
                                     "ntfn_" + conn.name, true, false,
                                     false, 0});
      } else if (conn.kind == ConnKind::kDataport &&
                 conn.from == comp.name) {
        capdl_.placements.push_back({comp.name, next_slot++,
                                     "frame_" + conn.name, true, true,
                                     false, 0});
      } else if (conn.kind == ConnKind::kDataport && conn.to == comp.name) {
        capdl_.placements.push_back({comp.name, next_slot++,
                                     "frame_" + conn.name, true, false,
                                     false, 0});
      }
    }
  }

  // The bootstrap runs as the seL4 root server at the highest priority so
  // capability distribution completes before any component executes.
  kernel_.boot_root([this] { bootstrap(); }, /*priority=*/0);
}

void CamkesSystem::bootstrap() {
  auto& k = kernel_;
  int next = 10;

  for (auto& comp : components_) {
    if (comp.is_server) {
      comp.ep_slot = next++;
      const Sel4Error r =
          k.retype(sel4::Sel4Kernel::kRootUntypedSlot, ObjType::kEndpoint,
                   comp.ep_slot);
      assert(r == Sel4Error::kOk);
      (void)r;
    }
  }
  for (auto& conn : connections_) {
    if (conn.kind == ConnKind::kEvent) {
      conn.root_slot = next++;
      const Sel4Error r = k.retype(sel4::Sel4Kernel::kRootUntypedSlot,
                                   ObjType::kNotification, conn.root_slot);
      assert(r == Sel4Error::kOk);
      (void)r;
    } else if (conn.kind == ConnKind::kDataport) {
      conn.root_slot = next++;
      const Sel4Error r = k.retype(sel4::Sel4Kernel::kRootUntypedSlot,
                                   ObjType::kFrame, conn.root_slot);
      assert(r == Sel4Error::kOk);
      (void)r;
    }
  }
  for (auto& comp : components_) {
    comp.tcb_slot = next++;
    comp.cnode_slot = next++;
    Runtime* rt = comp.runtime.get();
    auto body = comp.body;
    const Sel4Error r = k.create_thread(
        sel4::Sel4Kernel::kRootUntypedSlot, comp.name,
        [rt, body] { body(*rt); }, comp.priority, comp.tcb_slot,
        comp.cnode_slot);
    assert(r == Sel4Error::kOk);
    (void)r;
  }

  for (auto& comp : components_) {
    install_component_caps(comp);
  }

  // Machine-verify the distribution against the CapDL spec before
  // releasing the components (formally verified initialisation, [14]).
  verified_ = true;
  for (const auto& p : capdl_.placements) {
    const Component* comp = nullptr;
    for (const auto& c : components_) {
      if (c.name == p.component) comp = &c;
    }
    sel4::Sel4Kernel::CapInfo info;
    if (comp == nullptr ||
        k.cnode_inspect(comp->cnode_slot, p.slot, info) != Sel4Error::kOk ||
        !info.present || info.rights.read != p.read ||
        info.rights.write != p.write || info.rights.grant != p.grant ||
        info.badge != p.badge) {
      verified_ = false;
    }
  }
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kSecurity,
                        verified_ ? "capdl.verified" : "capdl.mismatch",
                        "bootstrap capability distribution check");

  for (auto& comp : components_) {
    const Sel4Error r = k.tcb_resume(comp.tcb_slot);
    assert(r == Sel4Error::kOk);
    (void)r;
  }

  // Restart-from-spec monitor: the root server keeps running, watching
  // every component's TCB. A dead component is rebuilt in place from the
  // same deterministic cap-distribution plan the bootstrap used.
  if (restart_enabled_) {
    for (;;) {
      machine_.sleep_for(restart_period_);
      for (auto& comp : components_) {
        if (!kernel_.tcb_alive(comp.tcb_slot)) restart_component(comp);
      }
    }
  }
}

void CamkesSystem::install_component_caps(Component& comp) {
  auto& k = kernel_;
  Runtime& rt = *comp.runtime;
  rt.name_ = comp.name;
  rt.kernel_ = &kernel_;
  if (comp.is_server) {
    const Sel4Error r = k.cnode_copy_into(comp.cnode_slot, comp.ep_slot,
                                          2, CapRights::r());
    assert(r == Sel4Error::kOk);
    (void)r;
    rt.serve_slot = 2;
  }
  int next_child_slot = 3;
  for (const auto& conn : connections_) {
    if (conn.kind == ConnKind::kRpc && conn.from == comp.name) {
      Component* target = nullptr;
      for (auto& c : components_) {
        if (c.name == conn.to) target = &c;
      }
      assert(target != nullptr && target->ep_slot >= 0);
      const int slot = next_child_slot++;
      const Sel4Error r =
          k.cnode_copy_into(comp.cnode_slot, target->ep_slot, slot,
                            CapRights::wg(), conn.badge);
      assert(r == Sel4Error::kOk);
      (void)r;
      rt.uses_[conn.from_iface] =
          Runtime::ConnInfo{conn.from_iface, conn.to, conn.badge, slot};
    } else if (conn.kind == ConnKind::kEvent && conn.from == comp.name) {
      const int slot = next_child_slot++;
      const Sel4Error r =
          k.cnode_copy_into(comp.cnode_slot, conn.root_slot, slot,
                            CapRights::w(), conn.badge);
      assert(r == Sel4Error::kOk);
      (void)r;
      rt.events_out_[conn.from_iface] = slot;
    } else if (conn.kind == ConnKind::kEvent && conn.to == comp.name) {
      const int slot = next_child_slot++;
      const Sel4Error r = k.cnode_copy_into(comp.cnode_slot,
                                            conn.root_slot, slot,
                                            CapRights::r());
      assert(r == Sel4Error::kOk);
      (void)r;
      rt.events_in_[conn.to_iface] = slot;
    } else if (conn.kind == ConnKind::kDataport &&
               conn.from == comp.name) {
      const int slot = next_child_slot++;
      const Sel4Error r = k.cnode_copy_into(comp.cnode_slot,
                                            conn.root_slot, slot,
                                            CapRights::rw());
      assert(r == Sel4Error::kOk);
      (void)r;
      rt.dataports_[conn.from_iface] = slot;
    } else if (conn.kind == ConnKind::kDataport && conn.to == comp.name) {
      const int slot = next_child_slot++;
      const Sel4Error r = k.cnode_copy_into(comp.cnode_slot,
                                            conn.root_slot, slot,
                                            CapRights::r());
      assert(r == Sel4Error::kOk);
      (void)r;
      rt.dataports_[conn.to_iface] = slot;
    }
    if (conn.kind == ConnKind::kRpc && conn.to == comp.name) {
      rt.serves_[conn.badge] =
          Runtime::ConnInfo{conn.to_iface, conn.from, conn.badge, -1};
    }
  }
}

void CamkesSystem::enable_restart(sim::Duration check_period) {
  assert(!instantiated_ && "enable_restart must precede instantiate()");
  restart_enabled_ = true;
  restart_period_ = check_period;
}

void CamkesSystem::restart_component(Component& comp) {
  auto& k = kernel_;
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                        "camkes.death_noticed", comp.name);
  // Drop the root's caps to the dead TCB and CSpace, then rebuild into
  // the SAME slots so the deterministic cap-distribution walk (and the
  // Runtime's slot maps) stay valid. The server endpoint object is
  // untouched — clients' badged caps keep working across the restart.
  k.cnode_delete(comp.tcb_slot);
  k.cnode_delete(comp.cnode_slot);
  Runtime& rt = *comp.runtime;
  rt.uses_.clear();
  rt.serves_.clear();
  rt.events_out_.clear();
  rt.events_in_.clear();
  rt.dataports_.clear();
  rt.serve_slot = -1;
  Runtime* rtp = comp.runtime.get();
  auto body = comp.body;
  const Sel4Error r = k.create_thread(
      sel4::Sel4Kernel::kRootUntypedSlot, comp.name,
      [rtp, body] { body(*rtp); }, comp.priority, comp.tcb_slot,
      comp.cnode_slot);
  if (r != Sel4Error::kOk) {
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                          "camkes.restart_fail", comp.name);
    return;
  }
  install_component_caps(comp);
  k.tcb_resume(comp.tcb_slot);
  ++restarts_;
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                        "camkes.restart", comp.name);
}

bool CamkesSystem::verify_distribution() const { return verified_; }

}  // namespace mkbas::camkes
