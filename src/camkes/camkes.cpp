#include "camkes/camkes.hpp"

#include <algorithm>
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
  return kernel_->call(it->second, inout);
}

sel4::Sel4Error Runtime::rpc_send_nb(const std::string& iface,
                                     const sel4::Sel4Msg& msg) {
  const auto it = uses_.find(iface);
  if (it == uses_.end()) return Sel4Error::kEmptySlot;
  return kernel_->nbsend(it->second, msg);
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
      in.from = it->second.from;
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

// ---- The CapDL plan ----

namespace {

// The root server's CNode holds its own CNode at slot 0 and the untyped
// at slot 1; its caps to the objects it creates start here.
constexpr int kFirstRootSlot = 10;
// In a component's CNode: a server's receive cap, then its connections.
constexpr int kServeSlot = 2;
constexpr int kFirstConnectionSlot = 3;

ConnKind connector_of(aadl::PortKind kind) {
  switch (kind) {
    case aadl::PortKind::kEventData:
      return ConnKind::kRpc;
    case aadl::PortKind::kEvent:
      return ConnKind::kEvent;
    case aadl::PortKind::kData:
      return ConnKind::kDataport;
  }
  return ConnKind::kRpc;
}

const char* capdl_type(ObjType type) {
  switch (type) {
    case ObjType::kEndpoint:
      return "ep";
    case ObjType::kNotification:
      return "notification";
    case ObjType::kFrame:
      return "frame (4k)";
    case ObjType::kTcb:
      return "tcb";
    case ObjType::kCNode:
      return "cnode";
    case ObjType::kUntyped:
      return "untyped";
  }
  return "?";
}

}  // namespace

Assembly assembly_of(const aadl::CompiledSystem& sys) {
  Assembly a;
  for (const auto& inst : sys.instances) a.components.push_back(inst.name);
  for (const auto& conn : sys.connections) {
    a.connections.push_back({conn.name, conn.src, conn.src_port, conn.dst,
                             conn.dst_port, connector_of(conn.kind)});
  }
  return a;
}

CapDlSpec plan(const Assembly& a) {
  CapDlSpec s;
  const int n = static_cast<int>(a.components.size());
  auto create = [&s](std::string name, ObjType type) {
    const int index = static_cast<int>(s.objects.size());
    s.objects.push_back({std::move(name), type, kFirstRootSlot + index});
    return index;
  };

  // Creation order: the server endpoints, the notifications and frames,
  // then each component's thread.
  std::map<std::string, int> endpoint;  // server component -> object
  for (const std::string& name : a.components) {
    const bool server = std::any_of(
        a.connections.begin(), a.connections.end(), [&](const Connection& k) {
          return k.kind == ConnKind::kRpc && k.to == name;
        });
    if (server) endpoint[name] = create("ep_" + name, ObjType::kEndpoint);
  }
  std::vector<int> shared(a.connections.size(), -1);
  for (std::size_t i = 0; i < a.connections.size(); ++i) {
    const Connection& conn = a.connections[i];
    if (conn.kind == ConnKind::kEvent) {
      shared[i] = create("ntfn_" + conn.name, ObjType::kNotification);
    } else if (conn.kind == ConnKind::kDataport) {
      shared[i] = create("frame_" + conn.name, ObjType::kFrame);
    }
  }
  for (const std::string& name : a.components) {
    const int tcb = create("tcb_" + name, ObjType::kTcb);
    const int cnode = create("cnode_" + name, ObjType::kCNode);
    s.threads.push_back({tcb, cnode});
  }

  for (int c = 0; c < n; ++c) {
    const std::string& name = a.components[c];
    if (const auto ep = endpoint.find(name); ep != endpoint.end()) {
      s.placements.push_back(
          {c, kServeSlot, ep->second, CapRights::r(), 0, -1});
    }
    int slot = kFirstConnectionSlot;
    for (std::size_t i = 0; i < a.connections.size(); ++i) {
      const Connection& conn = a.connections[i];
      const std::uint64_t badge = i + 1;
      auto place = [&](int object, CapRights rights, std::uint64_t b) {
        s.placements.push_back(
            {c, slot++, object, rights, b, static_cast<int>(i)});
      };
      if (conn.kind == ConnKind::kRpc) {
        if (conn.from == name) {
          place(endpoint.at(conn.to), CapRights::wg(), badge);
        }
      } else if (conn.from == name) {
        // The event's sender signals with its badge; the dataport's
        // writer maps the frame read-write.
        if (conn.kind == ConnKind::kEvent) {
          place(shared[i], CapRights::w(), badge);
        } else {
          place(shared[i], CapRights::rw(), 0);
        }
      } else if (conn.to == name) {
        place(shared[i], CapRights::r(), 0);
      }
    }
  }
  return s;
}

std::string CapDlSpec::to_text() const {
  std::ostringstream os;
  os << "objects {\n";
  for (const auto& o : objects) {
    os << "    " << o.name << " = " << capdl_type(o.type) << "\n";
  }
  os << "}\ncaps {\n";
  int cur = -1;
  for (const auto& p : placements) {
    if (p.component != cur) {
      if (cur >= 0) os << "    }\n";
      os << "    " << objects[threads[p.component].cnode].name << " {\n";
      cur = p.component;
    }
    os << "        " << p.slot << ": " << objects[p.object].name << " (";
    bool first = true;
    auto right = [&](bool have, const char* n) {
      if (!have) return;
      if (!first) os << ", ";
      os << n;
      first = false;
    };
    right(p.rights.read, "R");
    right(p.rights.write, "W");
    right(p.rights.grant, "G");
    if (p.badge != 0) os << ", badge: " << p.badge;
    os << ")\n";
  }
  if (cur >= 0) os << "    }\n";
  os << "}\n";
  return os.str();
}

// ---- The assembly description ----

namespace {

const char* connector_name(ConnKind kind) {
  switch (kind) {
    case ConnKind::kRpc:
      return "seL4RPCCall";
    case ConnKind::kEvent:
      return "seL4Notification";
    case ConnKind::kDataport:
      return "seL4SharedData";
  }
  return "?";
}

// A component's features, in the order they are printed: the connection
// ends of one kind, on the given side, each group in connection order.
struct FeatureKind {
  ConnKind kind;
  bool from, to;
  const char* decl;
};
constexpr FeatureKind kFeatureKinds[] = {
    {ConnKind::kRpc, true, false, "uses MkbasIface"},
    {ConnKind::kRpc, false, true, "provides MkbasIface"},
    {ConnKind::kEvent, true, false, "emits MkbasEvent"},
    {ConnKind::kEvent, false, true, "consumes MkbasEvent"},
    {ConnKind::kDataport, true, true, "dataport Buf"},
};

}  // namespace

std::string assembly_text(const aadl::CompiledSystem& sys) {
  const Assembly a = assembly_of(sys);
  // assembly_of keeps the instances' order; their types are the AADL
  // implementation names without the ".impl" part.
  auto type_of = [&sys](std::size_t c) {
    const std::string& impl = sys.instances[c].impl_name;
    return impl.substr(0, impl.find('.'));
  };
  std::ostringstream os;
  os << "/* CAmkES assembly for system " << sys.name << ".\n"
     << " * Generated by mkbas-aadlc (AADL -> CAmkES). */\n\n"
     << "import <std_connector.camkes>;\n\n";
  for (std::size_t c = 0; c < a.components.size(); ++c) {
    const std::string& name = a.components[c];
    os << "component " << type_of(c) << " {\n    control;\n";
    for (const FeatureKind& f : kFeatureKinds) {
      for (const Connection& k : a.connections) {
        if (k.kind != f.kind) continue;
        if (f.from && k.from == name) {
          os << "    " << f.decl << " " << k.from_iface << ";\n";
        }
        if (f.to && k.to == name) {
          os << "    " << f.decl << " " << k.to_iface << ";\n";
        }
      }
    }
    os << "}\n\n";
  }
  os << "assembly {\n    composition {\n";
  for (std::size_t c = 0; c < a.components.size(); ++c) {
    os << "        component " << type_of(c) << " " << a.components[c]
       << ";\n";
  }
  for (const Connection& k : a.connections) {
    os << "        connection " << connector_name(k.kind) << " " << k.name
       << "(from " << k.from << "." << k.from_iface << ", to " << k.to << "."
       << k.to_iface << ");\n";
  }
  os << "    }\n}\n";
  return os.str();
}

// ---- CamkesSystem ----

CamkesSystem::CamkesSystem(sim::Machine& machine)
    : machine_(machine), kernel_(machine) {}

void CamkesSystem::add_component(const std::string& name,
                                 std::function<void(Runtime&)> body,
                                 int priority) {
  assembly_.components.push_back(name);
  components_.push_back(
      Component{std::move(body), priority, std::make_shared<Runtime>()});
}

void CamkesSystem::connect(const std::string& conn_name,
                           const std::string& from,
                           const std::string& from_iface,
                           const std::string& to,
                           const std::string& to_iface) {
  assembly_.connections.push_back(
      {conn_name, from, from_iface, to, to_iface, ConnKind::kRpc});
}

void CamkesSystem::connect_event(const std::string& conn_name,
                                 const std::string& from,
                                 const std::string& from_iface,
                                 const std::string& to,
                                 const std::string& to_iface) {
  assembly_.connections.push_back(
      {conn_name, from, from_iface, to, to_iface, ConnKind::kEvent});
}

void CamkesSystem::connect_dataport(const std::string& conn_name,
                                    const std::string& from,
                                    const std::string& from_iface,
                                    const std::string& to,
                                    const std::string& to_iface) {
  assembly_.connections.push_back(
      {conn_name, from, from_iface, to, to_iface, ConnKind::kDataport});
}

void CamkesSystem::load_compiled_system(
    const aadl::CompiledSystem& sys,
    const std::map<std::string, std::function<void(Runtime&)>>& bodies,
    const std::map<std::string, int>& priorities) {
  Assembly a = assembly_of(sys);
  for (const std::string& name : a.components) {
    const auto body_it = bodies.find(name);
    std::function<void(Runtime&)> body =
        body_it != bodies.end() ? body_it->second : [](Runtime&) {};
    const auto pr_it = priorities.find(name);
    add_component(name, std::move(body),
                  pr_it != priorities.end()
                      ? pr_it->second
                      : sim::Machine::kDefaultPriority);
  }
  for (Connection& conn : a.connections) {
    assembly_.connections.push_back(std::move(conn));
  }
}

void CamkesSystem::instantiate() {
  assert(!instantiated_);
  instantiated_ = true;
  capdl_ = plan(assembly_);
  // The bootstrap runs as the seL4 root server at the highest priority so
  // capability distribution completes before any component executes.
  kernel_.boot_root([this] { bootstrap(); }, /*priority=*/0);
}

sel4::Sel4Error CamkesSystem::create_component_thread(int c) {
  Runtime* rt = components_[c].runtime.get();
  auto body = components_[c].body;
  return kernel_.create_thread(
      sel4::Sel4Kernel::kRootUntypedSlot, assembly_.components[c],
      [rt, body] { body(*rt); }, components_[c].priority,
      capdl_.tcb_slot(c), capdl_.cnode_slot(c));
}

void CamkesSystem::bootstrap() {
  auto& k = kernel_;
  const int n = static_cast<int>(components_.size());

  // The plan's endpoints, notifications and frames; create_thread makes
  // each component's TCB and CNode.
  for (const auto& o : capdl_.objects) {
    if (o.type == ObjType::kTcb || o.type == ObjType::kCNode) continue;
    const Sel4Error r =
        k.retype(sel4::Sel4Kernel::kRootUntypedSlot, o.type, o.root_slot);
    assert(r == Sel4Error::kOk);
    (void)r;
  }
  for (int c = 0; c < n; ++c) {
    const Sel4Error r = create_component_thread(c);
    assert(r == Sel4Error::kOk);
    (void)r;
  }
  for (int c = 0; c < n; ++c) install_component_caps(c);

  // Machine-verify the distribution against the CapDL plan before
  // releasing the components (formally verified initialisation, [14]).
  verified_ = true;
  for (const auto& p : capdl_.placements) {
    sel4::Sel4Kernel::CapInfo info;
    if (k.cnode_inspect(capdl_.cnode_slot(p.component), p.slot, info) !=
            Sel4Error::kOk ||
        !info.present || info.rights != p.rights ||
        info.badge != p.badge) {
      verified_ = false;
    }
  }
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kSecurity,
                        verified_ ? "capdl.verified" : "capdl.mismatch",
                        "bootstrap capability distribution check");

  for (int c = 0; c < n; ++c) {
    const Sel4Error r = k.tcb_resume(capdl_.tcb_slot(c));
    assert(r == Sel4Error::kOk);
    (void)r;
  }

  // Restart-from-spec monitor: the root server keeps running, watching
  // every component's TCB. A dead component is rebuilt in place from the
  // plan the bootstrap executed.
  if (restart_enabled_) {
    for (;;) {
      machine_.sleep_for(restart_period_);
      for (int c = 0; c < n; ++c) {
        if (!kernel_.tcb_alive(capdl_.tcb_slot(c))) restart_component(c);
      }
    }
  }
}

void CamkesSystem::install_component_caps(int c) {
  for (const auto& p : capdl_.placements) {
    if (p.component != c) continue;
    const Sel4Error r = kernel_.cnode_copy_into(
        capdl_.cnode_slot(c), capdl_.objects[p.object].root_slot, p.slot,
        p.rights, p.badge);
    assert(r == Sel4Error::kOk);
    (void)r;
  }

  // The glue's interface maps: each placement's connection names the
  // interface its slot serves.
  Runtime& rt = *components_[c].runtime;
  rt = Runtime{};
  rt.name_ = assembly_.components[c];
  rt.kernel_ = &kernel_;
  for (const auto& p : capdl_.placements) {
    if (p.connection < 0) {
      if (p.component == c) rt.serve_slot = p.slot;
      continue;
    }
    const Connection& conn = assembly_.connections[p.connection];
    if (conn.kind == ConnKind::kRpc && conn.to == rt.name_) {
      // A client's cap to this server: its calls carry the badge.
      rt.serves_[p.badge] = Runtime::Caller{conn.to_iface, conn.from};
    }
    if (p.component != c) continue;
    const bool from = conn.from == rt.name_;
    switch (conn.kind) {
      case ConnKind::kRpc:
        rt.uses_[conn.from_iface] = p.slot;
        break;
      case ConnKind::kEvent:
        if (from) {
          rt.events_out_[conn.from_iface] = p.slot;
        } else {
          rt.events_in_[conn.to_iface] = p.slot;
        }
        break;
      case ConnKind::kDataport:
        rt.dataports_[from ? conn.from_iface : conn.to_iface] = p.slot;
        break;
    }
  }
}

void CamkesSystem::enable_restart(sim::Duration check_period) {
  assert(!instantiated_ && "enable_restart must precede instantiate()");
  restart_enabled_ = true;
  restart_period_ = check_period;
}

void CamkesSystem::restart_component(int c) {
  auto& k = kernel_;
  const std::string& name = assembly_.components[c];
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                        "camkes.death_noticed", name);
  // Drop the root's caps to the dead TCB and CSpace, then rebuild into
  // the SAME slots from the plan. The server endpoint object is
  // untouched — clients' badged caps keep working across the restart.
  k.cnode_delete(capdl_.tcb_slot(c));
  k.cnode_delete(capdl_.cnode_slot(c));
  if (create_component_thread(c) != Sel4Error::kOk) {
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                          "camkes.restart_fail", name);
    return;
  }
  install_component_caps(c);
  k.tcb_resume(capdl_.tcb_slot(c));
  ++restarts_;
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                        "camkes.restart", name);
}

}  // namespace mkbas::camkes
