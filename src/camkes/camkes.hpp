#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aadl/compile.hpp"
#include "sel4/kernel.hpp"
#include "sim/machine.hpp"

namespace mkbas::camkes {

/// CAmkES connector families (§III.D / §IV.B: "data ports and RPC
/// connections are allowed in both" AADL and CAmkES).
enum class ConnKind {
  kRpc,       // seL4RPCCall: Call/Reply over a badged endpoint
  kEvent,     // seL4Notification: signal/wait
  kDataport,  // seL4SharedData: a shared frame, writer RW / reader R
};

/// Runtime ("glue code") handed to every component body. This is what
/// CAmkES generates from the assembly description: RPC stubs that hide
/// capabilities and slots from the component developer (§III.D).
class Runtime {
 public:
  /// Client side of a seL4RPCCall connection: invoke the remote procedure
  /// through the `uses` interface. Blocks until the server replies.
  sel4::Sel4Error rpc_call(const std::string& iface, sel4::Sel4Msg& inout);

  /// Non-blocking event-style send on a uses interface (drops when the
  /// server is not waiting).
  sel4::Sel4Error rpc_send_nb(const std::string& iface,
                              const sel4::Sel4Msg& msg);

  /// Server side: wait for the next incoming call on any provided
  /// interface of this component.
  struct Incoming {
    sel4::Sel4Error status = sel4::Sel4Error::kOk;
    std::string iface;          // which provides interface was invoked
    std::string from;           // peer component (from the connection spec)
    sel4::Sel4Msg msg;
  };
  Incoming await();

  /// Reply to the call most recently returned by await().
  sel4::Sel4Error reply(const sel4::Sel4Msg& msg);

  /// Event connector: raise the event on an outgoing `emits` interface.
  sel4::Sel4Error emit(const std::string& iface);
  /// Block until the event on a `consumes` interface fires.
  sel4::Sel4Error wait_event(const std::string& iface,
                             std::uint64_t* bits = nullptr);

  /// Dataport connector: write into / read from the shared frame.
  sel4::Sel4Error dataport_write(const std::string& iface,
                                 std::size_t offset, const void* src,
                                 std::size_t len);
  sel4::Sel4Error dataport_read(const std::string& iface, std::size_t offset,
                                void* dst, std::size_t len);

  const std::string& name() const { return name_; }
  sel4::Sel4Kernel& kernel() { return *kernel_; }
  sim::Machine& machine() { return kernel_->machine(); }

  /// Attack-surface introspection: the slots this component can reach.
  std::vector<int> enumerate_own_caps();

 private:
  friend class CamkesSystem;

  /// A provides interface and the component whose calls arrive on it.
  struct Caller {
    std::string iface, from;
  };

  std::string name_;
  sel4::Sel4Kernel* kernel_ = nullptr;
  int serve_slot = -1;                      // receive cap (servers only)
  std::map<std::uint64_t, Caller> serves_;  // badge -> caller
  std::map<std::string, int> uses_;         // uses iface -> send cap slot
  std::map<std::string, int> events_out_;   // emits iface -> slot
  std::map<std::string, int> events_in_;    // consumes iface -> slot
  std::map<std::string, int> dataports_;    // dataport iface -> slot
};

/// One connection of an assembly: `from.from_iface` (uses / emits /
/// writes) to `to.to_iface` (provides / consumes / reads).
struct Connection {
  std::string name;
  std::string from, from_iface;
  std::string to, to_iface;
  ConnKind kind = ConnKind::kRpc;
};

/// What a CAmkES assembly declares: component instances and the
/// connections between them, in declaration order.
struct Assembly {
  std::vector<std::string> components;
  std::vector<Connection> connections;
};

/// The AADL-to-CAmkES mapping (§IV.B): one component per process
/// instance; `event data` ports become RPC connections, `event` ports
/// notifications, `data` ports dataports.
Assembly assembly_of(const aadl::CompiledSystem& sys);

/// The CapDL plan: every kernel object the bootstrap creates and every
/// capability it installs. The bootstrap executes exactly this plan,
/// verifies the live CSpaces against it and restarts dead components from
/// it; attackers in §IV.D.3 are assumed to know it.
struct CapDlSpec {
  /// A kernel object: ep_<server>, ntfn_/frame_<connection> or
  /// tcb_/cnode_<component>.
  struct Object {
    std::string name;
    sel4::ObjType type;
    int root_slot;  // the bootstrap's full-rights cap to it
  };
  /// A component's thread: its TCB and CNode, as indices in `objects`.
  struct Thread {
    int tcb, cnode;
  };
  /// One capability in one component's CNode.
  struct Placement {
    int component;  // index in the assembly's components
    int slot;
    int object;     // index in `objects`
    sel4::CapRights rights;
    std::uint64_t badge = 0;
    int connection = -1;  // the one it realises; -1: a server's receive cap
  };
  std::vector<Object> objects;        // in creation order
  std::vector<Thread> threads;        // one per component
  std::vector<Placement> placements;  // component by component

  int tcb_slot(int component) const {
    return objects[threads[component].tcb].root_slot;
  }
  int cnode_slot(int component) const {
    return objects[threads[component].cnode].root_slot;
  }
  std::string to_text() const;
};

/// Plan an assembly: one endpoint per server component, shared by all of
/// its provided interfaces, with its receive cap at slot 2; each client
/// connection a write+grant cap to it, badged with the connection's
/// 1-based position, from slot 3; a notification or frame per event or
/// dataport connection. Pure: no machine, no kernel.
CapDlSpec plan(const Assembly& assembly);

/// The CAmkES assembly description of a compiled AADL system, as `aadlc
/// --camkes` prints it: a component type per process instance with one
/// feature per connection end, then the composition. Connectors and
/// feature kinds come from assembly_of(sys), the assembly the bootstrap
/// plans.
std::string assembly_text(const aadl::CompiledSystem& sys);

/// A CAmkES assembly: components plus seL4RPCCall connections, executed on
/// the seL4 personality via a generated bootstrap process.
///
/// Servers demultiplex their clients by badge (see plan()). The bootstrap
/// (the moral equivalent of the CapDL-generated initialiser [13,14])
/// creates the plan's objects, installs exactly its caps, verifies them,
/// and resumes the components.
class CamkesSystem {
 public:
  explicit CamkesSystem(sim::Machine& machine);

  /// Components' bodies reference this object's runtimes; tear the
  /// machine down before any member is released.
  ~CamkesSystem() { machine_.shutdown(); }

  CamkesSystem(const CamkesSystem&) = delete;
  CamkesSystem& operator=(const CamkesSystem&) = delete;

  /// Define a component. The body runs once the system is instantiated.
  void add_component(const std::string& name,
                     std::function<void(Runtime&)> body,
                     int priority = sim::Machine::kDefaultPriority);

  /// Declare a seL4RPCCall connection from `from.from_iface` (uses) to
  /// `to.to_iface` (provides).
  void connect(const std::string& conn_name, const std::string& from,
               const std::string& from_iface, const std::string& to,
               const std::string& to_iface);

  /// Declare a seL4Notification connection (emits -> consumes).
  void connect_event(const std::string& conn_name, const std::string& from,
                     const std::string& from_iface, const std::string& to,
                     const std::string& to_iface);

  /// Declare a seL4SharedData connection: `from` maps the frame
  /// read-write, `to` read-only (one-directional dataport).
  void connect_dataport(const std::string& conn_name, const std::string& from,
                        const std::string& from_iface, const std::string& to,
                        const std::string& to_iface);

  /// Populate components/connections from a compiled AADL system, mapping
  /// instance names to bodies (the manual translation step of §IV.B,
  /// automated).
  void load_compiled_system(
      const aadl::CompiledSystem& sys,
      const std::map<std::string, std::function<void(Runtime&)>>& bodies,
      const std::map<std::string, int>& priorities = {});

  /// Plan the assembly and run the bootstrap. Components start running.
  void instantiate();

  /// Restart-from-spec (the CAmkES equivalent of MINIX's reincarnation
  /// server, CompartOS-style compartment recovery): after instantiate()
  /// the root server stays alive, polls every component's TCB each
  /// `check_period`, and rebuilds dead ones — same slots, same CSpace
  /// contents, reinstalled from the CapDL plan. Must be called BEFORE
  /// instantiate(). Server endpoints survive the restart, so client caps
  /// (and their badges) remain valid; the reborn component gets exactly
  /// its original authority, nothing more.
  void enable_restart(sim::Duration check_period = sim::msec(200));
  bool restart_enabled() const { return restart_enabled_; }
  int restarts() const { return restarts_; }

  const CapDlSpec& capdl() const { return capdl_; }
  sel4::Sel4Kernel& kernel() { return kernel_; }
  sim::Machine& machine() { return machine_; }

  /// Post-boot check that every component's CSpace holds exactly the caps
  /// the CapDL plan names (formally verified initialisation, modelled).
  bool verify_distribution() const { return verified_; }

 private:
  /// What the assembly leaves out: how to run each component.
  struct Component {
    std::function<void(Runtime&)> body;
    int priority;
    std::shared_ptr<Runtime> runtime;
  };

  sel4::Sel4Error create_component_thread(int c);
  void bootstrap();  // runs inside the seL4 root server
  /// Install component `c`'s placements and point its Runtime at them —
  /// shared by the initial bootstrap and restarts.
  void install_component_caps(int c);
  /// Tear down and re-create a dead component in its original slots.
  void restart_component(int c);

  sim::Machine& machine_;
  sel4::Sel4Kernel kernel_;
  Assembly assembly_;
  std::vector<Component> components_;  // parallel to assembly_.components
  CapDlSpec capdl_;
  bool instantiated_ = false;
  bool verified_ = false;
  bool restart_enabled_ = false;
  sim::Duration restart_period_ = sim::msec(200);
  int restarts_ = 0;
};

}  // namespace mkbas::camkes
