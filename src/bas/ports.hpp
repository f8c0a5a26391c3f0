#pragma once

#include <array>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "aadl/compile.hpp"

namespace mkbas::bas {

/// A fixed message body: up to four scalars, in order. The scenario's flow
/// table gives each field's type (f64 or i32); every binding maps the
/// fields onto its own wire layout — packed MINIX payload bytes, seL4
/// message registers, or Linux text.
class Payload {
 public:
  static constexpr int kMaxFields = 4;

  Payload() = default;
  Payload(std::initializer_list<double> fields) {
    for (double v : fields) push(v);
  }

  void push(double v) {
    if (n_ < kMaxFields) v_[n_++] = v;
  }
  double f64(int i) const { return v_[i]; }
  int i32(int i) const { return static_cast<int>(v_[i]); }
  bool flag(int i) const { return v_[i] != 0.0; }

 private:
  std::array<double, kMaxFields> v_{};
  int n_ = 0;
};

/// How a flow is delivered.
enum class FlowKind {
  kSample,   // one-way and lossy; the receiver authenticates the sender
  kCommand,  // one-way and reliable
  kCall,     // request and reply
};

/// One AADL connection of a scenario, keyed by its source port: how it is
/// delivered and the fields of its request and reply ('f' = f64,
/// 'i' = i32).
struct Flow {
  const char* port;
  FlowKind kind;
  const char* request;
  const char* reply;
};

class Ports;

/// One process of a scenario: AADL instance name, scheduling priority,
/// body, and the file its controller loop logs to (if any).
struct ProcessSpec {
  const char* name;
  int priority;
  std::function<void(Ports&)> body;
  const char* log = nullptr;
};

/// Everything a binding needs to boot a scenario: the compiled AADL
/// system, the processes in spawn order, and the layout of every flow.
struct ScenarioSpec {
  aadl::CompiledSystem system;
  std::vector<ProcessSpec> processes;
  std::span<const Flow> flows;
};

/// Parse and compile a built-in AADL model; throws if it does not compile.
aadl::CompiledSystem compile_model(const char* source,
                                   const std::string& system_name);

/// One process's view of its AADL ports: what a scenario body is written
/// against, once, for every personality. A binding resolves the ports of
/// a process (endpoints, queues, sockets, interfaces) when the process
/// starts; bodies look up handles by port name before their loop and
/// never name a peer again.
class Ports {
 public:
  using Port = int;

  virtual ~Ports() = default;
  Ports(const Ports&) = delete;
  Ports& operator=(const Ports&) = delete;

  /// Handle of this process's in- or out-port `name`.
  Port port(const char* name) const;
  /// One-way message on an out-port (kSample or kCommand flow).
  virtual void send(Port out, const Payload& msg) = 0;
  /// Request/reply on an out-port; false when the peer is unreachable.
  virtual bool call(Port out, const Payload& request, Payload* reply) = 0;
  /// Next message on any in-port; false once the process has no input
  /// left (it should then return).
  virtual bool await(Port* in, Payload* msg) = 0;
  /// Answer the message last returned by await(). One-way flows take no
  /// answer except on transports where every message is a call.
  virtual void reply(const Payload& msg) = 0;
  /// The controller's environment changed. A binding that keeps a log
  /// decides when to write it.
  virtual void log(const Payload& env) { (void)env; }
  /// Re-establish peers that went away (called by a polling console).
  virtual void refresh() {}
  /// Run attacker code inside this process, with exactly its authority.
  virtual void run_compromised(const std::function<void()>& payload) {
    payload();
  }

 protected:
  /// One port of the process: its AADL connection and that flow's layout.
  struct Link {
    std::string name;
    const aadl::CompiledConnection* conn;
    const Flow* flow;
    bool inbound;
    const std::string& peer() const { return inbound ? conn->src : conn->dst; }
  };

  /// Out-ports, then in-ports, each in model order.
  Ports(const ScenarioSpec& spec, const std::string& process);

  std::vector<Link> links_;
  int current_ = -1;  // the link of the message await() returned last
};

}  // namespace mkbas::bas
