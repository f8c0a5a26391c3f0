#pragma once

#include <optional>
#include <string>
#include <vector>

#include "aadl/ast.hpp"
#include "minix/acm.hpp"

namespace mkbas::aadl {

/// One process instance of the compiled system.
struct CompiledInstance {
  std::string name;       // subcomponent instance name
  std::string impl_name;  // "TempSensorProcess.imp"
  int ac_id = -1;
  std::vector<std::string> may_kill;  // resolved instance names
  int fork_quota = -1;
};

/// One resolved connection; m_type is always assigned after compilation.
/// The port kind decides the CAmkES connector family: `event data` ports
/// become RPC connections, pure `event` ports seL4Notification events,
/// pure `data` ports seL4SharedData dataports (§IV.B).
struct CompiledConnection {
  std::string name;
  std::string src, src_port;
  std::string dst, dst_port;
  int m_type = -1;
  PortKind kind = PortKind::kEventData;
};

/// Semantic-checked, resolved system: the input to all code generators and
/// to the scenario builders.
struct CompiledSystem {
  std::string name;
  std::vector<CompiledInstance> instances;
  std::vector<CompiledConnection> connections;

  const CompiledInstance* find(const std::string& inst) const {
    for (const auto& i : instances) {
      if (i.name == inst) return &i;
    }
    return nullptr;
  }
  int ac_of(const std::string& inst) const {
    const CompiledInstance* i = find(inst);
    return i == nullptr ? -1 : i->ac_id;
  }
};

/// Message type 0 is the reserved acknowledgment (paper Fig. 3).
inline constexpr int kAckMType = 0;

/// Semantic analysis and resolution of a parsed model:
///  * every subcomponent references an existing implementation and type;
///  * every implementation in the system carries a unique ac_id >= 2
///    (ac_id 1 is reserved for the PM server);
///  * connection endpoints exist, src is an out port, dst an in port,
///    kinds match and data types agree when both are given;
///  * explicit m_types are in [1, 63] and unique per (src, dst) edge;
///    unspecified ones are auto-assigned the smallest free type;
///  * may_kill lists resolve to instances of this system.
std::optional<CompiledSystem> compile(const Model& model,
                                      const std::string& system_full_name,
                                      std::vector<Diagnostic>& diags);

/// Non-fatal lints on a compiled system: currently, ports declared on an
/// instance's type that no connection references (dead interfaces are a
/// common modelling slip and would silently get no ACM edge).
std::vector<Diagnostic> lint(const Model& model, const SystemImpl& sys);
std::vector<Diagnostic> lint(const Model& model,
                             const std::string& system_full_name);

/// Options for the ACM generator. Every process may ask PM to fork and
/// notify it of exit (the PM protocol of minix::PmProtocol).
struct AcmGenOptions {
  /// Let every process *reach* PM's kill service (as on real MINIX,
  /// where the syscall exists for everyone); whether a given target may
  /// actually be killed is still decided by the per-pair kill matrix
  /// inside PM. With this off, processes without a may_kill list cannot
  /// even address the service — the denial then happens silently at the
  /// IPC edge instead of as an audited pm-side ACM decision.
  bool open_kill_syscall = false;
  bool enable_quotas = false;
};

/// The core of the paper's AADL-to-C compiler: "traverse AADL models,
/// extract various processes and their unique ac_id, generate the matrix
/// data structure ... based on the specified connections." Produces the
/// in-memory policy the MINIX kernel enforces. Per Fig. 3, acknowledgment
/// messages (type 0) are allowed in both directions of every connection.
minix::AcmPolicy generate_acm(const CompiledSystem& sys,
                              const AcmGenOptions& opts = {});

/// Emit the generated matrix as C source text (what the paper compiles
/// together with the kernel binary).
std::string emit_acm_c_source(const CompiledSystem& sys,
                              const AcmGenOptions& opts = {});

}  // namespace mkbas::aadl
