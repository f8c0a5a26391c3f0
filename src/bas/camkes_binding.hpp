#pragma once

#include <memory>

#include "bas/ports.hpp"
#include "camkes/camkes.hpp"

namespace mkbas::bas {

/// The seL4/CAmkES personality (§IV.B). The scenario's AADL model is
/// translated to a CAmkES assembly (the source-to-source step the paper
/// began and we complete); the generated bootstrap distributes exactly the
/// CapDL-specified capabilities and resumes the components. Every
/// connection is an RPC (seL4RPCCall) on the interface named by its AADL
/// port, so every message a component receives is answered — and a
/// component answers its caller before it calls out, as CAmkES servers do.
class CamkesBinding {
 public:
  struct Options {
    /// Restart-from-spec, the CAmkES analogue of MINIX reincarnation.
    bool restart = false;
    /// "We also added two additional timer driver processes for
    /// demonstration purposes" (§IV.B).
    bool demo_timers = false;
  };

  CamkesBinding(sim::Machine& machine, const ScenarioSpec& spec, Options opts);

  sel4::Sel4Kernel& kernel() { return camkes_->kernel(); }
  /// The CapDL plan the bootstrap installed.
  const camkes::CapDlSpec& capdl() const { return camkes_->capdl(); }
  /// The compromised component's runtime, non-null only while attacker
  /// code runs inside it (attack payloads use it).
  camkes::Runtime* attack_runtime() { return attack_runtime_; }
  /// Ticks observed by the demonstration timer pair.
  long timer_ticks() const { return timer_ticks_; }
  int restarts() const { return camkes_->restarts(); }

 private:
  class ProcessPorts;

  std::unique_ptr<camkes::CamkesSystem> camkes_;
  long timer_ticks_ = 0;
  camkes::Runtime* attack_runtime_ = nullptr;
};

}  // namespace mkbas::bas
