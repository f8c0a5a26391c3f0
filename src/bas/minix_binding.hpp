#pragma once

#include <memory>
#include <string>

#include "aadl/compile.hpp"
#include "bas/ports.hpp"
#include "minix/fs.hpp"
#include "minix/kernel.hpp"

namespace mkbas::bas {

/// The MINIX 3 + ACM personality (§IV.A). The kernel boots with the ACM
/// generated from the scenario's AADL model; a loader process fork2()s
/// every scenario process with its ac_id, seals ac_id assignment (the end
/// of the boot period) and exits. Ports are endpoints plus the m_type of
/// each connection: samples go by non-blocking send, commands by blocking
/// send, calls by sendrec and are answered with senda. A dead peer may
/// have been reincarnated, so ports re-resolve it by name.
class MinixBinding {
 public:
  struct Options {
    std::string loader = "scenario";
    int loader_ac_id = 99;
    aadl::AcmGenOptions acm{};
    /// Replace the generated ACM by a flat matrix in which every process
    /// may send anything to anyone and kill anyone: a legacy controller,
    /// the "before" picture of the paper's framework.
    bool permissive = false;
    /// Boot the reincarnation server.
    bool reincarnation = false;
    /// Boot the FS server; a process with a log file appends one line to
    /// it per sample it handles.
    bool fs_log = false;
  };

  MinixBinding(sim::Machine& machine, const ScenarioSpec& spec, Options opts);

  minix::MinixKernel& kernel() { return *kernel_; }
  /// Non-null when the FS server was booted.
  minix::FsServer* fs() { return fs_.get(); }
  /// Endpoint of a scenario process by its AADL instance name.
  minix::Endpoint endpoint_of(const std::string& instance) const {
    return kernel_->lookup(instance);
  }
  int restarts() const { return kernel_->restarts(); }

 private:
  class ProcessPorts;

  minix::AcmPolicy make_acm() const;
  void loader_proc();

  sim::Machine& machine_;
  const ScenarioSpec& spec_;
  Options opts_;
  std::unique_ptr<minix::MinixKernel> kernel_;
  std::unique_ptr<minix::FsServer> fs_;
};

}  // namespace mkbas::bas
