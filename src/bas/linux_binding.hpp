#pragma once

#include <memory>
#include <string>

#include "bas/ports.hpp"
#include "linuxsim/kernel.hpp"

namespace mkbas::bas {

/// What the two Linux personalities (§IV.C) share: a scenario process that
/// sets up the IPC objects, spawns the processes and exits; the account
/// model; and the text wire format of the temperature scenario
/// ("temp=21.500", "cmd=1", ...), in which nothing authenticates a sender.
///
/// Two account models, matching the paper's two simulations:
///  * kShared — all processes run under one user account, so file access
///    control lets the web interface read and write every IPC object;
///  * kSeparate — one uid per process plus tight per-object ACLs (the
///    "well-configured" baseline that only root can defeat).
class LinuxBinding {
 public:
  enum class Accounts { kShared, kSeparate };

  linuxsim::LinuxKernel& kernel() { return *kernel_; }
  /// pid of a scenario process by name ("tempProc" etc.), -1 if dead.
  int pid_of(const std::string& name) const { return kernel_->find_pid(name); }

  // Wire-format helpers shared with the attack payloads.
  static std::string encode_temp(double t);
  static std::string encode_setpoint(double sp);
  static std::string encode_cmd(bool on);

 protected:
  LinuxBinding(sim::Machine& machine, const ScenarioSpec& spec,
               Accounts accounts);

  /// Spawn the scenario process: it runs `setup`, spawns every process in
  /// `order` under its account (running `run` there) and exits.
  void boot(std::function<void()> setup,
            std::vector<const ProcessSpec*> order,
            std::function<void(const ProcessSpec&)> run);
  /// One uid per process (1001, 1002, ... in model order) when accounts
  /// are separate.
  linuxsim::Uid uid_of(const std::string& instance) const;
  /// Owner-only, or (separate accounts) exactly these grants.
  linuxsim::Mode mode_for(const std::vector<std::string>& writers,
                          const std::vector<std::string>& readers) const;

  sim::Machine& machine_;
  const ScenarioSpec& spec_;
  Accounts accounts_;
  std::unique_ptr<linuxsim::LinuxKernel> kernel_;
};

/// The temperature scenario over POSIX message queues: the scenario
/// process creates six queues, one per flow plus the environment reply.
/// The controller blocks on its sensor queue, then drains the setpoint and
/// environment-request queues without blocking, then ends each iteration
/// with one log line. Queues carry no reply to a setpoint, so it is
/// reported accepted (range rejection is visible via /status).
class MqBinding : public LinuxBinding {
 public:
  static constexpr const char* kQSensor = "/q_sensor";
  static constexpr const char* kQSetpoint = "/q_setpoint";
  static constexpr const char* kQEnvReq = "/q_envreq";
  static constexpr const char* kQEnv = "/q_env";
  static constexpr const char* kQHeater = "/q_heater";
  static constexpr const char* kQAlarm = "/q_alarm";

  MqBinding(sim::Machine& machine, const ScenarioSpec& spec,
            Accounts accounts);

 private:
  class ProcessPorts;
};

/// The temperature scenario over Unix domain sockets — the other IPC §III
/// names. Every process with in-ports is a socket server (spawned and
/// bound before its clients connect) that multiplexes its connections
/// every 50 ms; clients reconnect when a send hits EPIPE.
///
/// Two namespaces, matching the misuse study the paper cites [10]:
///  * kFilesystem — sockets bound at /run/... and guarded by mode
///    bits/ACLs at connect time (the well-configured deployment);
///  * kAbstract — sockets bound to abstract names with NO permission model
///    at all: whoever binds first owns the name, enabling the
///    squatting/hijack attacks of the Android CVEs.
class UdsBinding : public LinuxBinding {
 public:
  enum class Namespace { kFilesystem, kAbstract };

  // Socket names (paths in the filesystem namespace, bare names in the
  // abstract one).
  static constexpr const char* kCtlSock = "/run/tempctl.sock";
  static constexpr const char* kHeaterSock = "/run/heater.sock";
  static constexpr const char* kAlarmSock = "/run/alarm.sock";
  static constexpr const char* kCtlAbstract = "tempctl";
  static constexpr const char* kHeaterAbstract = "heater";
  static constexpr const char* kAlarmAbstract = "alarm";

  UdsBinding(sim::Machine& machine, const ScenarioSpec& spec,
             Accounts accounts, Namespace ns);

  /// Connect to a scenario service the way its clients do (used by the
  /// attack scripts): returns fd or negative Errno.
  int connect_service(const char* fs_path, const char* abstract_name);

 private:
  class ProcessPorts;

  int bind_service(const std::string& instance, linuxsim::Mode mode);
  /// Retry a connect to `instance` until it succeeds or `tries` run out.
  int connect_retry(const std::string& instance, int tries);

  Namespace ns_;
};

}  // namespace mkbas::bas
