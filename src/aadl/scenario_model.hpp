#pragma once

namespace mkbas::aadl {

/// The paper's temperature-control scenario (Fig. 2) as mini-AADL source:
/// five processes, the five connections of the figure, and the ac_id
/// assignment from §IV ("TempSensorProcess.imp is 100, and
/// TempControlProcess.imp is 101 etc.").
///
/// The web interface is the untrusted component: it may only send
/// setpoint updates (m_type 2) to the control process — it holds no path
/// to the drivers and no kill permission, which is exactly the policy the
/// §IV.D attacks probe.
inline const char* temp_control_aadl() {
  return R"AADL(
-- Temperature control scenario, Biosecurity Research Institute case study.

process TempSensorProcess
  features
    sensorOut : out event data port TempReading;
end TempSensorProcess;

process TempControlProcess
  features
    sensorIn   : in event data port TempReading;
    heaterCmd  : out event data port ActuatorCmd;
    alarmCmd   : out event data port ActuatorCmd;
    setpointIn : in event data port Setpoint;
    envIn      : in event data port EnvQuery;
end TempControlProcess;

process HeaterActuatorProcess
  features
    cmdIn : in event data port ActuatorCmd;
end HeaterActuatorProcess;

process AlarmActuatorProcess
  features
    cmdIn : in event data port ActuatorCmd;
end AlarmActuatorProcess;

process WebInterfaceProcess
  features
    setpointOut : out event data port Setpoint;
    envQuery    : out event data port EnvQuery;
end WebInterfaceProcess;

process implementation TempSensorProcess.imp
  properties
    MKBAS::ac_id => 100;
end TempSensorProcess.imp;

process implementation TempControlProcess.imp
  properties
    MKBAS::ac_id => 101;
end TempControlProcess.imp;

process implementation HeaterActuatorProcess.imp
  properties
    MKBAS::ac_id => 102;
end HeaterActuatorProcess.imp;

process implementation AlarmActuatorProcess.imp
  properties
    MKBAS::ac_id => 103;
end AlarmActuatorProcess.imp;

process implementation WebInterfaceProcess.imp
  properties
    MKBAS::ac_id => 104;
    MKBAS::fork_quota => 4;
end WebInterfaceProcess.imp;

system TempControl
end TempControl;

system implementation TempControl.impl
  subcomponents
    tempSensProc  : process TempSensorProcess.imp;
    tempProc      : process TempControlProcess.imp;
    heaterActProc : process HeaterActuatorProcess.imp;
    alarmProc     : process AlarmActuatorProcess.imp;
    webInterface  : process WebInterfaceProcess.imp;
  connections
    c_sensor   : port tempSensProc.sensorOut -> tempProc.sensorIn
                 { MKBAS::m_type => 1; };
    c_heater   : port tempProc.heaterCmd -> heaterActProc.cmdIn
                 { MKBAS::m_type => 1; };
    c_alarm    : port tempProc.alarmCmd -> alarmProc.cmdIn
                 { MKBAS::m_type => 1; };
    c_setpoint : port webInterface.setpointOut -> tempProc.setpointIn
                 { MKBAS::m_type => 2; };
    -- Environment info flows control -> web (Fig. 2), but the *request*
    -- is web -> control: on every platform the untrusted web interface is
    -- a pure client of the control process, so it can never block a
    -- control thread (the asymmetric-trust rationale of §IV.B).
    c_env      : port webInterface.envQuery -> tempProc.envIn
                 { MKBAS::m_type => 3; };
end TempControl.impl;
)AADL";
}

/// The BSL-3 containment suite (the "Biosafety Level 3 Lab" of Fig. 1):
/// pressure transmitters, the containment controller, exhaust fan, door
/// and alarm drivers, and the untrusted management console. Compiled into
/// the ACM for the MINIX build and into the CAmkES assembly for the seL4
/// build, exactly like the temperature scenario.
inline const char* bsl3_aadl() {
  return R"AADL(
process PresSensProcess
  features presOut : out event data port Pressure;
end PresSensProcess;

process ContCtlProcess
  features
    presIn    : in event data port Pressure;
    fanCmd    : out event data port FanSpeed;
    doorCmd   : out event data port DoorCmd;
    alarmCmd  : out event data port AlarmCmd;
    doorReqIn : in event data port DoorReq;
    envIn     : in event data port EnvQuery;
end ContCtlProcess;

process ExhaustFanProcess
  features cmdIn : in event data port FanSpeed;
end ExhaustFanProcess;

process DoorCtlProcess
  features cmdIn : in event data port DoorCmd;
end DoorCtlProcess;

process AlarmProcess
  features cmdIn : in event data port AlarmCmd;
end AlarmProcess;

process MgmtProcess
  features
    doorReq  : out event data port DoorReq;
    envQuery : out event data port EnvQuery;
end MgmtProcess;

process implementation PresSensProcess.imp
  properties MKBAS::ac_id => 110;
end PresSensProcess.imp;
process implementation ContCtlProcess.imp
  properties MKBAS::ac_id => 111;
end ContCtlProcess.imp;
process implementation ExhaustFanProcess.imp
  properties MKBAS::ac_id => 112;
end ExhaustFanProcess.imp;
process implementation DoorCtlProcess.imp
  properties MKBAS::ac_id => 113;
end DoorCtlProcess.imp;
process implementation AlarmProcess.imp
  properties MKBAS::ac_id => 114;
end AlarmProcess.imp;
process implementation MgmtProcess.imp
  properties MKBAS::ac_id => 115;
end MgmtProcess.imp;

system Bsl3 end Bsl3;
system implementation Bsl3.impl
  subcomponents
    presSensProc   : process PresSensProcess.imp;
    contCtlProc    : process ContCtlProcess.imp;
    exhaustFanProc : process ExhaustFanProcess.imp;
    doorCtlProc    : process DoorCtlProcess.imp;
    alarmProc      : process AlarmProcess.imp;
    mgmtProc       : process MgmtProcess.imp;
  connections
    c_pres  : port presSensProc.presOut -> contCtlProc.presIn
              { MKBAS::m_type => 1; };
    c_fan   : port contCtlProc.fanCmd -> exhaustFanProc.cmdIn
              { MKBAS::m_type => 1; };
    c_door  : port contCtlProc.doorCmd -> doorCtlProc.cmdIn
              { MKBAS::m_type => 1; };
    c_alarm : port contCtlProc.alarmCmd -> alarmProc.cmdIn
              { MKBAS::m_type => 1; };
    c_req   : port mgmtProc.doorReq -> contCtlProc.doorReqIn
              { MKBAS::m_type => 2; };
    c_env   : port mgmtProc.envQuery -> contCtlProc.envIn
              { MKBAS::m_type => 3; };
end Bsl3.impl;
)AADL";
}

/// Canonical ac_ids of the scenario (§IV).
struct ScenarioAcIds {
  static constexpr int kTempSensor = 100;
  static constexpr int kTempControl = 101;
  static constexpr int kHeaterActuator = 102;
  static constexpr int kAlarmActuator = 103;
  static constexpr int kWebInterface = 104;
};

/// Message types on the scenario's edges.
struct ScenarioMTypes {
  static constexpr int kAck = 0;
  static constexpr int kSensorData = 1;   // tempSensProc -> tempProc
  static constexpr int kActuatorCmd = 1;  // tempProc -> heater/alarm
  static constexpr int kSetpoint = 2;  // webInterface -> tempProc
  static constexpr int kEnvQuery = 3;  // webInterface -> tempProc (reply
                                       // carries the environment info)
};

}  // namespace mkbas::aadl
