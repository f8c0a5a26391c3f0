#include "aadl/compile.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "minix/kernel.hpp"

namespace mkbas::aadl {

namespace {

constexpr int kPm = minix::MinixKernel::kPmAcId;

std::string upper_snake(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '.' || c == '-') {
      out += '_';
    } else {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

}  // namespace

std::optional<CompiledSystem> compile(const Model& model,
                                      const std::string& system_full_name,
                                      std::vector<Diagnostic>& diags) {
  const auto sys_it = model.system_impls.find(system_full_name);
  if (sys_it == model.system_impls.end()) {
    diags.push_back({0, "unknown system implementation " + system_full_name});
    return std::nullopt;
  }
  const SystemImpl& sys = sys_it->second;
  CompiledSystem out;
  out.name = sys.full_name;

  std::set<int> seen_ac;
  for (const Subcomponent& sub : sys.subcomponents) {
    const auto impl_it = model.process_impls.find(sub.impl_name);
    if (impl_it == model.process_impls.end()) {
      diags.push_back({sub.line, "subcomponent '" + sub.instance +
                                     "' references unknown implementation " +
                                     sub.impl_name});
      continue;
    }
    const ProcessImpl& impl = impl_it->second;
    if (model.process_types.count(impl.type_name) == 0) {
      diags.push_back({impl.line, "implementation " + impl.full_name +
                                      " references unknown type " +
                                      impl.type_name});
      continue;
    }
    if (impl.ac_id < 2) {
      diags.push_back({impl.line,
                       impl.full_name +
                           ": MKBAS::ac_id must be assigned and >= 2 "
                           "(1 is reserved for the PM server)"});
      continue;
    }
    if (!seen_ac.insert(impl.ac_id).second) {
      diags.push_back({impl.line, impl.full_name + ": duplicate ac_id " +
                                      std::to_string(impl.ac_id)});
      continue;
    }
    CompiledInstance ci;
    ci.name = sub.instance;
    ci.impl_name = impl.full_name;
    ci.ac_id = impl.ac_id;
    ci.may_kill = impl.may_kill;
    ci.fork_quota = impl.fork_quota;
    out.instances.push_back(std::move(ci));
  }

  // Resolve may_kill targets against instance names.
  for (const auto& inst : out.instances) {
    for (const auto& target : inst.may_kill) {
      if (out.find(target) == nullptr) {
        diags.push_back({0, inst.name + ": may_kill target '" + target +
                                "' is not an instance of " + sys.full_name});
      }
    }
  }

  // Connections: direction/kind/type checks plus m_type assignment.
  std::map<std::pair<std::string, std::string>, std::set<int>> used_types;
  std::vector<const Connection*> todo_auto;
  for (const Connection& conn : sys.connections) {
    const Subcomponent* src_sub = sys.find_sub(conn.src_comp);
    const Subcomponent* dst_sub = sys.find_sub(conn.dst_comp);
    if (src_sub == nullptr || dst_sub == nullptr) {
      diags.push_back({conn.line, "connection " + conn.name +
                                      " references unknown component"});
      continue;
    }
    const ProcessImpl* src_impl = model.impl_of_instance(sys, conn.src_comp);
    const ProcessImpl* dst_impl = model.impl_of_instance(sys, conn.dst_comp);
    if (src_impl == nullptr || dst_impl == nullptr) continue;  // reported
    const auto& src_type = model.process_types.at(src_impl->type_name);
    const auto& dst_type = model.process_types.at(dst_impl->type_name);
    const Port* sp = src_type.find_port(conn.src_port);
    const Port* dp = dst_type.find_port(conn.dst_port);
    if (sp == nullptr) {
      diags.push_back({conn.line, conn.name + ": no port '" + conn.src_port +
                                      "' on " + src_type.name});
      continue;
    }
    if (dp == nullptr) {
      diags.push_back({conn.line, conn.name + ": no port '" + conn.dst_port +
                                      "' on " + dst_type.name});
      continue;
    }
    if (sp->dir != PortDir::kOut) {
      diags.push_back(
          {conn.line, conn.name + ": source port must be an out port"});
      continue;
    }
    if (dp->dir != PortDir::kIn) {
      diags.push_back(
          {conn.line, conn.name + ": destination port must be an in port"});
      continue;
    }
    if (sp->kind != dp->kind) {
      diags.push_back({conn.line, conn.name + ": port kinds differ (" +
                                      std::string(to_string(sp->kind)) +
                                      " vs " + to_string(dp->kind) + ")"});
      continue;
    }
    if (!sp->data_type.empty() && !dp->data_type.empty() &&
        sp->data_type != dp->data_type) {
      diags.push_back({conn.line, conn.name + ": data types differ (" +
                                      sp->data_type + " vs " + dp->data_type +
                                      ")"});
      continue;
    }
    CompiledConnection cc;
    cc.name = conn.name;
    cc.src = conn.src_comp;
    cc.src_port = conn.src_port;
    cc.dst = conn.dst_comp;
    cc.dst_port = conn.dst_port;
    cc.m_type = conn.m_type;
    cc.kind = sp->kind;
    if (conn.m_type >= 0) {
      if (conn.m_type < 1 || conn.m_type > minix::AcmPolicy::kMaxMessageType) {
        diags.push_back({conn.line,
                         conn.name + ": m_type must be in [1, 63] "
                                     "(0 is the reserved acknowledgment)"});
        continue;
      }
      auto& used = used_types[{conn.src_comp, conn.dst_comp}];
      if (!used.insert(conn.m_type).second) {
        diags.push_back({conn.line, conn.name + ": duplicate m_type " +
                                        std::to_string(conn.m_type) +
                                        " on edge " + conn.src_comp + " -> " +
                                        conn.dst_comp});
        continue;
      }
    }
    out.connections.push_back(std::move(cc));
  }

  // Auto-assign the smallest free m_type per edge.
  for (auto& cc : out.connections) {
    if (cc.m_type >= 0) continue;
    auto& used = used_types[{cc.src, cc.dst}];
    int t = 1;
    while (used.count(t) != 0) ++t;
    if (t > minix::AcmPolicy::kMaxMessageType) {
      diags.push_back({0, cc.name + ": no free m_type left on edge"});
      continue;
    }
    used.insert(t);
    cc.m_type = t;
  }

  if (!diags.empty()) return std::nullopt;
  return out;
}

std::vector<Diagnostic> lint(const Model& model, const SystemImpl& sys) {
  std::vector<Diagnostic> warnings;
  for (const Subcomponent& sub : sys.subcomponents) {
    const ProcessImpl* impl = model.impl_of_instance(sys, sub.instance);
    if (impl == nullptr) continue;
    const auto type_it = model.process_types.find(impl->type_name);
    if (type_it == model.process_types.end()) continue;
    for (const Port& port : type_it->second.ports) {
      bool used = false;
      for (const Connection& conn : sys.connections) {
        if ((conn.src_comp == sub.instance && conn.src_port == port.name) ||
            (conn.dst_comp == sub.instance && conn.dst_port == port.name)) {
          used = true;
          break;
        }
      }
      if (!used) {
        warnings.push_back(
            {port.line, "warning: port '" + port.name + "' of instance '" +
                            sub.instance + "' is unconnected (no ACM edge "
                            "will be generated for it)"});
      }
    }
  }
  return warnings;
}

std::vector<Diagnostic> lint(const Model& model,
                             const std::string& system_full_name) {
  const auto it = model.system_impls.find(system_full_name);
  if (it == model.system_impls.end()) return {};
  return lint(model, it->second);
}

minix::AcmPolicy generate_acm(const CompiledSystem& sys,
                              const AcmGenOptions& opts) {
  minix::AcmPolicy acm;
  for (const auto& conn : sys.connections) {
    const int src_ac = sys.ac_of(conn.src);
    const int dst_ac = sys.ac_of(conn.dst);
    acm.allow(src_ac, dst_ac, {conn.m_type});
    // Acknowledgments flow both ways on every connection (Fig. 3).
    acm.allow(src_ac, dst_ac, {kAckMType});
    acm.allow(dst_ac, src_ac, {kAckMType});
  }
  bool any_quota = false;
  for (const auto& inst : sys.instances) {
    acm.allow(inst.ac_id, kPm, {minix::PmProtocol::kFork});
    acm.allow(inst.ac_id, kPm, {minix::PmProtocol::kExit});
    acm.allow(inst.ac_id, kPm, {kAckMType});
    acm.allow(kPm, inst.ac_id, {kAckMType});
    if (!inst.may_kill.empty() || opts.open_kill_syscall) {
      acm.allow(inst.ac_id, kPm, {minix::PmProtocol::kKill});
    }
    for (const auto& target : inst.may_kill) {
      acm.allow_kill(inst.ac_id, sys.ac_of(target));
    }
    if (inst.fork_quota >= 0) {
      acm.set_fork_quota(inst.ac_id, inst.fork_quota);
      any_quota = true;
    }
  }
  acm.set_quotas_enabled(opts.enable_quotas && any_quota);
  return acm;
}

std::string emit_acm_c_source(const CompiledSystem& sys,
                              const AcmGenOptions& opts) {
  const minix::AcmPolicy acm = generate_acm(sys, opts);
  std::ostringstream os;
  os << "/* Access control matrix for system " << sys.name << ".\n"
     << " * Generated by mkbas-aadlc; compiled together with the kernel\n"
     << " * binary -- DO NOT EDIT. */\n\n"
     << "#include \"kernel/acm.h\"\n\n";
  for (const auto& inst : sys.instances) {
    os << "#define AC_" << upper_snake(inst.name) << " " << inst.ac_id
       << "\n";
  }
  os << "#define AC_PM " << kPm << "\n\n";
  os << "const struct acm_entry ACM_TABLE[] = {\n";
  std::size_t rows = 0;
  auto emit_row = [&](const std::string& s, int sa, const std::string& d,
                      int da) {
    const std::uint64_t mask = acm.mask(sa, da);
    if (mask == 0) return;
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(mask));
    os << "    { AC_" << upper_snake(s) << ", AC_" << upper_snake(d) << ", "
       << buf << "ULL },  /* " << s << " -> " << d << " */\n";
    ++rows;
  };
  for (const auto& a : sys.instances) {
    for (const auto& b : sys.instances) {
      if (a.ac_id != b.ac_id) emit_row(a.name, a.ac_id, b.name, b.ac_id);
    }
    emit_row(a.name, a.ac_id, "PM", kPm);
    emit_row("PM", kPm, a.name, a.ac_id);
  }
  os << "};\n"
     << "const unsigned ACM_TABLE_LEN = " << rows << ";\n\n";

  os << "const struct acm_kill_entry ACM_KILL_TABLE[] = {\n";
  std::size_t kills = 0;
  for (const auto& inst : sys.instances) {
    for (const auto& target : inst.may_kill) {
      os << "    { AC_" << upper_snake(inst.name) << ", AC_"
         << upper_snake(target) << " },\n";
      ++kills;
    }
  }
  os << "};\n"
     << "const unsigned ACM_KILL_TABLE_LEN = " << kills << ";\n";
  return os.str();
}

}  // namespace mkbas::aadl
