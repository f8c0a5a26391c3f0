#include "bas/ports.hpp"

#include <stdexcept>

#include "aadl/parser.hpp"

namespace mkbas::bas {

Ports::Ports(const ScenarioSpec& spec, const std::string& process) {
  auto flow_of = [&spec](const std::string& port) -> const Flow* {
    for (const Flow& f : spec.flows) {
      if (port == f.port) return &f;
    }
    throw std::logic_error("scenario declares no flow for port " + port);
  };
  for (const bool inbound : {false, true}) {
    for (const auto& c : spec.system.connections) {
      if ((inbound ? c.dst : c.src) != process) continue;
      links_.push_back({inbound ? c.dst_port : c.src_port, &c,
                        flow_of(c.src_port), inbound});
    }
  }
}

Ports::Port Ports::port(const char* name) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].name == name) return static_cast<Port>(i);
  }
  throw std::logic_error(std::string("no port ") + name);
}

aadl::CompiledSystem compile_model(const char* source,
                                   const std::string& system_name) {
  aadl::Parser parser(source);
  const aadl::Model model = parser.parse();
  std::vector<aadl::Diagnostic> diags;
  auto sys = aadl::compile(model, system_name, diags);
  if (!sys.has_value()) {
    throw std::runtime_error("builtin model " + system_name +
                             " failed to compile: " +
                             (diags.empty() ? "?" : diags[0].message));
  }
  return *sys;
}

}  // namespace mkbas::bas
