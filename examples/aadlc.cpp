// aadlc — the AADL source-to-source compiler of §IV as a command-line
// tool: parses a mini-AADL model and emits the ACM kernel table (C), a
// CAmkES assembly, or the CapDL plan the seL4 bootstrap installs for it.
//
//   $ ./aadlc <model.aadl> <System.impl> [--acm|--camkes|--capdl]
//   $ ./aadlc --builtin --acm          # use the paper's Fig. 2 scenario
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "aadl/compile.hpp"
#include "aadl/parser.hpp"
#include "aadl/scenario_model.hpp"
#include "camkes/camkes.hpp"

namespace aadl = mkbas::aadl;
namespace camkes = mkbas::camkes;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: aadlc <model.aadl> <System.impl> "
               "[--acm|--camkes|--capdl]\n"
               "       aadlc --builtin [--acm|--camkes|--capdl]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source, system_name = "TempControl.impl", mode = "--acm";
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--builtin") == 0) {
    source = aadl::temp_control_aadl();
    ++arg;
  } else if (arg + 1 < argc) {
    std::ifstream in(argv[arg]);
    if (!in) {
      std::fprintf(stderr, "aadlc: cannot open %s\n", argv[arg]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
    ++arg;
    system_name = argv[arg++];
  } else {
    return usage();
  }
  if (arg < argc) mode = argv[arg];

  aadl::Parser parser(source);
  const aadl::Model model = parser.parse();
  if (!parser.ok()) {
    for (const auto& d : parser.diagnostics()) {
      std::fprintf(stderr, "aadlc: line %d: %s\n", d.line, d.message.c_str());
    }
    return 1;
  }
  std::vector<aadl::Diagnostic> diags;
  const auto sys = aadl::compile(model, system_name, diags);
  if (!sys.has_value()) {
    for (const auto& d : diags) {
      std::fprintf(stderr, "aadlc: line %d: %s\n", d.line, d.message.c_str());
    }
    return 1;
  }
  for (const auto& w : aadl::lint(model, system_name)) {
    std::fprintf(stderr, "aadlc: line %d: %s\n", w.line, w.message.c_str());
  }

  if (mode == "--acm") {
    std::fputs(aadl::emit_acm_c_source(*sys).c_str(), stdout);
  } else if (mode == "--camkes") {
    std::fputs(camkes::assembly_text(*sys).c_str(), stdout);
  } else if (mode == "--capdl") {
    std::fputs(camkes::plan(camkes::assembly_of(*sys)).to_text().c_str(),
               stdout);
  } else {
    return usage();
  }
  return 0;
}
