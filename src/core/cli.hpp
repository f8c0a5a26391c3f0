#pragma once

#include <string>
#include <vector>

#include "core/request.hpp"

namespace mkbas::core {

/// The one flag grammar every experiment_runner subcommand shares. A
/// request flag is its JSON key (`--zones 3` is `"zones":3`) and goes
/// through the same typed setter as a POST /run body; the booleans are
/// switches (--lite --root --quota --acl, and --no-probe for
/// `"probe":false`), --csv/--md set the matrix format, and every
/// artifact has a path flag (--out --metrics-out --trace-out ...). The
/// tables behind them, and parse_cli, are in core/request.cpp. serve
/// adds --port N --batch N --slow-ms N --store-cap N --no-trace. Numbers
/// take plain digits only.
///
/// Every option is a flag: positionals beyond the mode (and the
/// campaign submode) are passed through in `pos` untouched, and unknown
/// flags — single- or double-dash — are parse errors with a
/// did-you-mean hint.
struct CliArgs {
  ExperimentRequest request;       // what the request flags fill
  std::string mode;                // first positional ("benign", ...)
  std::vector<std::string> pos;    // remaining positionals, in order

  // Which of these flags were given: request_from_cli's CLI-only rules.
  bool has_platform = false;
  bool has_seed = false;
  bool has_attack = false;

  int port = 8080;                 // --port: serve listen port (0 = any)
  int batch = 8;                   // --batch: serve max cells per batch
  /// --slow-ms: serve slow-request forensics threshold (0 = snapshot
  /// every request; useful under test).
  int slow_ms = 250;
  /// --store-cap: serve result-store cell bound (0 = unbounded).
  int store_cap = 0;
  /// --no-trace: disable serve request tracing + SSE event publication.
  bool no_trace = false;

  /// Non-empty when parsing failed; the caller prints usage.
  std::string error;
};

CliArgs parse_cli(int argc, char** argv);

}  // namespace mkbas::core
