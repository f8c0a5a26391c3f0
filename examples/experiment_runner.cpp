// experiment_runner — run any single experiment from the command line,
// or serve them over HTTP.
//
// Every subcommand is a thin adapter: flags parse into a canonical
// core::ExperimentRequest, core::run_request() executes it, and this
// file only decides where the bytes go (stdout, --out files, or the
// daemon's result cache). Identical requests produce byte-identical
// artifact bundles whether they arrive via flags or POST /run.
//
//   $ ./experiment_runner benign --platform minix
//   $ ./experiment_runner attack --platform linux --attack kill --root
//   $ ./experiment_runner matrix [--csv|--md] [--jobs N]
//   $ ./experiment_runner fault --platform sel4 --seed 7 [--no-probe]
//   $ ./experiment_runner fabric --zones 16 --attack spoof-write
//   $ ./experiment_runner campaign <matrix|sweep|fault|fabric>
//         [--jobs N] [--out file.json] [--zones N]
//   $ ./experiment_runner serve [--port N] [--jobs N] [--batch N]
//         [--slow-ms N] [--store-cap N] [--no-trace]
//
// Flags only: the legacy positional spellings ("benign minix",
// "attack linux kill root") were removed after their deprecation cycle.
#include <cstdio>
#include <fstream>
#include <string>

#include "campaign/run_request.hpp"
#include "core/request.hpp"
#include "serve/daemon.hpp"

namespace core = mkbas::core;
namespace serve = mkbas::serve;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: experiment_runner benign --platform <minix|sel4|linux>\n"
      "       experiment_runner attack --platform P --attack <kind> "
      "[--root] [--quota] [--acl]\n"
      "       experiment_runner matrix [--csv|--md] [--jobs N]\n"
      "       experiment_runner fault --platform P [--seed N] [--no-probe]\n"
      "       experiment_runner fabric [--zones N] [--seed N] "
      "[--attack <none|spoof-write|replay|flood>]\n"
      "                                [--topology <flat|tree|campus>] "
      "[--floors N] [--buildings N]\n"
      "                                [--sync <lookahead|epoch>] [--jobs N] "
      "[--lite]\n"
      "       experiment_runner campaign <matrix|sweep|fault|fabric> "
      "[--jobs N] [--out file.json]\n"
      "       experiment_runner campaign sweep --platform P [--seeds N]\n"
      "       experiment_runner serve [--port N] [--jobs N] [--batch N]\n"
      "                               [--slow-ms N] [--store-cap N] "
      "[--no-trace]\n"
      "shared: --scenario <temp|uds|bsl3> --seed N --zones N --jobs N "
      "--out F --metrics-out F --trace-out F\n"
      "        --trace-spans F --audit-out F --critical-out F\n"
      "        --series-out F --health-out F --flight-out F "
      "--metrics-prom-out F\n"
      "        --profile-out F --profile-trace F (campaign only)\n"
      "attacks: spoof-sensor spoof-actuator kill fork-bomb brute-force "
      "flood\n");
  return 2;
}

/// Print `text` when `path` is empty, else write it there. False (after
/// a warning) when the file cannot be written.
bool write_or_print(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::printf("%s\n", text.c_str());
    return true;
  }
  std::ofstream f(path);
  f << text << "\n";
  if (!f) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  return true;
}

int run_serve(const core::CliArgs& args) {
  serve::DaemonOptions opts;
  opts.port = args.port;
  opts.jobs = args.request.jobs;
  opts.batch = args.batch;
  opts.tracing = !args.no_trace;
  opts.slow_ms = args.slow_ms;
  opts.store_cap =
      args.store_cap > 0 ? static_cast<std::size_t>(args.store_cap) : 0;
  serve::Daemon daemon(opts);
  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%d (--jobs %d, --batch %d%s)\n",
              daemon.port(), opts.jobs, opts.batch,
              opts.tracing ? "" : ", tracing off");
  std::fflush(stdout);
  daemon.wait();
  std::printf("daemon stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::CliArgs args = core::parse_cli(argc, argv);
  if (!args.error.empty()) {
    std::fprintf(stderr, "error: %s\n", args.error.c_str());
    return usage();
  }
  if (args.mode.empty()) return usage();

  if (args.mode == "serve") return run_serve(args);

  core::ExperimentRequest req;
  std::string err;
  if (!core::request_from_cli(args, &req, &err)) {
    if (!err.empty()) std::fprintf(stderr, "error: %s\n", err.c_str());
    return usage();
  }

  core::ExperimentResponse resp = core::run_request(req);
  std::fputs(resp.table.c_str(), stdout);

  // Artifact placement: each requested kind goes to its --*-out path.
  // The summary prints to stdout when --out was not given — matrix and
  // benign historically printed only their tables, so the summary stays
  // file-only there unless asked for explicitly. A file that cannot be
  // written fails the run (exit 1) once the others are written.
  bool unwritten = false;
  for (int k = 0; k < core::kArtifactKinds; ++k) {
    const auto kind = static_cast<core::ArtifactKind>(k);
    const std::string& path = req.artifacts[kind];
    const char* name = core::to_string(kind);
    const auto it = resp.artifacts.find(name);
    const auto vit = resp.volatile_artifacts.find(name);
    const std::string* text = it != resp.artifacts.end() ? &it->second
                              : vit != resp.volatile_artifacts.end()
                                  ? &vit->second
                                  : nullptr;
    if (kind == core::ArtifactKind::kSummary) {
      const bool print_summary =
          req.mode != core::RequestMode::kBenign &&
          req.mode != core::RequestMode::kAttack &&
          req.mode != core::RequestMode::kMatrix &&
          req.mode != core::RequestMode::kFault;
      if (text != nullptr && (print_summary || !path.empty())) {
        unwritten |= !write_or_print(path, *text);
      }
      continue;
    }
    if (path.empty()) continue;
    if (text == nullptr) {
      std::fprintf(stderr, "warning: %s produces no %s artifact (%s)\n",
                   core::to_string(req.mode), name, path.c_str());
      continue;
    }
    unwritten |= !write_or_print(path, *text);
  }
  return unwritten ? 1 : resp.exit_code;
}
