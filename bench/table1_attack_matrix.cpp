// T1 — regenerates the paper's central result (§IV.D): the attack-outcome
// matrix across Linux, security-enhanced MINIX 3 and seL4/CAmkES, for
// arbitrary-code-execution and root-privilege attackers, plus the
// fork-quota ablation the paper proposes as future work.
//
// The matrix runs on the campaign engine: each of the ~31 rows is an
// independent cell fanned across hardware threads (`--jobs N`, default
// 1). Row order and content are identical for every jobs value.
//
// Expected shape (paper): every spoof/kill attack succeeds on Linux and
// physically disrupts the plant; all are blocked on both microkernels,
// with or without root; the fork bomb is the one MINIX weakness, fixed by
// the ACM quota extension.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "campaign/campaign.hpp"

int main(int argc, char** argv) {
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    }
  }
  std::printf(
      "T1: attack outcomes across platforms (paper section IV.D)\n"
      "==========================================================\n"
      "workload: temperature-control scenario; web interface compromised\n"
      "at t=12min; run ends at t=32min. 'primitive' is the syscall-level\n"
      "outcome; 'physical world' is the ground-truth safety verdict.\n\n");
  // The table reads only the rows: no telemetry snapshots (mask 0).
  const auto rows = mkbas::core::attack_rows(mkbas::core::run_campaign(
      mkbas::core::attack_matrix_cells(), jobs, 0));
  std::printf("%s", mkbas::core::format_attack_table(rows).c_str());
  std::printf(
      "\nNotes:\n"
      " * Linux rows with privilege=root run against the well-configured\n"
      "   deployment (per-process accounts + queue ACLs) — root defeats\n"
      "   it anyway, as in the paper's second simulation.\n"
      " * MINIX3+ACM root rows are identical to code-exec rows: user\n"
      "   privilege is not tied to IPC on that platform (section IV.D.2).\n"
      " * seL4 has no root to escalate to (section IV.D.3).\n"
      " * fork-bomb on MINIX succeeds (the paper's admitted limitation)\n"
      "   unless the ACM fork quota — their proposed fix — is enabled.\n");
  return 0;
}
