// Parallel-merge lock-down for the causal exports: a 16-zone fabric
// building (plus attack cells for a multi-cell reduction) must produce
// byte-identical merged span stores and audit journals for any --jobs
// value — completion order must never leak into the artifacts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../same_bytes.hpp"
#include "campaign/campaign.hpp"

namespace core = mkbas::core;
namespace sim = mkbas::sim;

namespace {

std::vector<core::CampaignCell> span_cells() {
  std::vector<core::CampaignCell> cells;

  core::CampaignCell fab;
  fab.name = "fabric/spoof/z16";
  fab.kind = core::CellKind::kFabric;
  fab.fabric.zones = 16;
  fab.fabric.seed = 5;
  fab.fabric.duration = sim::minutes(5);
  fab.fabric.attack = core::FabricAttack::kSpoofWrite;
  fab.fabric.attack_at = sim::minutes(2);
  cells.push_back(fab);

  core::RunOptions opts;
  opts.settle = sim::sec(45);
  opts.post = sim::sec(60);
  opts.seed = 9;
  for (core::Platform p :
       {core::Platform::kMinix, core::Platform::kSel4,
        core::Platform::kLinux}) {
    core::CampaignCell c;
    c.name = std::string("attack/kill/") + core::to_string(p);
    c.kind = core::CellKind::kAttack;
    c.platform = p;
    c.opts = opts;
    c.attack_kind = mkbas::attack::AttackKind::kKillControl;
    c.privilege = mkbas::attack::Privilege::kCodeExec;
    cells.push_back(c);
  }
  return cells;
}

TEST(CampaignSpans, SixteenZoneFabricMergeIsJobsInvariant) {
  const std::vector<core::CampaignCell> cells = span_cells();
  const core::CampaignResult seq = core::run_campaign(cells, 1);
  const core::CampaignResult par = core::run_campaign(cells, 4);

  ASSERT_FALSE(seq.merged_spans_json.empty());
  EXPECT_TRUE(same_bytes(seq.merged_spans_json, par.merged_spans_json));
  EXPECT_TRUE(same_bytes(seq.merged_audit_json, par.merged_audit_json));
  EXPECT_TRUE(same_bytes(seq.summary_json(), par.summary_json()));

  // The merged store really carries the building: network link hops
  // from the fabric cell and the attack span from the kill cells.
  EXPECT_NE(seq.merged_spans_json.find("net.link"), std::string::npos);
  EXPECT_NE(seq.merged_spans_json.find("web.compromised"),
            std::string::npos);
  EXPECT_NE(seq.merged_audit_json.find("acm.kill_deny"),
            std::string::npos);
}

}  // namespace
