// Byte-level goldens for run_request's bundles: every deterministic
// artifact of one request per mode shape, pinned by its FNV-1a hash
// together with the bundle's key list. These are the bytes the CLI writes
// to its --*-out files and the daemon serves from /result, so a change to
// how a mode folds or exports its telemetry shows up here first.
//
// A failing cell prints its recomputed row in source form, so an
// intentional change re-pins by pasting; an unintentional one shows
// exactly which artifact moved.
#include <gtest/gtest.h>

#include <string>

#include "campaign/run_request.hpp"
#include "core/hash.hpp"

namespace core = mkbas::core;

using core::RequestMode;
using mkbas::bas::Platform;

namespace {

/// "kind=hash" for every artifact of the bundle, in key order.
std::string bundle_row(const core::ExperimentResponse& resp) {
  std::string row;
  for (const auto& [name, text] : resp.artifacts) {
    if (!row.empty()) row += ' ';
    row += name + "=" + core::hex64(core::fnv1a(text));
  }
  return row;
}

/// The row as string literals, two artifacts per line.
std::string source_form(const std::string& row) {
  std::string out = "\"";
  int on_line = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] != ' ') {
      out += row[i];
      continue;
    }
    if (++on_line == 2) {
      out += " \"\n\"";
      on_line = 0;
    } else {
      out += ' ';
    }
  }
  return out + "\"";
}

/// Pins the bundle and, when `table_golden` is given, the hash of the
/// text the CLI prints (only modes whose table carries no wall clock).
void expect_bundle(const core::ExperimentRequest& req, const char* golden,
                   const char* table_golden = nullptr) {
  const core::ExperimentResponse resp =
      core::run_request(req, core::all_deterministic_artifacts());
  const std::string row = bundle_row(resp);
  EXPECT_EQ(row, golden) << req.to_canonical_json() << "\nrecomputed row:\n"
                         << source_form(row);
  if (table_golden != nullptr) {
    EXPECT_EQ(core::hex64(core::fnv1a(resp.table)), table_golden)
        << resp.table;
  }
}

core::ExperimentRequest request(RequestMode mode) {
  core::ExperimentRequest r;
  r.mode = mode;
  return r;
}

}  // namespace

// ---- single machine: serve-mix's cold shapes ----

TEST(RequestGolden, BenignMinix) {
  core::ExperimentRequest r = request(RequestMode::kBenign);
  r.platform = Platform::kMinix;
  r.seed = 5;
  expect_bundle(r,
                "audit=7a36e2dc508d2490 critical=9da23964f4d93ae1 "
                "flight=302c3a57e32bed36 health=88c65db9593a5232 "
                "metrics=e5f05e4f9082a36a metrics_prom=d51e329b8ff12205 "
                "series=14978c815faceaca spans=6da608b936057a64 "
                "summary=a497913eb47b763a trace=e63539c4beea35c8");
}

TEST(RequestGolden, AttackSel4SpoofSensor) {
  core::ExperimentRequest r = request(RequestMode::kAttack);
  r.platform = Platform::kSel4;
  r.attack = "spoof-sensor";
  r.seed = 5;
  expect_bundle(r,
                "audit=177fbd54e8c11420 critical=a7d78a820d372444 "
                "flight=302c3a57e32bed36 health=88c65db9593a5232 "
                "metrics=98cea376c66110aa metrics_prom=b0f75e23721cb88e "
                "series=19c2c16805df9dc5 spans=a47e388af00637ce "
                "summary=58194a9ecffd1c1b trace=43f52b35156d4cbf");
}

TEST(RequestGolden, FaultLinux) {
  core::ExperimentRequest r = request(RequestMode::kFault);
  r.platform = Platform::kLinux;
  r.seed = 5;
  expect_bundle(r,
                "audit=7a36e2dc508d2490 critical=48e52b30fadc1a47 "
                "flight=2dc1e8304ab559b6 health=88c65db9593a5232 "
                "metrics=23e9c53c4905821d metrics_prom=532dad929ab90682 "
                "series=700d343b6f520fe3 spans=b9b458fe79fe31dc "
                "summary=227f50272b8ca2b2 trace=55406d4e5696b630");
}

// ---- T1 ----

TEST(RequestGolden, Matrix) {
  core::ExperimentRequest r = request(RequestMode::kMatrix);
  r.jobs = 4;
  expect_bundle(r, "summary=0a8811f1952f8c96", "305c834bc788e9d6");
}

// ---- fabric ----

TEST(RequestGolden, FabricFlatFlood) {
  core::ExperimentRequest r = request(RequestMode::kFabric);
  r.zones = 3;
  r.attack = "flood";
  r.seed = 7;
  expect_bundle(r,
                "audit=d3050ee7bc42c1a6 critical=e88fbfffa2e50779 "
                "flight=b90de46da81ce1bc health=05300f389ae729fd "
                "metrics=fffe25d406c84c80 metrics_prom=3477e97e2c2d24d0 "
                "series=8aeaa1e583b09243 spans=6fc01e3f58914806 "
                "summary=534d0e231937d410");
}

TEST(RequestGolden, FabricTreeSpoofWrite) {
  core::ExperimentRequest r = request(RequestMode::kFabric);
  r.zones = 6;
  r.topology = mkbas::net::TopologySpec::Kind::kTree;
  r.floors = 2;
  r.attack = "spoof-write";
  r.seed = 5;
  expect_bundle(r,
                "audit=ee495938445a6b8b critical=57f9052ba8eec86e "
                "flight=302c3a57e32bed36 health=36ed5668ffcfe6ea "
                "metrics=46773dfb48340414 metrics_prom=6d813a97229ae9eb "
                "series=a4a6361e51866382 spans=cd6fd4e1134696dc "
                "summary=7e0148ed9d607814");
}

// ---- campaigns ----

TEST(RequestGolden, CampaignMatrix) {
  core::ExperimentRequest r = request(RequestMode::kCampaignMatrix);
  r.jobs = 4;
  expect_bundle(r,
                "audit=4959d3cbb8461ccf flight=c480092d100aebcf "
                "health=bd0681fe5622ea31 metrics=d480df4e58c0ad01 "
                "metrics_prom=9b1b46d9da8c1e35 series=594f5605d2280066 "
                "spans=8a4b92fc38550722 summary=52c7c3c8beacd7e7");
}

TEST(RequestGolden, CampaignFault) {
  expect_bundle(request(RequestMode::kCampaignFault),
                "audit=c820d74143ebaec3 flight=1d746863e13dff78 "
                "health=a8bc8ce05ff3fd27 metrics=f7bb010ca46da450 "
                "metrics_prom=32b9cdda2663c75b series=3d5339f2c620efe0 "
                "spans=1d2fd6128b95b900 summary=db0e6b3d3f8aff5b");
}

TEST(RequestGolden, CampaignSweepMinix) {
  core::ExperimentRequest r = request(RequestMode::kCampaignSweep);
  r.platform = Platform::kMinix;
  r.seeds = 2;
  expect_bundle(r,
                "audit=7a36e2dc508d2490 flight=302c3a57e32bed36 "
                "health=88c65db9593a5232 metrics=e7bd16730d10f68e "
                "metrics_prom=6b3b00b4b47ddb78 series=b5e3f6087ae1c1cc "
                "spans=c5653307bf63e481 summary=282eabdc47131fb8");
}

TEST(RequestGolden, CampaignFabric) {
  core::ExperimentRequest r = request(RequestMode::kCampaignFabric);
  r.zones = 2;
  expect_bundle(r,
                "audit=3ec9cc7d21357cf7 flight=5abc23b738e8e8f0 "
                "health=4c37b27bfcb59f76 metrics=c726f2d22efb9b96 "
                "metrics_prom=dc9e931c068eccc7 series=518e31def92b54b5 "
                "spans=261fbec00c34e1e2 summary=1044fb77a622ccce");
}
