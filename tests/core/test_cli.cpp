// The shared experiment_runner flag grammar: every subcommand parses
// through core::parse_cli. Flags only — the legacy positional spellings
// of the earlier runners are gone, and this file pins that they no
// longer do anything.
#include <gtest/gtest.h>

#include <vector>

#include "core/request.hpp"

namespace core = mkbas::core;

namespace {

core::CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "experiment_runner");
  return core::parse_cli(static_cast<int>(argv.size()),
                         const_cast<char**>(argv.data()));
}

}  // namespace

TEST(Cli, FlagGrammarCoversSharedOptions) {
  const auto a = parse({"fabric", "--platform", "sel4", "--scenario", "uds",
                        "--seed", "9", "--zones", "16", "--jobs", "4",
                        "--out", "s.json", "--metrics-out", "m.json",
                        "--trace-out", "t.json", "--attack", "spoof-write"});
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.mode, "fabric");
  EXPECT_TRUE(a.has_platform);
  EXPECT_EQ(a.request.platform, mkbas::bas::Platform::kSel4);
  EXPECT_EQ(a.request.scenario, "uds");
  EXPECT_TRUE(a.has_seed);
  EXPECT_EQ(a.request.seed, 9u);
  EXPECT_EQ(a.request.zones, 16);
  EXPECT_EQ(a.request.jobs, 4);
  EXPECT_EQ(a.request.artifacts[core::ArtifactKind::kSummary], "s.json");
  EXPECT_EQ(a.request.artifacts[core::ArtifactKind::kMetrics], "m.json");
  EXPECT_EQ(a.request.artifacts[core::ArtifactKind::kTrace], "t.json");
  EXPECT_TRUE(a.request.artifacts.any());
  EXPECT_EQ(a.request.artifacts.mask(),
            core::artifact_bit(core::ArtifactKind::kSummary) |
                core::artifact_bit(core::ArtifactKind::kMetrics) |
                core::artifact_bit(core::ArtifactKind::kTrace));
  EXPECT_TRUE(a.has_attack);
  EXPECT_EQ(a.request.attack, "spoof-write");
}

TEST(Cli, EveryArtifactFlagFillsItsSlot) {
  const auto a = parse({"campaign", "fabric", "--out", "a", "--metrics-out",
                        "b", "--trace-out", "c", "--trace-spans", "d",
                        "--audit-out", "e", "--critical-out", "f",
                        "--series-out", "g", "--health-out", "h",
                        "--flight-out", "i", "--metrics-prom-out", "j",
                        "--profile-out", "k", "--profile-trace", "l"});
  EXPECT_TRUE(a.error.empty());
  const char* expect[core::kArtifactKinds] = {"a", "b", "c", "d", "e", "f",
                                              "g", "h", "i", "j", "k", "l"};
  for (int k = 0; k < core::kArtifactKinds; ++k) {
    EXPECT_EQ(a.request.artifacts[static_cast<core::ArtifactKind>(k)],
              expect[k]);
  }
}

TEST(Cli, TopologyAndSyncFlagsParse) {
  const auto a = parse({"fabric", "--topology", "campus", "--floors", "4",
                        "--buildings", "3", "--sync", "epoch", "--lite",
                        "--zones", "1200"});
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.request.topology, mkbas::net::TopologySpec::Kind::kCampus);
  EXPECT_EQ(a.request.floors, 4);
  EXPECT_EQ(a.request.buildings, 3);
  EXPECT_EQ(a.request.sync, mkbas::net::SyncMode::kEpoch);
  EXPECT_TRUE(a.request.lite);
  EXPECT_EQ(a.request.zones, 1200);

  const auto d = parse({"fabric"});
  EXPECT_EQ(d.request.topology, mkbas::net::TopologySpec::Kind::kFlat);
  EXPECT_EQ(d.request.sync, mkbas::net::SyncMode::kLookahead);
  EXPECT_FALSE(d.request.lite);

  const auto bad = parse({"fabric", "--topology", "mesh"});
  EXPECT_FALSE(bad.error.empty());
  const auto bad2 = parse({"fabric", "--sync", "optimistic"});
  EXPECT_FALSE(bad2.error.empty());
}

TEST(Cli, DefaultsWhenNothingGiven) {
  const auto a = parse({"matrix"});
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.mode, "matrix");
  EXPECT_FALSE(a.has_platform);
  EXPECT_FALSE(a.has_seed);
  EXPECT_EQ(a.request.scenario, "temp");
  EXPECT_EQ(a.request.zones, 4);
  EXPECT_EQ(a.request.jobs, 1);
  EXPECT_TRUE(a.pos.empty());
}

TEST(Cli, LegacyPositionalSpellingsAreInertPositionals) {
  // The pre-unification grammar "attack linux kill root" no longer
  // fills any typed field: the words pass through as positionals and
  // request_from_cli rejects the combination (no --attack given).
  const auto a = parse({"attack", "linux", "kill", "root"});
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.mode, "attack");
  EXPECT_FALSE(a.has_platform);
  EXPECT_FALSE(a.request.root);
  ASSERT_EQ(a.pos.size(), 3u);
  EXPECT_EQ(a.pos[0], "linux");
  EXPECT_EQ(a.pos[1], "kill");
  EXPECT_EQ(a.pos[2], "root");

  core::ExperimentRequest req;
  std::string err;
  EXPECT_FALSE(core::request_from_cli(a, &req, &err));
  EXPECT_NE(err.find("--platform"), std::string::npos) << err;

  // Even with the platform given as a flag, the positional attack kind
  // is not interpreted: the adapter demands --attack.
  const auto b = parse({"attack", "--platform", "linux", "kill", "root"});
  EXPECT_TRUE(b.error.empty());
  EXPECT_FALSE(core::request_from_cli(b, &req, &err));
  EXPECT_NE(err.find("--attack"), std::string::npos) << err;

  // "fault minix seed 7" likewise: no platform, no seed, just words.
  const auto f = parse({"fault", "minix", "seed", "7", "no-probe"});
  EXPECT_TRUE(f.error.empty());
  EXPECT_FALSE(f.has_platform);
  EXPECT_FALSE(f.has_seed);
  EXPECT_TRUE(f.request.probe);
  EXPECT_EQ(f.pos.size(), 4u);
}

TEST(Cli, LegacyEscapeHatchIsGone) {
  // --legacy was the acknowledgement flag for the deprecation cycle; it
  // must now be an ordinary unknown-flag error.
  const auto a = parse({"attack", "linux", "kill", "--legacy"});
  ASSERT_FALSE(a.error.empty());
  EXPECT_NE(a.error.find("--legacy"), std::string::npos);
}

TEST(Cli, ServeFlagsParse) {
  const auto a = parse({"serve", "--port", "0", "--jobs", "3", "--batch", "5",
                        "--slow-ms", "40", "--store-cap", "64", "--no-trace"});
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.mode, "serve");
  EXPECT_EQ(a.port, 0);
  EXPECT_EQ(a.request.jobs, 3);
  EXPECT_EQ(a.batch, 5);
  EXPECT_EQ(a.slow_ms, 40);
  EXPECT_EQ(a.store_cap, 64);
  EXPECT_TRUE(a.no_trace);
  EXPECT_EQ(parse({"serve"}).port, 8080);
  EXPECT_EQ(parse({"serve"}).batch, 8);
  EXPECT_EQ(parse({"serve"}).slow_ms, 250);
  EXPECT_EQ(parse({"serve"}).store_cap, 0);
  EXPECT_FALSE(parse({"serve"}).no_trace);
}

TEST(Cli, CampaignSubmodeIsPositional) {
  const auto a = parse({"campaign", "fabric", "--zones", "8", "--jobs", "2"});
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.mode, "campaign");
  ASSERT_EQ(a.pos.size(), 1u);
  EXPECT_EQ(a.pos[0], "fabric");
  EXPECT_EQ(a.request.zones, 8);
  EXPECT_EQ(a.request.jobs, 2);
}

TEST(Cli, UnknownFlagAndMissingValueAreErrors) {
  EXPECT_FALSE(parse({"benign", "--frobnicate"}).error.empty());
  EXPECT_FALSE(parse({"benign", "--seed"}).error.empty());
  EXPECT_FALSE(parse({"benign", "--platform", "plan9"}).error.empty());
  // Single-dash typos are errors too; negative numbers are not flags.
  EXPECT_FALSE(parse({"benign", "-seed", "3"}).error.empty());
}

TEST(Cli, UnknownFlagSuggestsNearestSpelling) {
  const auto a = parse({"fabric", "--zoned", "16"});
  ASSERT_FALSE(a.error.empty());
  EXPECT_NE(a.error.find("--zoned"), std::string::npos);
  EXPECT_NE(a.error.find("did you mean '--zones'"), std::string::npos);
  const auto b = parse({"fabric", "--topology", "campos"});
  ASSERT_FALSE(b.error.empty());
  EXPECT_NE(b.error.find("did you mean 'campus'"), std::string::npos);
}

TEST(Cli, ParserHelpersRoundTrip) {
  mkbas::bas::Platform p;
  EXPECT_TRUE(core::parse_platform("minix", &p));
  EXPECT_TRUE(core::parse_platform("sel4", &p));
  EXPECT_TRUE(core::parse_platform("linux", &p));
  EXPECT_FALSE(core::parse_platform("windows", &p));

  mkbas::attack::AttackKind k;
  EXPECT_TRUE(core::parse_attack_kind("spoof-sensor", &k));
  EXPECT_TRUE(core::parse_attack_kind("brute-force", &k));
  EXPECT_FALSE(core::parse_attack_kind("spoof-write", &k));

  core::FabricAttack f;
  EXPECT_TRUE(core::parse_fabric_attack("none", &f));
  EXPECT_TRUE(core::parse_fabric_attack("spoof-write", &f));
  EXPECT_TRUE(core::parse_fabric_attack("replay", &f));
  EXPECT_TRUE(core::parse_fabric_attack("flood", &f));
  EXPECT_FALSE(core::parse_fabric_attack("kill", &f));
}

TEST(Cli, MalformedNumbersAreErrors) {
  // Numbers go through the JSON number grammar: plain digits only, no
  // sign, fraction, suffix or overflow.
  for (const char* seed : {"abc", "-1", "7x", "18446744073709551616"}) {
    const auto a = parse({"benign", "--platform", "minix", "--seed", seed});
    EXPECT_NE(a.error.find("'seed'"), std::string::npos) << seed << a.error;
  }
  EXPECT_FALSE(parse({"fabric", "--zones", "2x"}).error.empty());
  EXPECT_FALSE(parse({"fabric", "--jobs", "1.5"}).error.empty());
  EXPECT_FALSE(parse({"serve", "--port", "abc"}).error.empty());
  EXPECT_FALSE(parse({"serve", "--jobs", "abc"}).error.empty());
  EXPECT_FALSE(parse({"serve", "--batch", "-2"}).error.empty());
  EXPECT_FALSE(parse({"serve", "--slow-ms", "1e3"}).error.empty());
  EXPECT_FALSE(parse({"serve", "--store-cap", "2147483648"}).error.empty());
  // The largest seed still parses exactly.
  const auto max = parse({"benign", "--seed", "18446744073709551615"});
  EXPECT_TRUE(max.error.empty()) << max.error;
  EXPECT_EQ(max.request.seed, 18446744073709551615ull);
}

TEST(Cli, TopologiesTheFabricCannotBuildAreErrors) {
  for (const char* kind : {"line", "star"}) {
    const auto a = parse({"fabric", "--topology", kind});
    EXPECT_NE(a.error.find("flat|tree|campus"), std::string::npos) << a.error;
  }
}
