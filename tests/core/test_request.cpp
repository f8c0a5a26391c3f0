// The canonical ExperimentRequest API: golden canonical-JSON renderings
// per mode, the serialize -> parse -> serialize round-trip contract,
// hash sensitivity of every canonical field, strict deserialization
// errors, and the CLI adapter's equivalence with direct construction.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/jsonv.hpp"
#include "core/request.hpp"

namespace core = mkbas::core;

namespace {

core::ExperimentRequest parse_or_die(const std::string& json) {
  core::ExperimentRequest r;
  std::string err;
  EXPECT_TRUE(core::parse_request_json(json, &r, &err)) << err;
  return r;
}

std::string parse_error(const std::string& json) {
  core::ExperimentRequest r;
  std::string err;
  EXPECT_FALSE(core::parse_request_json(json, &r, &err)) << json;
  return err;
}

core::ExperimentRequest from_cli(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "experiment_runner");
  const core::CliArgs a = core::parse_cli(static_cast<int>(argv.size()),
                                          const_cast<char**>(argv.data()));
  EXPECT_TRUE(a.error.empty()) << a.error;
  core::ExperimentRequest r;
  std::string err;
  EXPECT_TRUE(core::request_from_cli(a, &r, &err)) << err;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------
// Golden canonical renderings. These bytes ARE the cache identity:
// if one of these strings changes, every stored cell key changes with
// it, so a failure here means a deliberate (versioned) migration, not a
// formatting nit.

TEST(RequestGolden, DefaultBenign) {
  const core::ExperimentRequest r;
  EXPECT_EQ(r.to_canonical_json(),
            "{\"acl\":false,\"attack\":\"none\",\"buildings\":1,\"floors\":1,"
            "\"format\":\"table\",\"lite\":false,\"mode\":\"benign\","
            "\"platform\":\"minix\",\"probe\":true,\"quota\":false,"
            "\"root\":false,\"scenario\":\"temp\",\"seed\":1,\"seeds\":8,"
            "\"sync\":\"lookahead\",\"topology\":\"flat\",\"zones\":4}");
}

TEST(RequestGolden, EveryModeRendersItsName) {
  const char* const expected[core::kRequestModes] = {
      "benign",          "attack",         "matrix",
      "fault",           "fabric",         "campaign.matrix",
      "campaign.sweep",  "campaign.fault", "campaign.fabric"};
  for (int i = 0; i < core::kRequestModes; ++i) {
    core::ExperimentRequest r;
    r.mode = static_cast<core::RequestMode>(i);
    const std::string want = std::string("\"mode\":\"") + expected[i] + "\"";
    EXPECT_NE(r.to_canonical_json().find(want), std::string::npos)
        << r.to_canonical_json();
  }
}

TEST(RequestGolden, AttackModeRendering) {
  core::ExperimentRequest r;
  r.mode = core::RequestMode::kAttack;
  r.platform = mkbas::bas::Platform::kLinux;
  r.attack = "kill";
  r.root = true;
  r.acl = true;
  EXPECT_EQ(r.to_canonical_json(),
            "{\"acl\":true,\"attack\":\"kill\",\"buildings\":1,\"floors\":1,"
            "\"format\":\"table\",\"lite\":false,\"mode\":\"attack\","
            "\"platform\":\"linux\",\"probe\":true,\"quota\":false,"
            "\"root\":true,\"scenario\":\"temp\",\"seed\":1,\"seeds\":8,"
            "\"sync\":\"lookahead\",\"topology\":\"flat\",\"zones\":4}");
}

TEST(RequestGolden, FabricCampusRendering) {
  core::ExperimentRequest r;
  r.mode = core::RequestMode::kFabric;
  r.zones = 16;
  r.seed = 7;
  r.attack = "spoof-write";
  r.topology = mkbas::net::TopologySpec::Kind::kCampus;
  r.floors = 4;
  r.buildings = 3;
  r.sync = mkbas::net::SyncMode::kEpoch;
  r.lite = true;
  EXPECT_EQ(
      r.to_canonical_json(),
      "{\"acl\":false,\"attack\":\"spoof-write\",\"buildings\":3,"
      "\"floors\":4,\"format\":\"table\",\"lite\":true,\"mode\":\"fabric\","
      "\"platform\":\"minix\",\"probe\":true,\"quota\":false,\"root\":false,"
      "\"scenario\":\"temp\",\"seed\":7,\"seeds\":8,\"sync\":\"epoch\","
      "\"topology\":\"campus\",\"zones\":16}");
}

// ---------------------------------------------------------------------
// Round-trip property: canonical JSON parses back to a request that
// re-serializes to the same bytes (and the same cell key) — for every
// mode, and for a large seed that must survive u64 round-tripping.

TEST(RequestRoundTrip, CanonicalJsonIsAFixedPoint) {
  for (int i = 0; i < core::kRequestModes; ++i) {
    core::ExperimentRequest r;
    r.mode = static_cast<core::RequestMode>(i);
    if (r.mode == core::RequestMode::kAttack) r.attack = "spoof-sensor";
    if (r.mode == core::RequestMode::kFabric ||
        r.mode == core::RequestMode::kCampaignFabric) {
      r.attack = "replay";
    }
    r.seed = 18446744073709551615ull;  // UINT64_MAX: doubles cannot hold it
    const std::string first = r.to_canonical_json();
    const core::ExperimentRequest back = parse_or_die(first);
    EXPECT_EQ(back.to_canonical_json(), first);
    EXPECT_EQ(back.cell_key(), r.cell_key());
  }
}

TEST(RequestRoundTrip, JobsAndArtifactsAreNotCanonical) {
  core::ExperimentRequest a;
  core::ExperimentRequest b;
  b.jobs = 32;
  b.artifacts[core::ArtifactKind::kMetrics] = "/tmp/m.json";
  EXPECT_EQ(a.to_canonical_json(), b.to_canonical_json());
  EXPECT_EQ(a.cell_key(), b.cell_key());
  // ...but jobs still parses as an execution hint.
  const auto r = parse_or_die("{\"jobs\":3,\"mode\":\"campaign.fault\"}");
  EXPECT_EQ(r.jobs, 3);
}

// Any single canonical-field change must move the cell key.
TEST(RequestRoundTrip, EveryCanonicalFieldFeedsTheKey) {
  const core::ExperimentRequest base;  // benign/minix defaults
  std::vector<core::ExperimentRequest> variants(14, base);
  variants[0].acl = true;
  variants[1].attack = "spoof-sensor";  // not validated here, only keyed
  variants[2].buildings = 2;
  variants[3].floors = 2;
  variants[4].format = "csv";
  variants[5].lite = true;
  variants[6].mode = core::RequestMode::kMatrix;
  variants[7].platform = mkbas::bas::Platform::kSel4;
  variants[8].probe = false;
  variants[9].quota = true;
  variants[10].root = true;
  variants[11].scenario = "uds";
  variants[12].seed = 2;
  variants[13].seeds = 9;
  std::vector<core::ExperimentRequest> more(3, base);
  more[0].sync = mkbas::net::SyncMode::kEpoch;
  more[1].topology = mkbas::net::TopologySpec::Kind::kTree;
  more[2].zones = 5;
  variants.insert(variants.end(), more.begin(), more.end());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].cell_key(), base.cell_key()) << "variant " << i;
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(variants[i].cell_key(), variants[j].cell_key())
          << i << " vs " << j;
    }
  }
}

// ---------------------------------------------------------------------
// Strict deserialization.

TEST(RequestParse, UnknownFieldIsAnErrorWithHint) {
  const std::string err = parse_error("{\"zoned\":16}");
  EXPECT_NE(err.find("unknown field 'zoned'"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean 'zones'"), std::string::npos) << err;
}

TEST(RequestParse, TypeMismatchNamesTheField) {
  EXPECT_NE(parse_error("{\"zones\":\"four\"}").find("'zones'"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"lite\":1}").find("'lite'"), std::string::npos);
  EXPECT_NE(parse_error("{\"mode\":3}").find("'mode'"), std::string::npos);
  EXPECT_NE(parse_error("{\"seed\":-4}").find("'seed'"), std::string::npos);
  EXPECT_NE(parse_error("{\"seed\":1.5}").find("'seed'"), std::string::npos);
}

TEST(RequestParse, EnumValuesGetHints) {
  EXPECT_NE(parse_error("{\"mode\":\"fabrik\"}").find("did you mean 'fabric'"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"platform\":\"miniks\"}")
                .find("did you mean 'minix'"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"sync\":\"lookahed\"}")
                .find("did you mean 'lookahead'"),
            std::string::npos);
}

TEST(RequestParse, MalformedJsonAndDuplicateKeysRejected) {
  EXPECT_FALSE(parse_error("{\"zones\":4,}").empty());       // trailing comma
  EXPECT_FALSE(parse_error("[1,2]").empty());                // not an object
  EXPECT_FALSE(parse_error("").empty());
  EXPECT_NE(parse_error("{\"zones\":1,\"zones\":2}").find("duplicate"),
            std::string::npos);
}

TEST(RequestParse, ValidationRunsAfterParsing) {
  EXPECT_NE(parse_error("{\"mode\":\"attack\"}").find("'attack'"),
            std::string::npos);  // attack mode needs an attack kind
  EXPECT_NE(parse_error("{\"attack\":\"kill\",\"mode\":\"fabric\"}")
                .find("'attack'"),
            std::string::npos);  // kill is not a fabric attack
  EXPECT_NE(parse_error("{\"zones\":0}").find("'zones'"), std::string::npos);
  EXPECT_NE(parse_error("{\"format\":\"yaml\"}").find("'format'"),
            std::string::npos);
}

TEST(RequestParse, ScenarioWithoutAPlantIsRejected) {
  // benign, attack and fault drive the temperature plant: a variant
  // without one (bsl3) or no variant at all must not reach a worker.
  const std::string bsl3 = parse_error(
      "{\"attack\":\"kill\",\"mode\":\"attack\",\"platform\":\"minix\","
      "\"scenario\":\"bsl3\"}");
  EXPECT_NE(bsl3.find("'scenario'"), std::string::npos) << bsl3;
  EXPECT_NE(bsl3.find("temp"), std::string::npos) << bsl3;
  const std::string bogus = parse_error("{\"scenario\":\"bogus\"}");
  EXPECT_NE(bogus.find("'scenario'"), std::string::npos) << bogus;
  EXPECT_NE(parse_error("{\"mode\":\"fault\",\"platform\":\"sel4\","
                        "\"scenario\":\"uds\"}")
                .find("'scenario'"),
            std::string::npos);
  // Registered temperature variants stay valid; modes that never build
  // the request's scenario ignore it.
  parse_or_die("{\"platform\":\"linux\",\"scenario\":\"uds\"}");
  parse_or_die("{\"mode\":\"fabric\",\"scenario\":\"bsl3\"}");
}

TEST(RequestDrivers, PlantlessVariantThrowsInsteadOfCrashing) {
  core::RunOptions opts;
  opts.scenario_variant = "bsl3";
  opts.settle = mkbas::sim::sec(1);
  opts.post = mkbas::sim::sec(1);
  EXPECT_THROW(core::run_attack(core::Platform::kMinix,
                                mkbas::attack::AttackKind::kKillControl,
                                mkbas::attack::Privilege::kCodeExec, opts),
               std::invalid_argument);
  EXPECT_THROW(core::run_fault(core::Platform::kSel4,
                               mkbas::fault::reference_sensor_crash_plan(),
                               opts),
               std::invalid_argument);
}

TEST(RequestParse, DefaultsApplyForAbsentFields) {
  const auto r = parse_or_die("{\"mode\":\"fabric\",\"zones\":9}");
  EXPECT_EQ(r.mode, core::RequestMode::kFabric);
  EXPECT_EQ(r.zones, 9);
  EXPECT_EQ(r.seed, 1u);
  EXPECT_EQ(r.scenario, "temp");
  EXPECT_EQ(r.attack, "none");
  EXPECT_TRUE(r.probe);
  EXPECT_EQ(r.format, "table");
  EXPECT_EQ(r.jobs, 1);
}

// ---------------------------------------------------------------------
// CLI adapter: flags and HTTP bodies are the same cell.

TEST(RequestFromCli, FlagAndJsonSpellingsShareACell) {
  const auto cli = from_cli({"fabric", "--zones", "3", "--seed", "7",
                             "--attack", "spoof-write"});
  const auto json = parse_or_die(
      "{\"attack\":\"spoof-write\",\"mode\":\"fabric\",\"seed\":7,"
      "\"zones\":3}");
  EXPECT_EQ(cli.to_canonical_json(), json.to_canonical_json());
  EXPECT_EQ(cli.cell_key(), json.cell_key());
}

TEST(RequestFromCli, LegacyPositionalSpellingsAreRejected) {
  // The legacy "attack linux kill root" grammar is gone: the words no
  // longer fill platform/attack/root, so the adapter reports the first
  // missing flag instead of silently guessing.
  std::vector<const char*> argv = {"experiment_runner", "attack", "linux",
                                   "kill", "root"};
  const core::CliArgs a = core::parse_cli(static_cast<int>(argv.size()),
                                          const_cast<char**>(argv.data()));
  EXPECT_TRUE(a.error.empty()) << a.error;
  core::ExperimentRequest r;
  std::string err;
  EXPECT_FALSE(core::request_from_cli(a, &r, &err));
  EXPECT_NE(err.find("--platform"), std::string::npos) << err;
}

TEST(RequestFromCli, CampaignSubmodesMap) {
  EXPECT_EQ(from_cli({"campaign", "matrix"}).mode,
            core::RequestMode::kCampaignMatrix);
  EXPECT_EQ(from_cli({"campaign", "sweep", "--platform", "sel4"}).mode,
            core::RequestMode::kCampaignSweep);
  EXPECT_EQ(from_cli({"campaign", "fault"}).mode,
            core::RequestMode::kCampaignFault);
  EXPECT_EQ(from_cli({"campaign", "fabric"}).mode,
            core::RequestMode::kCampaignFabric);
  // The reference fault campaign pins seed 42 unless --seed overrides.
  EXPECT_EQ(from_cli({"campaign", "fault"}).seed, 42u);
  EXPECT_EQ(from_cli({"campaign", "fault", "--seed", "3"}).seed, 3u);
}

TEST(RequestFromCli, MissingPlatformOrAttackFails) {
  core::ExperimentRequest r;
  std::string err;
  {
    const char* argv[] = {"x", "benign"};
    const auto a = core::parse_cli(2, const_cast<char**>(argv));
    EXPECT_FALSE(core::request_from_cli(a, &r, &err));
    EXPECT_NE(err.find("--platform"), std::string::npos);
  }
  {
    const char* argv[] = {"x", "attack", "--platform", "minix"};
    const auto a = core::parse_cli(4, const_cast<char**>(argv));
    EXPECT_FALSE(core::request_from_cli(a, &r, &err));
    EXPECT_NE(err.find("--attack"), std::string::npos);
  }
  {
    // --attack on a mode that does not take one is rejected, not ignored.
    const char* argv[] = {"x", "benign", "--platform", "minix", "--attack",
                          "kill"};
    const auto a = core::parse_cli(6, const_cast<char**>(argv));
    EXPECT_FALSE(core::request_from_cli(a, &r, &err));
    EXPECT_NE(err.find("does not take --attack"), std::string::npos);
  }
}

// ---------------------------------------------------------------------
// The strict JSON value parser backing parse_request_json.

TEST(Jsonv, ParsesScalarsAndStructure) {
  mkbas::core::Json v;
  std::string err;
  ASSERT_TRUE(mkbas::core::json_parse(
      "{\"a\":[1,2.5,-3],\"b\":\"x\\u0041\",\"c\":true,\"d\":null}", &v,
      &err))
      << err;
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 4u);
  const mkbas::core::Json* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_TRUE(a->items[0].is_u64());
  EXPECT_EQ(a->items[0].as_u64(), 1u);
  EXPECT_FALSE(a->items[1].is_u64());
  EXPECT_FALSE(a->items[2].is_u64());  // negative
  EXPECT_EQ(v.find("b")->text, "xA");
}

TEST(Jsonv, RejectsBadInputWithOffsets) {
  mkbas::core::Json v;
  std::string err;
  EXPECT_FALSE(mkbas::core::json_parse("{\"a\":01}", &v, &err));
  EXPECT_FALSE(mkbas::core::json_parse("{'a':1}", &v, &err));
  EXPECT_FALSE(mkbas::core::json_parse("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(mkbas::core::json_parse("{\"a\":+1}", &v, &err));
  EXPECT_FALSE(mkbas::core::json_parse("{\"a\":NaN}", &v, &err));
}

TEST(Jsonv, U64RoundTripsExactly) {
  mkbas::core::Json v;
  std::string err;
  ASSERT_TRUE(
      mkbas::core::json_parse("{\"s\":18446744073709551615}", &v, &err));
  ASSERT_TRUE(v.find("s")->is_u64());
  EXPECT_EQ(v.find("s")->as_u64(), 18446744073709551615ull);
}

TEST(ArtifactKinds, NamesRoundTripAndProfilesAreVolatile) {
  for (int i = 0; i < core::kArtifactKinds; ++i) {
    const auto k = static_cast<core::ArtifactKind>(i);
    core::ArtifactKind back;
    ASSERT_TRUE(core::parse_artifact_kind(core::to_string(k), &back));
    EXPECT_EQ(back, k);
  }
  EXPECT_FALSE(
      core::artifact_is_deterministic(core::ArtifactKind::kProfile));
  EXPECT_FALSE(
      core::artifact_is_deterministic(core::ArtifactKind::kProfileTrace));
  EXPECT_EQ(core::all_deterministic_artifacts() &
                core::artifact_bit(core::ArtifactKind::kProfile),
            0u);
  EXPECT_NE(core::all_deterministic_artifacts() &
                core::artifact_bit(core::ArtifactKind::kSummary),
            0u);
}

TEST(RequestParse, TopologyAcceptsOnlyWhatTheFabricBuilds) {
  // net::Topology also builds line and star for the sync battery, but
  // run_fabric does not: the request grammar turns them away up front.
  for (const char* kind : {"line", "star"}) {
    const std::string err = parse_error(
        std::string("{\"mode\":\"fabric\",\"topology\":\"") + kind + "\"}");
    EXPECT_NE(err.find("'topology'"), std::string::npos) << err;
    EXPECT_NE(err.find("(expected flat|tree|campus)"), std::string::npos)
        << err;
  }
  for (const char* kind : {"flat", "tree", "campus"}) {
    parse_or_die(std::string("{\"mode\":\"fabric\",\"topology\":\"") + kind +
                 "\"}");
  }
}

// ---------------------------------------------------------------------
// Seeded mutation of the canonical body of every mode. Fixed seed and
// budget: no input may crash or hang the parser, every accepted body's
// canonical JSON is a fixed point, and every accepted request spelled as
// flags (this file's own mapping) is the same cell through the CLI.

namespace {

/// The request as experiment_runner flags, spelled independently of the
/// grammar tables under test.
std::vector<std::string> as_flags(const core::ExperimentRequest& r) {
  const std::string mode = core::to_string(r.mode);
  const std::size_t dot = mode.find('.');
  std::vector<std::string> argv = {"experiment_runner", mode.substr(0, dot)};
  if (dot != std::string::npos) argv.push_back(mode.substr(dot + 1));
  const auto flag = [&](const char* f, const std::string& v) {
    argv.push_back(f);
    argv.push_back(v);
  };
  flag("--platform", core::platform_name(r.platform));
  flag("--scenario", r.scenario);
  flag("--seed", std::to_string(r.seed));
  flag("--zones", std::to_string(r.zones));
  flag("--seeds", std::to_string(r.seeds));
  flag("--floors", std::to_string(r.floors));
  flag("--buildings", std::to_string(r.buildings));
  flag("--jobs", std::to_string(r.jobs));
  flag("--topology", mkbas::net::to_string(r.topology));
  flag("--sync",
       r.sync == mkbas::net::SyncMode::kEpoch ? "epoch" : "lookahead");
  if (r.attack != "none") flag("--attack", r.attack);
  if (r.lite) argv.push_back("--lite");
  if (r.root) argv.push_back("--root");
  if (r.quota) argv.push_back("--quota");
  if (r.acl) argv.push_back("--acl");
  if (!r.probe) argv.push_back("--no-probe");
  if (r.format != "table") argv.push_back("--" + r.format);
  return argv;
}

/// Top-level members of a body ("\"key\":value"), split at every comma:
/// exact for the seed requests' canonical bodies, whose values hold
/// none, and merely more noise for an already mutated one.
std::vector<std::string> members(const std::string& body) {
  std::vector<std::string> out(1);
  for (std::size_t i = 1; i + 1 < body.size(); ++i) {
    if (body[i] == ',') {
      out.emplace_back();
    } else {
      out.back() += body[i];
    }
  }
  return out;
}

std::string object_of(const std::vector<std::string>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) s += (i ? "," : "") + ms[i];
  return s + "}";
}

}  // namespace

TEST(RequestFuzz, MutatedBodiesNeverCrashAndAcceptedOnesMatchTheCli) {
  const char* const kValues[] = {
      "true", "false", "null", "[]", "{}", "\"x\"", "\"\"", "0", "1", "-1",
      "1.5", "1e3", "01", "2147483647", "2147483648", "18446744073709551615",
      "18446744073709551616", "\"none\"", "\"kill\"", "\"replay\"",
      "\"flood\"", "\"line\"", "\"star\"", "\"tree\"", "\"campus\"",
      "\"epoch\"", "\"csv\"", "\"md\"", "\"yaml\"", "\"sel4\"", "\"linux\"",
      "\"uds\"", "\"bsl3\"", "\"campaign.fabric\"", "\"attack\""};
  std::uint64_t state = 0x6d6b626173ULL;  // fixed seed: "mkbas"
  const auto next = [&state](std::uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % n;
  };
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < core::kRequestModes; ++i) {
    core::ExperimentRequest seed_req;
    seed_req.mode = static_cast<core::RequestMode>(i);
    if (seed_req.mode == core::RequestMode::kAttack) seed_req.attack = "kill";
    if (seed_req.mode == core::RequestMode::kFabric ||
        seed_req.mode == core::RequestMode::kCampaignFabric) {
      seed_req.attack = "replay";
    }
    const std::string base = seed_req.to_canonical_json();
    for (int n = 0; n < 1500; ++n) {
      std::string body = base;
      for (std::uint64_t k = 1 + next(3); k > 0 && !body.empty(); --k) {
        std::vector<std::string> ms = members(body);
        const std::size_t j = next(ms.size());
        const std::string key = ms[j].substr(0, ms[j].find(':') + 1);
        switch (next(6)) {
          case 0:  // flip one bit of one byte
            body[next(body.size())] ^= static_cast<char>(1u << next(8));
            continue;
          case 1:  // truncate
            body.resize(next(body.size()));
            continue;
          case 2:  // drop a field
            ms.erase(ms.begin() + static_cast<std::ptrdiff_t>(j));
            break;
          case 3:  // duplicate a field
            ms.insert(ms.begin() + static_cast<std::ptrdiff_t>(next(ms.size())),
                      ms[j]);
            break;
          default:  // swap in another type, an out-of-range number or word
            ms[j] = key + kValues[next(std::size(kValues))];
            break;
        }
        body = object_of(ms);
      }

      core::ExperimentRequest r;
      std::string err;
      if (!core::parse_request_json(body, &r, &err)) {
        ASSERT_FALSE(err.empty()) << body;
        ++rejected;
        continue;
      }
      ++accepted;
      const std::string canonical = r.to_canonical_json();
      core::ExperimentRequest back;
      ASSERT_TRUE(core::parse_request_json(canonical, &back, &err))
          << body << " -> " << canonical << ": " << err;
      ASSERT_EQ(back.to_canonical_json(), canonical) << body;

      if (r.scenario.find('\0') != std::string::npos) continue;  // not argv
      const std::vector<std::string> words = as_flags(r);
      std::vector<char*> argv;
      for (const auto& w : words) argv.push_back(const_cast<char*>(w.c_str()));
      const core::CliArgs a =
          core::parse_cli(static_cast<int>(argv.size()), argv.data());
      ASSERT_TRUE(a.error.empty()) << body << ": " << a.error;
      core::ExperimentRequest cli;
      ASSERT_TRUE(core::request_from_cli(a, &cli, &err)) << body << ": " << err;
      ASSERT_EQ(cli.cell_key(), r.cell_key())
          << body << "\n  cli: " << cli.to_canonical_json();
    }
  }
  // Both outcomes are exercised, not just the reject path.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}
