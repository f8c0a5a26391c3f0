#include "core/request.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <type_traits>

#include "core/hash.hpp"
#include "core/jsonv.hpp"
#include "obs/json.hpp"

namespace mkbas::core {

namespace {

using R = ExperimentRequest;

const R kDefaults;

// ---- Spellings: the words of each request enum, written once ----------

std::string join(const std::vector<std::string>& words) {
  std::string s;
  for (const auto& w : words) s += (s.empty() ? "" : "|") + w;
  return s;
}

/// One enum's words, in the order `(expected a|b|c)` lists them;
/// words[i] spells the enumerator values[i].
struct Words {
  std::vector<std::string> words;
  std::vector<int> values;

  Words() = default;
  /// Words spelled here: word i spells enumerator i.
  Words(std::initializer_list<const char*> ws) {
    for (const char* w : ws) add(static_cast<int>(words.size()), w);
  }
  /// Words the enum's own module spells, through its to_string.
  template <typename E>
  Words(std::initializer_list<E> vs, const char* (*name)(E)) {
    for (E v : vs) add(static_cast<int>(v), name(v));
  }

  void add(int value, std::string word) {
    values.push_back(value);
    words.push_back(std::move(word));
  }
  int find(const std::string& w) const {
    const auto it = std::find(words.begin(), words.end(), w);
    return it == words.end() ? -1 : static_cast<int>(it - words.begin());
  }
  /// "?" for an enumerator the grammar does not accept, like the
  /// owners' to_string.
  std::string word(int value) const {
    const auto it = std::find(values.begin(), values.end(), value);
    return it == values.end() ? "?" : words[static_cast<std::size_t>(
                                          it - values.begin())];
  }
};

const Words kPlatforms({bas::Platform::kMinix, bas::Platform::kSel4,
                        bas::Platform::kLinux},
                       bas::platform_name);
/// Only the layouts run_fabric builds; net::Topology keeps line and star
/// for the sync battery.
const Words kTopologies({net::TopologySpec::Kind::kFlat,
                         net::TopologySpec::Kind::kTree,
                         net::TopologySpec::Kind::kCampus},
                        net::to_string);
const Words kSyncs = {"lookahead", "epoch"};  // net::SyncMode order
/// attack::AttackKind order; its to_string gives the display labels.
const Words kHostAttacks = {"spoof-sensor", "spoof-actuator", "kill",
                            "fork-bomb",    "brute-force",    "flood"};
const Words kFabricAttacks({FabricAttack::kNone, FabricAttack::kSpoofWrite,
                            FabricAttack::kReplay, FabricAttack::kFlood},
                           to_string);
const Words kFormats = {"table", "csv", "md"};  // the first is the default

template <typename E>
bool lookup(const Words& w, const std::string& s, E* out) {
  const int i = w.find(s);
  if (i >= 0) *out = static_cast<E>(w.values[static_cast<std::size_t>(i)]);
  return i >= 0;
}

std::string unknown_value(const std::string& key, const std::string& value,
                          const Words& w) {
  return "'" + key + "': unknown value '" + value + "' (expected " +
         join(w.words) + ")" + did_you_mean(value, w.words);
}

// ---- Modes: one row per RequestMode, in enum order ---------------------

struct Mode {
  const char* wire;         // "campaign.x" is `campaign x` on the CLI
  bool cli_needs_platform;  // the CLI requires --platform
  const Words* attacks;     // the attack grammar; nullptr: takes none
  bool builds_plant;        // runs the scenario's temperature plant
};

const Mode kModes[kRequestModes] = {
    {"benign", true, nullptr, true},
    {"attack", true, &kHostAttacks, true},
    {"matrix", false, nullptr, false},
    {"fault", true, nullptr, true},
    {"fabric", false, &kFabricAttacks, false},
    {"campaign.matrix", false, nullptr, false},
    {"campaign.sweep", true, nullptr, false},
    {"campaign.fault", false, nullptr, false},
    {"campaign.fabric", false, &kFabricAttacks, false},
};

const Words kModeWords = [] {
  Words w{};
  for (int i = 0; i < kRequestModes; ++i) w.add(i, kModes[i].wire);
  return w;
}();

// ---- Artifacts: one row per ArtifactKind, in enum order ----------------

struct Artifact {
  const char* name;  // the bundle key and the daemon's ?artifact= value
  const char* flag;  // the CLI's path flag
  bool deterministic;
};

const Artifact kArtifacts[kArtifactKinds] = {
    {"summary", "--out", true},
    {"metrics", "--metrics-out", true},
    {"trace", "--trace-out", true},
    {"spans", "--trace-spans", true},
    {"audit", "--audit-out", true},
    {"critical", "--critical-out", true},
    {"series", "--series-out", true},
    {"health", "--health-out", true},
    {"flight", "--flight-out", true},
    {"metrics_prom", "--metrics-prom-out", true},
    {"profile", "--profile-out", false},
    {"profile_trace", "--profile-trace", false},
};

// ---- Fields: one row per request member --------------------------------

/// `flag` is the field's command-line spelling: nullptr for none; a
/// boolean's flag is a switch that sets true, or false when spelled
/// --no-<key>; "--" alone makes each of the field's words but the first
/// a switch of its own (--csv, --md); any other flag takes the next
/// argument as its value.
struct Field {
  const char* key;
  const char* flag;
  const Words* words;  // an enum's spellings
  bool canonical;      // rendered by to_canonical_json, so in the key
  Json::Kind kind;     // what a value-taking flag's text becomes
  bool (*set)(const Field&, R&, const Json&, std::string* err);
  void (*put)(const Field&, const R&, std::string* out);
};

std::string expected(const Field& f, const std::string& what) {
  return "'" + std::string(f.key) + "': expected " + what;
}

/// A JSON number without sign, fraction or exponent that fits N: every
/// count and seed, from a body or a command line.
template <typename N>
bool whole(const Json& v, N* out) {
  if (!v.is_u64() || v.as_u64() > std::numeric_limits<N>::max()) return false;
  *out = static_cast<N>(v.as_u64());
  return true;
}

bool read(const Field& f, const Json& v, bool* out, std::string* err) {
  if (!v.is_bool()) {
    *err = expected(f, "boolean, got ") + to_string(v.kind);
    return false;
  }
  *out = v.boolean;
  return true;
}

bool read(const Field& f, const Json& v, std::string* out, std::string* err) {
  if (!v.is_string()) {
    *err = expected(f, "string, got ") + to_string(v.kind);
    return false;
  }
  *out = v.text;
  return true;
}

template <typename N>
  requires std::is_integral_v<N>
bool read(const Field& f, const Json& v, N* out, std::string* err) {
  if (whole(v, out)) return true;
  *err = expected(f, "a non-negative integer");
  return false;
}

template <typename E>
  requires std::is_enum_v<E>
bool read(const Field& f, const Json& v, E* out, std::string* err) {
  std::string s;
  if (!read(f, v, &s, err)) return false;
  if (lookup(*f.words, s, out)) return true;
  *err = unknown_value(f.key, s, *f.words);
  return false;
}

void write(const Field&, bool b, std::string* out) {
  *out += b ? "true" : "false";
}
template <typename N>
  requires std::is_integral_v<N>
void write(const Field&, N n, std::string* out) {
  *out += std::to_string(n);
}
void write(const Field&, const std::string& s, std::string* out) {
  *out += '"' + obs::json_escape(s) + '"';
}
template <typename E>
  requires std::is_enum_v<E>
void write(const Field& f, E e, std::string* out) {
  *out += '"' + f.words->word(static_cast<int>(e)) + '"';
}

template <auto M>
Field field(const char* key, const char* flag, const Words* words = nullptr,
            bool canonical = true) {
  using T = std::remove_cvref_t<decltype(kDefaults.*M)>;
  return {key,
          flag,
          words,
          canonical,
          std::is_same_v<T, bool>        ? Json::Kind::kBool
          : std::is_arithmetic_v<T>      ? Json::Kind::kNumber
                                         : Json::Kind::kString,
          [](const Field& f, R& r, const Json& v, std::string* err) {
            return read(f, v, &(r.*M), err);
          },
          [](const Field& f, const R& r, std::string* out) {
            write(f, r.*M, out);
          }};
}

/// Sorted by key: the order to_canonical_json renders.
const Field kFields[] = {
    field<&R::acl>("acl", "--acl"),
    field<&R::attack>("attack", "--attack"),
    field<&R::buildings>("buildings", "--buildings"),
    field<&R::floors>("floors", "--floors"),
    field<&R::format>("format", "--", &kFormats),
    field<&R::jobs>("jobs", "--jobs", nullptr, /*canonical=*/false),
    field<&R::lite>("lite", "--lite"),
    field<&R::mode>("mode", nullptr, &kModeWords),
    field<&R::platform>("platform", "--platform", &kPlatforms),
    field<&R::probe>("probe", "--no-probe"),
    field<&R::quota>("quota", "--quota"),
    field<&R::root>("root", "--root"),
    field<&R::scenario>("scenario", "--scenario"),
    field<&R::seed>("seed", "--seed"),
    field<&R::seeds>("seeds", "--seeds"),
    field<&R::sync>("sync", "--sync", &kSyncs),
    field<&R::topology>("topology", "--topology", &kTopologies),
    field<&R::zones>("zones", "--zones"),
};

/// One command-line flag, derived from the field and artifact tables.
struct Flag {
  std::string spelling;
  const Field* field;  // nullptr: an artifact's path flag
  int artifact;
  Json preset;  // the value a bare switch sets; kNull: takes an argument
};

std::vector<Flag> make_flags() {
  std::vector<Flag> out;
  for (const Field& f : kFields) {
    if (f.flag == nullptr) continue;
    const std::string flag = f.flag;
    Json v;
    if (flag == "--") {
      for (std::size_t i = 1; i < f.words->words.size(); ++i) {
        v.kind = Json::Kind::kString;
        v.text = f.words->words[i];
        out.push_back({flag + v.text, &f, -1, v});
      }
      continue;
    }
    if (f.kind == Json::Kind::kBool) {
      v.kind = Json::Kind::kBool;
      v.boolean = flag != "--no-" + std::string(f.key);
    }
    out.push_back({flag, &f, -1, v});
  }
  for (int k = 0; k < kArtifactKinds; ++k) {
    out.push_back({kArtifacts[k].flag, nullptr, k, {}});
  }
  return out;
}

const std::vector<Flag> kFlags = make_flags();

bool finish(const R& r, R* out, std::string* err) {
  *err = r.validate();
  if (!err->empty()) return false;
  *out = r;
  return true;
}

/// The mode the CLI's words name: "benign", or "campaign fault" for
/// campaign.fault.
bool mode_from_words(const CliArgs& a, RequestMode* out, std::string* err) {
  std::vector<std::string> firsts = {"serve"};  // the runner's daemon
  std::vector<std::string> subs;
  for (int i = 0; i < kRequestModes; ++i) {
    const std::string wire = kModes[i].wire;
    const std::size_t dot = wire.find('.');
    const std::string first = wire.substr(0, dot);
    if (first != a.mode) {
      firsts.push_back(first);
    } else if (dot == std::string::npos ||
               (!a.pos.empty() && a.pos[0] == wire.substr(dot + 1))) {
      *out = static_cast<RequestMode>(i);
      return true;
    } else {
      subs.push_back(wire.substr(dot + 1));
    }
  }
  if (subs.empty()) {
    *err = "unknown mode '" + a.mode + "'" + did_you_mean(a.mode, firsts);
  } else if (a.pos.empty()) {
    *err = a.mode + " needs a submode: " + a.mode + " <" + join(subs) + ">";
  } else {
    *err = "unknown " + a.mode + " submode '" + a.pos[0] + "'" +
           did_you_mean(a.pos[0], subs);
  }
  return false;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string did_you_mean(const std::string& word,
                         const std::vector<std::string>& candidates) {
  std::size_t best = 4;  // suggestions beyond edit distance 3 mislead
  const std::string* pick = nullptr;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(word, c);
    if (d < best && d < std::max<std::size_t>(c.size(), 1)) {
      best = d;
      pick = &c;
    }
  }
  if (pick == nullptr) return "";
  return " (did you mean '" + *pick + "'?)";
}

const char* to_string(ArtifactKind k) {
  return kArtifacts[static_cast<int>(k)].name;
}

bool parse_artifact_kind(const std::string& s, ArtifactKind* out) {
  for (int i = 0; i < kArtifactKinds; ++i) {
    if (s == kArtifacts[i].name) {
      *out = static_cast<ArtifactKind>(i);
      return true;
    }
  }
  return false;
}

bool artifact_is_deterministic(ArtifactKind k) {
  return kArtifacts[static_cast<int>(k)].deterministic;
}

bool ArtifactRequest::any() const {
  for (const auto& p : path) {
    if (!p.empty()) return true;
  }
  return false;
}

unsigned ArtifactRequest::mask() const {
  unsigned m = 0;
  for (int i = 0; i < kArtifactKinds; ++i) {
    if (!path[static_cast<std::size_t>(i)].empty()) m |= 1u << i;
  }
  return m;
}

unsigned all_deterministic_artifacts() {
  unsigned m = 0;
  for (int i = 0; i < kArtifactKinds; ++i) {
    if (kArtifacts[i].deterministic) m |= 1u << i;
  }
  return m;
}

const char* to_string(RequestMode m) {
  return kModes[static_cast<int>(m)].wire;
}

bool parse_platform(const std::string& s, bas::Platform* out) {
  return lookup(kPlatforms, s, out);
}

bool parse_attack_kind(const std::string& s, attack::AttackKind* out) {
  return lookup(kHostAttacks, s, out);
}

bool parse_fabric_attack(const std::string& s, FabricAttack* out) {
  return lookup(kFabricAttacks, s, out);
}

std::string ExperimentRequest::to_canonical_json() const {
  // Keys in sorted order, every canonical field present. The bytes of
  // this rendering ARE the cache identity — change it only with a
  // schema_version bump and a migration story for stored keys.
  std::string s = "{";
  for (const Field& f : kFields) {
    if (!f.canonical) continue;
    if (s.size() > 1) s += ',';
    s += '"';
    s += f.key;
    s += "\":";
    f.put(f, *this, &s);
  }
  return s + "}";
}

std::uint64_t ExperimentRequest::cell_key() const {
  return fnv1a(to_canonical_json());
}

std::string ExperimentRequest::cell_key_hex() const {
  return hex64(cell_key());
}

std::string ExperimentRequest::validate() const {
  if (scenario.empty()) return "'scenario': must not be empty";
  if (zones < 1) return "'zones': must be >= 1";
  if (seeds < 1) return "'seeds': must be >= 1";
  if (floors < 1) return "'floors': must be >= 1";
  if (buildings < 1) return "'buildings': must be >= 1";
  if (jobs < 1) return "'jobs': must be >= 1";
  if (kFormats.find(format) < 0) {
    return unknown_value("format", format, kFormats);
  }
  const Mode& m = kModes[static_cast<int>(mode)];
  if (m.builds_plant && !bas::scenario_has_plant(platform, scenario)) {
    const auto variants = bas::scenario_variants(platform);
    std::vector<std::string> runnable;
    for (const auto& v : variants) {
      if (bas::scenario_has_plant(platform, v)) runnable.push_back(v);
    }
    const bool known =
        std::find(variants.begin(), variants.end(), scenario) != variants.end();
    return "'scenario': " +
           (known ? "'" + scenario + "' has no temperature plant"
                  : "unknown value '" + scenario + "'") +
           " on " + platform_name(platform) + " (expected " + join(runnable) +
           ")";
  }
  if (m.attacks != nullptr && m.attacks->find(attack) < 0) {
    return unknown_value("attack", attack, *m.attacks);
  }
  if (m.attacks == nullptr && attack != kDefaults.attack) {
    return std::string("'attack': mode '") + m.wire +
           "' does not take an attack";
  }
  return "";
}

bool parse_request_json(const std::string& json, ExperimentRequest* out,
                        std::string* err) {
  *out = ExperimentRequest{};
  Json root;
  if (!json_parse(json, &root, err)) return false;
  if (!root.is_object()) {
    *err = std::string("request must be a JSON object, got ") +
           to_string(root.kind);
    return false;
  }
  ExperimentRequest r;
  for (const auto& [key, v] : root.members) {
    const Field* f = std::find_if(std::begin(kFields), std::end(kFields),
                                  [&](const Field& x) { return key == x.key; });
    if (f == std::end(kFields)) {
      std::vector<std::string> keys;
      for (const Field& x : kFields) keys.emplace_back(x.key);
      *err = "unknown field '" + key + "'" + did_you_mean(key, keys);
      return false;
    }
    if (!f->set(*f, r, v, err)) return false;
  }
  return finish(r, out, err);
}

CliArgs parse_cli(int argc, char** argv) {
  // The serve subcommand's counts.
  static const std::pair<const char*, int CliArgs::*> kServeCounts[] = {
      {"--port", &CliArgs::port},
      {"--batch", &CliArgs::batch},
      {"--slow-ms", &CliArgs::slow_ms},
      {"--store-cap", &CliArgs::store_cap},
  };
  CliArgs a;
  for (int i = 1; i < argc && a.error.empty(); ++i) {
    const std::string arg = argv[i];
    const auto flag = std::find_if(
        kFlags.begin(), kFlags.end(),
        [&](const Flag& f) { return f.spelling == arg; });
    const auto count =
        std::find_if(std::begin(kServeCounts), std::end(kServeCounts),
                     [&](const auto& c) { return arg == c.first; });
    const bool takes_value =
        (flag != kFlags.end() && flag->preset.kind == Json::Kind::kNull) ||
        count != std::end(kServeCounts);
    if (takes_value && i + 1 >= argc) {
      a.error = arg + " needs a value";
      break;
    }
    const std::string text = takes_value ? argv[++i] : "";
    Json v;
    std::string ignored;
    if (flag != kFlags.end() && flag->field == nullptr) {
      a.request.artifacts.path[static_cast<std::size_t>(flag->artifact)] = text;
    } else if (flag != kFlags.end()) {
      // Numbers go through the JSON number grammar; any other value is
      // the field's string.
      const Field& f = *flag->field;
      if (!takes_value) {
        v = flag->preset;
      } else if (f.kind != Json::Kind::kNumber ||
                 !json_parse(text, &v, &ignored)) {
        v.kind = Json::Kind::kString;
        v.text = text;
      }
      if (!f.set(f, a.request, v, &a.error)) break;
      const std::string key = f.key;
      a.has_platform |= key == "platform";
      a.has_seed |= key == "seed";
      a.has_attack |= key == "attack";
    } else if (count != std::end(kServeCounts)) {
      if (!json_parse(text, &v, &ignored) || !whole(v, &(a.*count->second))) {
        a.error = "'" + arg + "': expected a non-negative integer";
      }
    } else if (arg == "--no-trace") {
      a.no_trace = true;
    } else if (arg.size() >= 2 && arg[0] == '-' &&
               !(arg[1] >= '0' && arg[1] <= '9')) {
      // Any unrecognized flag — double- or single-dash — is an error, so
      // typos like --zoned 16 never run the default experiment.
      std::vector<std::string> known = {"--no-trace"};
      for (const Flag& f : kFlags) known.push_back(f.spelling);
      for (const auto& c : kServeCounts) known.emplace_back(c.first);
      a.error = "unknown flag: " + arg + did_you_mean(arg, known);
    } else if (a.mode.empty()) {
      a.mode = arg;
    } else {
      // Positionals beyond the mode are passed through untouched; only
      // the campaign submode reads them.
      a.pos.push_back(arg);
    }
  }
  return a;
}

bool request_from_cli(const CliArgs& a, ExperimentRequest* out,
                      std::string* err) {
  *out = ExperimentRequest{};
  err->clear();
  ExperimentRequest r = a.request;
  if (!mode_from_words(a, &r.mode, err)) return false;
  const Mode& m = kModes[static_cast<int>(r.mode)];
  if (m.cli_needs_platform && !a.has_platform) {
    *err = std::string("mode '") + m.wire + "' needs --platform <" +
           join(kPlatforms.words) + ">";
    return false;
  }
  if (m.attacks == nullptr && a.has_attack) {
    *err = std::string("mode '") + m.wire + "' does not take --attack";
    return false;
  }
  if (m.attacks != nullptr && !a.has_attack &&
      m.attacks->find(kDefaults.attack) < 0) {
    *err = std::string("mode '") + m.wire + "' needs --attack <" +
           join(m.attacks->words) + ">";
    return false;
  }
  // The reference fault campaign historically pins seed 42; an explicit
  // --seed overrides it.
  if (r.mode == RequestMode::kCampaignFault && !a.has_seed) r.seed = 42;
  return finish(r, out, err);
}

}  // namespace mkbas::core
