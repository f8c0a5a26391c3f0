// The JsonWriter contract: every number form, id, escape and hash it
// produces is byte-for-byte what the printf/ostream code it replaced
// produced. The references below are those older implementations, kept
// here verbatim as the oracle.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/hash.hpp"
#include "sim/trace.hpp"

namespace obs = mkbas::obs;
namespace sim = mkbas::sim;

namespace {

// ---- references (the pre-writer formatting) ----

std::string ref_json_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ref_printf(const char* fmt, double v) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

std::string ref_ostream(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string ref_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::uint64_t ref_fnv1a(const std::string& s,
                        std::uint64_t h = 14695981039346656037ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// trace_hash as it was: two snprintf calls and three temporaries per
/// event, tag names looked up through the registry each time.
std::uint64_t ref_trace_hash(const sim::TraceLog& log) {
  std::uint64_t h = 14695981039346656037ULL;
  char buf[128];
  for (const auto& ev : log.events()) {
    std::snprintf(buf, sizeof buf, "%lld|%d|%s|",
                  static_cast<long long>(ev.time), ev.pid,
                  sim::to_string(ev.kind));
    h = ref_fnv1a(buf, h);
    h = ref_fnv1a(ev.what(), h);
    h = ref_fnv1a("|", h);
    h = ref_fnv1a(ev.detail, h);
    std::snprintf(buf, sizeof buf, "|%.17g\n", ev.value);
    h = ref_fnv1a(buf, h);
  }
  return h;
}

// ---- inputs ----

std::vector<double> special_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,      -0.0,     5e-324,   -5e-324, 1e-300, -1e-300,
          1e15 - 1, 1e15,     1e15 + 1, -1e15 + 1, -1e15, -1e15 - 1,
          DBL_MAX,  -DBL_MAX, DBL_MIN,  inf,     -inf,   nan,
          -nan,     0.5,      -0.5,     1.5,     2.5,    0.1,
          1.0 / 3,  123456.5, 1e16,     9007199254740993.0,
          999999.5, 9.9999995e-5, 1e21,  1e-5,    100.0,  1e6};
}

/// Every special value, then `n` doubles with uniformly random bit
/// patterns (every exponent, subnormals, NaN payloads of both signs).
std::vector<double> test_doubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> out = special_doubles();
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    out.push_back(d);
  }
  return out;
}

/// Render every value with `mine` into one writer and with `ref` into a
/// string, one per line, and compare line by line.
template <typename Mine, typename Ref>
void expect_same_lines(const std::vector<double>& values, Mine mine, Ref ref,
                       const char* form) {
  obs::JsonWriter w;
  std::string expected;
  for (double v : values) {
    mine(w, v);
    w.put('\n');
    expected += ref(v);
    expected += '\n';
  }
  const std::string got = w.take();
  if (got == expected) return;
  std::size_t line = 0, start = 0;
  for (;;) {
    const std::size_t ge = got.find('\n', start);
    const std::size_t ee = expected.find('\n', start);
    const std::string g = got.substr(start, ge - start);
    const std::string e = expected.substr(start, ee - start);
    if (g != e || ge != ee) {
      double v = values[line];
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      ADD_FAILURE() << form << " differs for bits 0x" << std::hex << bits
                    << ": writer '" << g << "' vs reference '" << e << "'";
      return;
    }
    start = ge + 1;
    ++line;
  }
}

constexpr std::size_t kRandomDoubles = 1'000'000;

/// String equality that reports the first differing offset instead of
/// asking gtest for a line diff of megabyte strings.
::testing::AssertionResult same_bytes(const std::string& got,
                                      const std::string& want) {
  if (got == want) return ::testing::AssertionSuccess();
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return ::testing::AssertionFailure()
         << "sizes " << got.size() << " vs " << want.size()
         << ", first difference at byte " << at << ": '"
         << got.substr(at, 40) << "' vs '" << want.substr(at, 40) << "'";
}

}  // namespace

// ---- numbers ----

TEST(JsonWriter, JsonDoubleRuleMatchesSnprintf) {
  expect_same_lines(
      test_doubles(kRandomDoubles, 1), [](obs::JsonWriter& w, double v) {
        w.num(v);
      },
      ref_json_double, "%.0f/%.17g");
}

TEST(JsonWriter, Precision17MatchesSnprintf) {
  expect_same_lines(
      test_doubles(kRandomDoubles, 2),
      [](obs::JsonWriter& w, double v) { w.general(v, 17); },
      [](double v) { return ref_printf("%.17g", v); }, "%.17g");
}

TEST(JsonWriter, GeneralMatchesSnprintfAndOstream) {
  const auto values = test_doubles(kRandomDoubles, 3);
  expect_same_lines(
      values, [](obs::JsonWriter& w, double v) { w.general(v); },
      [](double v) { return ref_printf("%g", v); }, "%g");
  // The Chrome trace streamed the raw double into an ostream.
  const std::vector<double> few(values.begin(), values.begin() + 20000);
  expect_same_lines(
      few, [](obs::JsonWriter& w, double v) { w.general(v); }, ref_ostream,
      "ostream <<");
}

TEST(JsonWriter, Fixed6MatchesSnprintf) {
  expect_same_lines(
      test_doubles(kRandomDoubles, 4),
      [](obs::JsonWriter& w, double v) { w.fixed(v, 6); },
      [](double v) { return ref_printf("%.6f", v); }, "%.6f");
}

TEST(JsonWriter, IntegersMatchSnprintf) {
  std::vector<std::int64_t> ints = {0,
                                    1,
                                    -1,
                                    9,
                                    10,
                                    -10,
                                    std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    std::numeric_limits<std::int32_t>::min(),
                                    std::numeric_limits<std::int32_t>::max()};
  std::mt19937_64 rng(5);
  for (int i = 0; i < 100000; ++i) {
    ints.push_back(static_cast<std::int64_t>(rng()) >> (rng() % 64));
  }
  obs::JsonWriter w;
  std::string expected;
  char buf[64];
  for (std::int64_t v : ints) {
    w.num(v).put(' ').num(static_cast<std::uint64_t>(v)).put(' ')
        .num(static_cast<int>(v)).put('\n');
    std::snprintf(buf, sizeof buf, "%lld %llu %d\n", static_cast<long long>(v),
                  static_cast<unsigned long long>(v), static_cast<int>(v));
    expected += buf;
  }
  EXPECT_TRUE(same_bytes(w.take(), expected));
}

TEST(JsonWriter, HexIsSixteenDigitsLikeSnprintf) {
  std::vector<std::uint64_t> ids = {0, 1, 0xf, 0x10, 0xdeadbeef,
                                    ~std::uint64_t{0}, 1ULL << 63};
  std::mt19937_64 rng(6);
  for (int i = 0; i < 100000; ++i) ids.push_back(rng() >> (rng() % 64));
  obs::JsonWriter w;
  std::string expected;
  char buf[24];
  for (std::uint64_t v : ids) {
    w.hex(v).put(',');
    std::snprintf(buf, sizeof buf, "%016llx,",
                  static_cast<unsigned long long>(v));
    expected += buf;
    EXPECT_EQ(mkbas::core::hex64(v), std::string(buf, 16));
  }
  EXPECT_TRUE(same_bytes(w.take(), expected));
}

// ---- strings ----

TEST(JsonWriter, EveryByteEscapesAsBefore) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    EXPECT_EQ(obs::json_escape(one), ref_json_escape(one)) << "byte " << b;
    obs::JsonWriter w;
    w.str(one);
    EXPECT_EQ(w.take(), "\"" + ref_json_escape(one) + "\"") << "byte " << b;
  }
  EXPECT_TRUE(same_bytes(obs::json_escape(all), ref_json_escape(all)));
  // Long mixed strings cross the writer's buffer boundary mid-escape.
  std::mt19937_64 rng(7);
  std::string big;
  for (int i = 0; i < 300000; ++i) big += static_cast<char>(rng() & 0xff);
  obs::JsonWriter w;
  w.str(big).str(big);
  const std::string quoted = "\"" + ref_json_escape(big) + "\"";
  EXPECT_TRUE(same_bytes(w.take(), quoted + quoted));
}

TEST(JsonWriter, TagRendersTheRegistryNameEscaped) {
  auto& tags = sim::TagRegistry::instance();
  const std::uint32_t plain = tags.intern("jw.tag.plain");
  const std::uint32_t odd = tags.intern(std::string("jw\"tag\\\n\x01", 9));
  obs::JsonWriter w;
  w.tag(odd).tag(plain).tag(odd).tag(0);
  EXPECT_EQ(w.take(), "\"" + ref_json_escape(tags.name(odd)) +
                          "\"\"jw.tag.plain\"\"" +
                          ref_json_escape(tags.name(odd)) + "\"\"\"");
}

// ---- sinks ----

TEST(JsonWriter, HashSinkEqualsFnvOfStringSinkUnderRandomSplits) {
  std::mt19937_64 rng(8);
  for (int round = 0; round < 20; ++round) {
    obs::JsonWriter str;
    obs::JsonWriter hash(obs::JsonWriter::kHash);
    obs::JsonWriter both(obs::JsonWriter::kStringAndHash);
    const int pieces = 1 + static_cast<int>(rng() % 400);
    for (int p = 0; p < pieces; ++p) {
      // Piece lengths from 0 to well past one buffer.
      const std::size_t len = rng() % 8 == 0 ? rng() % 200000 : rng() % 64;
      std::string piece(len, '\0');
      for (char& c : piece) c = static_cast<char>(rng() & 0xff);
      const std::uint64_t id = rng();
      for (obs::JsonWriter* w : {&str, &hash, &both}) {
        if (p % 3 == 0) {
          w->raw(piece);
        } else {
          w->str(piece).num(p).hex(id).num(static_cast<double>(id));
        }
      }
    }
    const std::uint64_t streamed = hash.hash();
    const std::uint64_t both_hash = both.hash();
    const std::string text = str.take();
    EXPECT_TRUE(same_bytes(both.take(), text));
    EXPECT_EQ(streamed, ref_fnv1a(text));
    EXPECT_EQ(both_hash, ref_fnv1a(text));
    EXPECT_EQ(both.hash(), both_hash);  // take() leaves the hash intact
    // The running hash does not care where the chunk boundaries fall.
    obs::Fnv1a split;
    for (std::size_t at = 0; at < text.size();) {
      const std::size_t n =
          std::min<std::size_t>(text.size() - at, rng() % 100000);
      split.update(text.data() + at, n);
      at += n;
    }
    EXPECT_EQ(split.value(), ref_fnv1a(text));
    EXPECT_EQ(mkbas::core::fnv1a(text), ref_fnv1a(text));
  }
}

TEST(JsonWriter, StringSinkHasNoGrowthSlack) {
  obs::JsonWriter w;
  for (int i = 0; i < 100000; ++i) w.raw("{\"k\":").num(i).put('}');
  const std::string s = w.take();
  EXPECT_GT(s.size(), 600000u);
  EXPECT_EQ(s.capacity(), s.size());
  obs::JsonWriter empty;
  EXPECT_EQ(empty.take(), "");
  EXPECT_EQ(obs::JsonWriter(obs::JsonWriter::kHash).hash(),
            obs::Fnv1a::kOffset);
}

// ---- trace hash ----

TEST(TraceHash, MatchesThePreWriterSnprintfAlgorithm) {
  auto& tags = sim::TagRegistry::instance();
  // Two tag pairs interned in opposite orders: the hash reads names,
  // so ids (and their order) must not matter.
  const std::uint32_t a1 = tags.intern("th.order.a1");
  const std::uint32_t a2 = tags.intern("th.order.a2");
  const std::uint32_t b2 = tags.intern("th.order.b2");
  const std::uint32_t b1 = tags.intern("th.order.b1");
  ASSERT_LT(a1, a2);
  ASSERT_GT(b1, b2);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {nan,    -nan, inf,    -inf,    -0.0,  1e-300,
                           5e-324, 0.0,  21.375, DBL_MAX, 1e15,  -12.5};
  const std::string details[] = {
      "", "plain", std::string("nul\0inside", 10), "ctl\x01\x02\x1f",
      "tab\tnl\nquote\"back\\", "\x7f\x80\xff high"};
  const sim::TraceKind kinds[] = {
      sim::TraceKind::kProcess, sim::TraceKind::kIpc,
      sim::TraceKind::kSecurity, sim::TraceKind::kDevice,
      sim::TraceKind::kControl,  sim::TraceKind::kNetwork,
      sim::TraceKind::kAttack,   sim::TraceKind::kFault};
  const std::uint32_t tag_ids[] = {a1, b1, a2, b2, 0};

  for (std::size_t cap : {std::size_t{0}, std::size_t{7}}) {
    sim::TraceLog log;
    log.set_capacity(cap);  // 7: a wrapped ring, read oldest first
    for (int i = 0; i < 40; ++i) {
      const sim::Time t =
          i % 5 == 0 ? std::numeric_limits<sim::Time>::max() - i : i * 1000;
      log.emit(t, i % 4 - 1, kinds[i % 8], tag_ids[i % 5], details[i % 6],
               values[i % 12]);
    }
    log.emit(-5, std::numeric_limits<int>::min(), sim::TraceKind::kFault,
             "th.order.a1", "negative time", -1.0);
    EXPECT_EQ(mkbas::core::trace_hash(log), ref_trace_hash(log))
        << "capacity " << cap;
  }
  sim::TraceLog empty;
  EXPECT_EQ(mkbas::core::trace_hash(empty), ref_trace_hash(empty));
}
