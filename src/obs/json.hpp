#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mkbas::obs {

/// Version stamped into every JSON artifact this repo emits (metrics,
/// spans, audit journal, critical path, series, health, flight recorder,
/// campaign profile) as a "schema_version" field. The experiment daemon's
/// content-addressed cache validates artifacts against it before reuse;
/// bump it on any backwards-incompatible field change.
inline constexpr int kSchemaVersion = 1;

/// Running 64-bit FNV-1a. The same bytes give the same value however
/// they are split across update() calls.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ULL;

  explicit Fnv1a(std::uint64_t h = kOffset) : h_(h) {}
  void update(const char* p, std::size_t n) {
    std::uint64_t h = h_;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ULL;
    }
    h_ = h;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

namespace detail {
/// "000102...ff": byte i's two lowercase hex digits at [2i, 2i + 1].
inline constexpr std::array<char, 512> kHexPairs = [] {
  std::array<char, 512> t{};
  const char* digits = "0123456789abcdef";
  for (int i = 0; i < 256; ++i) {
    t[2 * i] = digits[i >> 4];
    t[2 * i + 1] = digits[i & 15];
  }
  return t;
}();
}  // namespace detail

/// Write `v` as 16 lowercase hex digits ("%016llx") at `out`.
inline void hex16(char* out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8) {
    std::memcpy(out + 2 * i, &detail::kHexPairs[2 * (v & 0xff)], 2);
  }
}

/// JSON string escaping ('"', '\\', \n \t \r, other bytes below 0x20 as
/// \u00xx; everything else verbatim), for callers outside a writer.
std::string json_escape(std::string_view s);

/// The one JSON writer every exporter renders through. Numbers go
/// through std::to_chars in exactly the printf forms the artifacts have
/// always used, ids are 16 hex digits, strings are escaped in place, and
/// interned tag names are resolved and escaped once per writer rather
/// than once per record.
///
/// Bytes collect in a fixed buffer that is handed to the sink whenever
/// it fills: the string sink keeps the full buffers and joins them into
/// one exactly-sized string on take(); the hash sink folds them into a
/// running FNV-1a and reuses the buffer, so hashing an export never
/// materialises it. Both sinks at once render and hash in one pass.
class JsonWriter {
 public:
  enum Sink : unsigned { kString = 1, kHash = 2, kStringAndHash = 3 };

  explicit JsonWriter(Sink sink = kString) : sink_(sink) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Bytes verbatim.
  JsonWriter& raw(std::string_view s) {
    if (s.size() >= cap_ - pos_) return raw_long(s);
    std::memcpy(buf_.get() + pos_, s.data(), s.size());
    pos_ += s.size();
    return *this;
  }
  JsonWriter& put(char c) {
    *room(1) = c;
    ++pos_;
    return *this;
  }
  /// Decimal integer ("%d", "%llu", ...).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& num(T v) {
    char* p = room(24);
    pos_ = static_cast<std::size_t>(std::to_chars(p, p + 24, v).ptr -
                                    buf_.get());
    return *this;
  }
  /// The exporters' double form: integral |v| < 1e15 as "%.0f", every
  /// other value (fractions, huge, inf, nan) as "%.17g".
  JsonWriter& num(double v);
  /// printf "%.*g" (6 is what an ostream prints for a bare double).
  JsonWriter& general(double v, int precision = 6);
  /// printf "%.*f".
  JsonWriter& fixed(double v, int precision);
  /// 16 lowercase hex digits ("%016llx"), unquoted.
  JsonWriter& hex(std::uint64_t v) {
    hex16(room(16), v);
    pos_ += 16;
    return *this;
  }
  JsonWriter& boolean(bool b) { return raw(b ? "true" : "false"); }
  /// `s` quoted and escaped.
  JsonWriter& str(std::string_view s);
  /// An interned sim::TagRegistry name, quoted and escaped.
  JsonWriter& tag(std::uint32_t id);

  /// The string sink's bytes in one string sized to fit (no growth
  /// slack). Call once.
  std::string take();
  /// FNV-1a of every byte written so far (a writer with the hash sink).
  std::uint64_t hash() const;

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;

  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  /// Pointer to at least `n` (<= kChunk) writable bytes at pos_.
  char* room(std::size_t n) {
    if (cap_ - pos_ < n) flush();
    return buf_.get() + pos_;
  }
  /// Hand the buffered bytes to the sink and start an empty buffer.
  void flush();
  JsonWriter& raw_long(std::string_view s);

  Sink sink_;
  std::unique_ptr<char[]> buf_;
  std::size_t pos_ = 0;
  std::size_t cap_ = 0;  // 0 until the first write allocates buf_
  std::vector<Chunk> chunks_;
  Fnv1a fnv_;
  /// Quoted, escaped tag names, resolved on first use: tag id ->
  /// {offset, length} into tag_bytes_ (length 0 = not yet resolved).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tag_at_;
  std::string tag_bytes_;
};

}  // namespace mkbas::obs
