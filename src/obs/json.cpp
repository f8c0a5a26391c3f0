#include "obs/json.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/trace.hpp"

namespace mkbas::obs {

namespace {

/// Bytes that do not pass verbatim: controls, '"' and '\\'.
constexpr std::array<bool, 256> kEscapes = [] {
  std::array<bool, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = true;
  t['"'] = true;
  t['\\'] = true;
  return t;
}();

/// What an escaped byte (kEscapes) turns into.
std::string_view escape_of(unsigned char c) {
  static const std::array<std::string, 0x20> kControl = [] {
    std::array<std::string, 0x20> t;
    for (unsigned i = 0; i < 0x20; ++i) {
      t[i] = std::string("\\u00") + detail::kHexPairs[2 * i] +
             detail::kHexPairs[2 * i + 1];
    }
    t['\n'] = "\\n";
    t['\t'] = "\\t";
    t['\r'] = "\\r";
    return t;
  }();
  if (c < 0x20) return kControl[c];
  return c == '"' ? "\\\"" : "\\\\";
}

/// Feed `s` to `emit` as runs of verbatim bytes and escape sequences.
template <typename Emit>
void escape_runs(std::string_view s, Emit&& emit) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!kEscapes[c]) continue;
    if (i > run) emit(s.substr(run, i - run));
    emit(escape_of(c));
    run = i + 1;
  }
  if (run < s.size()) emit(s.substr(run));
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  escape_runs(s, [&out](std::string_view part) { out.append(part); });
  return out;
}

JsonWriter& JsonWriter::num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return fixed(v, 0);
  }
  return general(v, 17);
}

JsonWriter& JsonWriter::general(double v, int precision) {
  assert(precision >= 0 && precision <= 17);
  constexpr std::size_t kMax = 32;  // "-1.2345678901234567e-308"
  char* p = room(kMax);
  pos_ = static_cast<std::size_t>(
      std::to_chars(p, p + kMax, v, std::chars_format::general, precision)
          .ptr -
      buf_.get());
  return *this;
}

JsonWriter& JsonWriter::fixed(double v, int precision) {
  assert(precision >= 0 && precision <= 64);
  // Sign, up to 309 integer digits (DBL_MAX), point, fraction.
  const std::size_t max = 312 + static_cast<std::size_t>(precision);
  char* p = room(max);
  pos_ = static_cast<std::size_t>(
      std::to_chars(p, p + max, v, std::chars_format::fixed, precision).ptr -
      buf_.get());
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view s) {
  put('"');
  escape_runs(s, [this](std::string_view part) { raw(part); });
  return put('"');
}

JsonWriter& JsonWriter::tag(std::uint32_t id) {
  if (id >= tag_at_.size()) tag_at_.resize(id + 1, {0, 0});
  auto& [offset, length] = tag_at_[id];
  if (length == 0) {
    const std::size_t before = tag_bytes_.size();
    tag_bytes_ += '"';
    tag_bytes_ += json_escape(sim::TagRegistry::instance().name(id));
    tag_bytes_ += '"';
    offset = static_cast<std::uint32_t>(before);
    length = static_cast<std::uint32_t>(tag_bytes_.size() - before);
  }
  return raw(std::string_view(tag_bytes_).substr(offset, length));
}

void JsonWriter::flush() {
  if (pos_ > 0) {
    if (sink_ & kHash) fnv_.update(buf_.get(), pos_);
    if (sink_ & kString) {
      chunks_.push_back({std::move(buf_), pos_});
      cap_ = 0;
    }
    pos_ = 0;
  }
  if (cap_ == 0) {
    buf_.reset(new char[kChunk]);
    cap_ = kChunk;
  }
}

JsonWriter& JsonWriter::raw_long(std::string_view s) {
  for (;;) {
    const std::size_t n = std::min(s.size(), cap_ - pos_);
    if (n > 0) {
      std::memcpy(buf_.get() + pos_, s.data(), n);
      pos_ += n;
      s.remove_prefix(n);
    }
    if (s.empty()) return *this;
    flush();
  }
}

std::string JsonWriter::take() {
  assert(sink_ & kString);
  std::size_t total = pos_;
  for (const Chunk& c : chunks_) total += c.size;
  std::string out;
  out.reserve(total);
  for (Chunk& c : chunks_) {
    out.append(c.data.get(), c.size);
    c.data.reset();  // give each chunk back as soon as it is copied
  }
  chunks_.clear();
  if (pos_ > 0) out.append(buf_.get(), pos_);
  return out;
}

std::uint64_t JsonWriter::hash() const {
  assert(sink_ & kHash);
  Fnv1a h = fnv_;
  if (pos_ > 0) h.update(buf_.get(), pos_);
  return h.value();
}

}  // namespace mkbas::obs
