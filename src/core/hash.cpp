#include "core/hash.hpp"

#include "obs/json.hpp"

namespace mkbas::core {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  obs::Fnv1a f(h);
  f.update(s.data(), s.size());
  return f.value();
}

std::string hex64(std::uint64_t v) {
  std::string s(16, '0');
  obs::hex16(s.data(), v);
  return s;
}

std::uint64_t trace_hash(const sim::TraceLog& log) {
  // Each event hashes as "<time>|<pid>|<kind>|<tag>|<detail>|<value>\n",
  // the value in "%.17g", streamed straight into the hash.
  obs::JsonWriter w(obs::JsonWriter::kHash);
  const auto& tags = sim::TagRegistry::instance();
  for (const auto& ev : log.events()) {
    w.num(ev.time).put('|').num(ev.pid).put('|').raw(sim::to_string(ev.kind))
        .put('|').raw(tags.name(ev.tag)).put('|').raw(ev.detail).put('|')
        .general(ev.value, 17).put('\n');
  }
  return w.hash();
}

}  // namespace mkbas::core
