#pragma once

#include <cstdint>
#include <string>

#include "sim/trace.hpp"

namespace mkbas::core {

/// FNV-1a helpers shared by the campaign engine, the fabric driver,
/// benches and tests.
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 14695981039346656037ULL);

std::string hex64(std::uint64_t v);

/// FNV-1a over every trace event rendered as the text line
/// "<time>|<pid>|<kind>|<tag>|<detail>|<value %.17g>\n". Renders tag
/// *names* (each looked up once per log), not interned ids: interning
/// order depends on process-wide first-sight order, which parallel
/// execution must not observe.
std::uint64_t trace_hash(const sim::TraceLog& log);

}  // namespace mkbas::core
