#pragma once

// Exact byte comparison for artifacts that run to megabytes. On a
// mismatch, EXPECT_EQ on two strings prints a line diff whose memory
// grows with the product of their sizes; same_bytes reports both sizes,
// the first differing offset and a short window of each side around it.
//
//   EXPECT_TRUE(same_bytes(seq.merged_spans_json, par.merged_spans_json));

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string_view>

inline ::testing::AssertionResult same_bytes(std::string_view a,
                                             std::string_view b) {
  if (a == b) return ::testing::AssertionSuccess();
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t at = 0;
  while (at < common && a[at] == b[at]) ++at;
  constexpr std::size_t kBefore = 40;
  constexpr std::size_t kWindow = 80;
  const std::size_t from = at > kBefore ? at - kBefore : 0;
  return ::testing::AssertionFailure()
         << "sizes " << a.size() << " and " << b.size()
         << ", first difference at byte " << at << " (window from byte "
         << from << ")\n  first:  " << a.substr(from, kWindow)
         << "\n  second: " << b.substr(from, kWindow);
}
