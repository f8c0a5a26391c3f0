#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sim = mkbas::sim;

TEST(Trace, EmitAndQueryByTag) {
  sim::TraceLog log;
  log.emit(10, 1, sim::TraceKind::kIpc, "send", "a->b");
  log.emit(20, 2, sim::TraceKind::kIpc, "recv", "b<-a");
  log.emit(30, 1, sim::TraceKind::kIpc, "send", "a->c");
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count_tag("send"), 2u);
  auto sends = log.with_tag("send");
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].time, 10);
  EXPECT_EQ(sends[1].time, 30);
}

TEST(Trace, FindFirstReturnsEarliestMatch) {
  sim::TraceLog log;
  log.emit(10, 1, sim::TraceKind::kSecurity, "acm.deny", "x");
  log.emit(20, 1, sim::TraceKind::kSecurity, "acm.deny", "y");
  const auto* ev = log.find_first(
      [](const sim::TraceEvent& e) { return e.what() == "acm.deny"; });
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->detail, "x");
}

TEST(Trace, FindFirstReturnsNullWhenAbsent) {
  sim::TraceLog log;
  EXPECT_EQ(log.find_first([](const sim::TraceEvent&) { return true; }),
            nullptr);
}

TEST(Trace, DumpRendersOneLinePerEvent) {
  sim::TraceLog log;
  log.emit(5, 3, sim::TraceKind::kDevice, "sensor.sample", "21.5C");
  log.emit(6, -1, sim::TraceKind::kNetwork, "http.get");
  std::ostringstream os;
  log.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("pid=3"), std::string::npos);
  EXPECT_NE(text.find("sensor.sample"), std::string::npos);
  EXPECT_NE(text.find("21.5C"), std::string::npos);
  EXPECT_NE(text.find("http.get"), std::string::npos);
}

TEST(Trace, DumpFiltersByKind) {
  sim::TraceLog log;
  log.emit(1, 1, sim::TraceKind::kIpc, "send");
  log.emit(2, 1, sim::TraceKind::kAttack, "spoof");
  std::ostringstream os;
  log.dump(os, sim::TraceKind::kAttack);
  EXPECT_EQ(os.str().find("send"), std::string::npos);
  EXPECT_NE(os.str().find("spoof"), std::string::npos);
}

TEST(Trace, KindNamesAreStable) {
  EXPECT_STREQ(sim::to_string(sim::TraceKind::kSecurity), "sec");
  EXPECT_STREQ(sim::to_string(sim::TraceKind::kAttack), "atk");
}

TEST(Trace, ClearEmptiesTheLog) {
  sim::TraceLog log;
  log.emit(1, 1, sim::TraceKind::kIpc, "send");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(Trace, TagInterningIsStableAndIdempotent) {
  auto& reg = sim::TagRegistry::instance();
  const auto a = reg.intern("trace_test.tag_a");
  const auto b = reg.intern("trace_test.tag_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("trace_test.tag_a"), a);
  EXPECT_EQ(reg.name(a), "trace_test.tag_a");
  std::uint32_t id = 0;
  EXPECT_TRUE(reg.try_lookup("trace_test.tag_b", &id));
  EXPECT_EQ(id, b);
}

TEST(Trace, TagNamesStayPutAcrossSegmentBoundaries) {
  // 300 new names cross the registry's segment edges at ids 64, 128 and
  // 256 wherever the process's earlier tags left off.
  auto& reg = sim::TagRegistry::instance();
  std::vector<std::uint32_t> ids;
  std::vector<const std::string*> where;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(reg.intern("trace_test.segment_" + std::to_string(i)));
    where.push_back(&reg.name(ids.back()));
  }
  for (int i = 0; i < 300; ++i) {
    const std::string want = "trace_test.segment_" + std::to_string(i);
    EXPECT_EQ(reg.name(ids[i]), want);
    EXPECT_EQ(&reg.name(ids[i]), where[i]) << "name " << i << " moved";
    EXPECT_EQ(reg.intern(want), ids[i]);
    if (i > 0) {
      EXPECT_EQ(ids[i], ids[i - 1] + 1);
    }
  }
  EXPECT_EQ(reg.size(), ids.back() + 1u);
}

TEST(Trace, ConcurrentInternersAgreeOnEveryId) {
  // Four threads intern one vocabulary in different orders and read the
  // names back while the others are still adding: one id per name, and
  // name(id) is that name. Under TSan this also checks the lock-free
  // reads.
  constexpr int kThreads = 4;
  constexpr int kNames = 400;
  auto& reg = sim::TagRegistry::instance();
  std::vector<std::vector<std::uint32_t>> seen(
      kThreads, std::vector<std::uint32_t>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      for (int k = 0; k < kNames; ++k) {
        const int i = t % 2 == 0 ? k : kNames - 1 - k;
        const std::string s = "trace_test.concurrent_" + std::to_string(i);
        const std::uint32_t id = reg.intern(s);
        seen[t][i] = id;
        if (reg.name(id) != s) ADD_FAILURE() << s << " read back wrong";
        std::uint32_t again = 0;
        if (!reg.try_lookup(s, &again) || again != id) {
          ADD_FAILURE() << s << " lookup disagrees";
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint32_t> distinct;
  for (int i = 0; i < kNames; ++i) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][i], seen[0][i]);
    distinct.insert(seen[0][i]);
  }
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kNames));
}

TEST(Trace, CountTagOfNeverEmittedTagIsZeroWithoutInterning) {
  sim::TraceLog log;
  log.emit(1, 1, sim::TraceKind::kIpc, "send");
  const auto before = sim::TagRegistry::instance().size();
  EXPECT_EQ(log.count_tag("trace_test.never_emitted_anywhere"), 0u);
  EXPECT_TRUE(log.with_tag("trace_test.never_emitted_anywhere").empty());
  EXPECT_EQ(sim::TagRegistry::instance().size(), before);
}

TEST(Trace, InternedEmitMatchesStringQueries) {
  sim::TraceLog log;
  const auto tag = sim::TagRegistry::instance().intern("acm.deny");
  log.emit(5, 2, sim::TraceKind::kSecurity, tag, "by id");
  EXPECT_EQ(log.count_tag("acm.deny"), 1u);
  EXPECT_EQ(log.count_tag(tag), 1u);
  EXPECT_EQ(log.events().back().what(), "acm.deny");
}

TEST(Trace, RingBufferEvictsOldestFirst) {
  sim::TraceLog log;
  log.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    log.emit(i, 1, sim::TraceKind::kIpc, "send", std::to_string(i));
  }
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events().front().detail, "2");  // 0 and 1 evicted
  EXPECT_EQ(log.events().back().detail, "4");
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.total_emitted(), 5u);
}

TEST(Trace, SetCapacityTrimsAnOverFullLog) {
  sim::TraceLog log;
  for (int i = 0; i < 10; ++i) {
    log.emit(i, 1, sim::TraceKind::kIpc, "send", std::to_string(i));
  }
  log.set_capacity(4);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.events().front().detail, "6");
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.total_emitted(), 10u);
}

TEST(Trace, RingBufferKeepsExactTagCountsForSurvivors) {
  sim::TraceLog log;
  log.set_capacity(2);
  log.emit(1, 1, sim::TraceKind::kSecurity, "acm.deny");
  log.emit(2, 1, sim::TraceKind::kSecurity, "acm.allow");
  log.emit(3, 1, sim::TraceKind::kSecurity, "acm.deny");
  EXPECT_EQ(log.count_tag("acm.deny"), 1u);  // the t=1 denial was evicted
  EXPECT_EQ(log.count_tag("acm.allow"), 1u);
}

TEST(Trace, DumpFiltersByTag) {
  sim::TraceLog log;
  log.emit(1, 1, sim::TraceKind::kIpc, "send", "keep");
  log.emit(2, 1, sim::TraceKind::kIpc, "recv", "drop");
  std::ostringstream os;
  log.dump(os, std::string("send"));
  EXPECT_NE(os.str().find("keep"), std::string::npos);
  EXPECT_EQ(os.str().find("drop"), std::string::npos);
}

TEST(Trace, ZeroCapacityMeansUnbounded) {
  sim::TraceLog log;
  log.set_capacity(2);
  log.set_capacity(0);
  for (int i = 0; i < 100; ++i) {
    log.emit(i, 1, sim::TraceKind::kIpc, "send");
  }
  EXPECT_EQ(log.size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);
}

// Regression: clear() used to discard events without counting them as
// dropped, so an exporter that snapshots-and-clears silently broke the
// accounting invariant below.
TEST(Trace, AccountingInvariantSurvivesClearAndEviction) {
  sim::TraceLog log;
  log.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    log.emit(i, 1, sim::TraceKind::kIpc, "send");
  }
  // 10 emitted, ring kept 4, evicted 6.
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.total_emitted(), log.size() + log.dropped());

  log.clear();  // the snapshot-and-clear pattern
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 10u);  // the 4 cleared events now count too
  EXPECT_EQ(log.total_emitted(), log.size() + log.dropped());

  for (int i = 0; i < 3; ++i) {
    log.emit(i, 1, sim::TraceKind::kIpc, "send");
  }
  EXPECT_EQ(log.total_emitted(), 13u);
  EXPECT_EQ(log.total_emitted(), log.size() + log.dropped());
}

TEST(Trace, FaultKindHasAStableName) {
  EXPECT_STREQ(sim::to_string(sim::TraceKind::kFault), "fault");
}

TEST(Trace, MergeFromPreservesEventsAndAccounting) {
  sim::TraceLog a, b;
  a.emit(10, 1, sim::TraceKind::kIpc, "send", "a->b");
  b.emit(20, 2, sim::TraceKind::kIpc, "recv", "b<-a");
  b.emit(30, 2, sim::TraceKind::kIpc, "send", "b->c");
  a.merge_from(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.count_tag("send"), 2u);
  EXPECT_EQ(a.total_emitted(), 3u);
  EXPECT_EQ(a.dropped(), 0u);
  EXPECT_EQ(b.size(), 2u);  // source untouched
}

TEST(Trace, MergeFromCarriesDroppedCountsThroughTheRing) {
  sim::TraceLog src;
  src.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    src.emit(i, 1, sim::TraceKind::kIpc, "e", "");
  }
  ASSERT_EQ(src.size(), 2u);
  ASSERT_EQ(src.dropped(), 3u);

  sim::TraceLog dst;
  dst.set_capacity(3);
  dst.emit(100, 1, sim::TraceKind::kIpc, "old", "");
  dst.emit(101, 1, sim::TraceKind::kIpc, "old", "");
  dst.merge_from(src);
  // dst kept 3 of the 4 events it saw (ring evicted one) and inherits
  // src's 3 pre-merge drops; the invariant total = size + dropped holds.
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.dropped(), 1u + 3u);
  EXPECT_EQ(dst.total_emitted(), dst.size() + dst.dropped());
}
