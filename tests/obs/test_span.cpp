// SpanStore / AuditJournal / critical-path unit lock-down: causal
// nesting, flow spans, the dropped-vs-abandoned accounting split, ring
// eviction, lineage survival, deterministic merges and the sorted-key
// JSON contract.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "json_lite.hpp"
#include "obs/span.hpp"
#include "sim/trace.hpp"

namespace obs = mkbas::obs;
namespace sim = mkbas::sim;

namespace {

std::uint32_t tag(const std::string& s) {
  return sim::TagRegistry::instance().intern(s);
}

std::string name_str(std::uint32_t t) {
  return sim::TagRegistry::instance().name(t);
}

TEST(SpanStore, ScopedSpansNestOnTheCurrentContext) {
  obs::SpanStore s;
  const std::uint64_t outer = s.begin(1, 10, "outer");
  const std::uint64_t inner = s.begin(1, 20, "inner");
  EXPECT_EQ(s.current(1).parent_span, inner);
  s.end(1, 30, inner);
  EXPECT_EQ(s.current(1).parent_span, outer);
  s.end(1, 40, outer);
  EXPECT_FALSE(s.current(1).valid());

  ASSERT_EQ(s.size(), 2u);
  const obs::Span& first = s.spans()[0];   // inner closed first
  const obs::Span& second = s.spans()[1];
  EXPECT_EQ(first.parent_span, outer);
  EXPECT_EQ(second.parent_span, 0u);       // outer roots the trace
  EXPECT_EQ(first.trace_id, second.trace_id);
  EXPECT_NE(first.trace_id, 0u);
}

TEST(SpanStore, FlowSpansCarryAnExplicitParentWithoutTouchingCurrent) {
  obs::SpanStore s;
  const std::uint64_t root = s.begin(1, 0, "root");
  const std::uint64_t hop = s.begin_flow(-1, 5, tag("hop"), s.current(1));
  EXPECT_EQ(s.current(1).parent_span, root);  // flow did not change it
  EXPECT_EQ(s.current(-1).parent_span, 0u);
  s.end_flow(9, hop);
  s.end(1, 10, root);

  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.spans()[0].parent_span, root);
  EXPECT_EQ(s.spans()[0].pid, -1);
}

TEST(SpanStore, DisabledStoreHandsOutZeroAndRecordsNothing) {
  obs::SpanStore s;
  s.set_enabled(false);
  EXPECT_EQ(s.begin(1, 0, "x"), 0u);
  EXPECT_EQ(s.begin_flow(1, 0, tag("x"), {}), 0u);
  s.end(1, 1, 0);
  s.end_flow(1, 0);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.total_begun(), 0u);
  EXPECT_FALSE(s.current(1).valid());
}

TEST(SpanStore, RingEvictionIsDroppedNeverAbandoned) {
  obs::SpanStore s;
  s.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t id = s.begin(1, i, "op");
    s.end(1, i, id);
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.dropped(), 6u);
  EXPECT_EQ(s.total_abandoned(), 0u);
  EXPECT_EQ(s.total_begun(), 10u);
  EXPECT_EQ(s.total_ended(), 10u);
  // Oldest-first eviction: the survivors are the newest four.
  EXPECT_EQ(s.spans()[0].start, 6);
  EXPECT_EQ(s.spans()[3].start, 9);
}

TEST(SpanStore, SetCapacityCompactsOldestFirst) {
  obs::SpanStore s;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t id = s.begin(1, i, "op");
    s.end(1, i, id);
  }
  s.set_capacity(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dropped(), 7u);
  EXPECT_EQ(s.spans()[0].start, 7);
  EXPECT_EQ(s.spans()[2].start, 9);
}

TEST(SpanStore, ProcessDeathAbandonsOpenSpansDistinctFromDropped) {
  obs::SpanStore s;
  s.begin(3, 0, "a");
  s.begin(3, 1, "b");
  s.begin(4, 2, "c");  // another process, stays open
  s.process_gone(3, 10);
  EXPECT_EQ(s.total_abandoned(), 2u);
  EXPECT_EQ(s.dropped(), 0u);
  EXPECT_EQ(s.open_count(), 1u);
  EXPECT_FALSE(s.current(3).valid());
  ASSERT_EQ(s.size(), 2u);
  for (const obs::Span& sp : s.spans()) {
    EXPECT_TRUE(sp.abandoned);
    EXPECT_EQ(sp.end, 10);
  }
}

TEST(SpanStore, ConservationInvariantsHoldUnderMixedTraffic) {
  obs::SpanStore s;
  s.set_capacity(5);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t id = s.begin(1, i, "op");
    if (i % 3 != 0) s.end(1, i, id);
  }
  s.process_gone(1, 100);  // abandons every span left open
  EXPECT_EQ(s.total_begun(),
            s.open_count() + s.total_ended() + s.total_abandoned());
  EXPECT_EQ(s.total_ended() + s.total_abandoned(), s.size() + s.dropped());
  EXPECT_GT(s.total_abandoned(), 0u);
  EXPECT_GT(s.dropped(), 0u);
}

TEST(SpanStore, LineageSurvivesRingEviction) {
  obs::SpanStore s;
  s.set_capacity(1);
  const std::uint64_t root = s.begin(1, 0, "root");
  const std::uint64_t mid = s.begin(1, 1, "mid");
  const std::uint64_t leaf = s.begin(1, 2, "leaf");
  s.end(1, 3, leaf);
  s.end(1, 4, mid);
  s.end(1, 5, root);  // ring kept only this one
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.dropped(), 2u);

  const std::vector<std::uint64_t> chain = s.chain(leaf);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], leaf);
  EXPECT_EQ(chain[2], root);
  EXPECT_EQ(s.root_of(leaf), root);
  EXPECT_EQ(name_str(s.name_of(mid)), "mid");
  EXPECT_EQ(s.start_of(mid), 1);
}

TEST(SpanStore, AliasedIdsFromAnotherHistoryReadAsNeverSeen) {
  // Same machine byte and sequence, different virtual time: the id's
  // 16-bit tag differs, so lookups treat the foreign id as unseen (the
  // same protocol limit as a remote parent that was never merged in).
  obs::SpanStore a;
  obs::SpanStore b;
  const std::uint64_t ida = a.begin(1, 1000, "a");
  const std::uint64_t idb = b.begin(1, 999999, "b");
  ASSERT_NE(ida, idb);
  EXPECT_EQ(a.name_of(idb), 0u);
  EXPECT_EQ(a.start_of(idb), -1);
  EXPECT_TRUE(a.chain(idb).empty());
  EXPECT_FALSE(a.context_of(idb).valid());
}

TEST(SpanStore, IdsAndJsonAreAPureFunctionOfTheOpSequence) {
  auto script = [](obs::SpanStore& s) {
    const std::uint64_t r = s.begin(1, 10, "root");
    const std::uint64_t f = s.begin_flow(2, 20, tag("hop"), s.current(1));
    s.end_flow(25, f);
    s.end(1, 30, r);
  };
  obs::SpanStore a;
  obs::SpanStore b;
  script(a);
  script(b);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_TRUE(jsonlite::valid(a.to_json()));
}

TEST(SpanStore, EmptyStoreJsonSkeletonKeysAreSorted) {
  obs::SpanStore s;
  EXPECT_EQ(s.to_json(),
            "{\"dropped\":0,\"schema_version\":1,\"spans\":[],"
            "\"total_abandoned\":0,\"total_begun\":0,\"total_ended\":0}");
}

TEST(SpanStore, MergeFoldsLineageAndAccountingInOrder) {
  obs::SpanStore a;
  a.set_machine(1);
  obs::SpanStore b;
  b.set_machine(2);
  const std::uint64_t ra = a.begin(1, 0, "a.root");
  a.end(1, 5, ra);
  const std::uint64_t rb = b.begin(1, 0, "b.root");
  const std::uint64_t lb = b.begin(1, 2, "b.leaf");
  b.end(1, 3, lb);
  b.end(1, 4, rb);

  obs::SpanStore m1;
  m1.merge_from(a);
  m1.merge_from(b);
  obs::SpanStore m2;
  m2.merge_from(a);
  m2.merge_from(b);
  EXPECT_EQ(m1.to_json(), m2.to_json());
  EXPECT_EQ(m1.size(), 3u);
  EXPECT_EQ(m1.total_begun(), 3u);
  // Cross-machine lineage came along: the merged store can walk b's
  // chain even though b's spans were minted elsewhere.
  EXPECT_EQ(m1.root_of(lb), rb);
  EXPECT_EQ(name_str(m1.name_of(ra)), "a.root");
}

/// A seeded random history on one store: scoped and flow spans, some
/// closed with a note, some abandoned by a process's death, some left
/// open; a ring capacity on some stores evicts (dropped() > 0), and some
/// stores stay empty.
obs::SpanStore& random_store(std::mt19937_64& rng, obs::SpanStore& s) {
  s.set_machine(static_cast<int>(rng() % 4));
  if (rng() % 3 == 0) s.set_capacity(1 + rng() % 8);
  if (rng() % 5 == 0) return s;
  const std::uint32_t names[] = {tag("op.a"), tag("op.b"), tag("hop.c")};
  const std::uint32_t notes[] = {0, 0, tag("restart"), tag("note \"q\"")};
  std::vector<std::uint64_t> flows;
  std::vector<std::pair<int, std::uint64_t>> scoped;
  sim::Time now = static_cast<sim::Time>(rng() % 100);
  const int ops = static_cast<int>(rng() % 60);
  for (int i = 0; i < ops; ++i) {
    now += static_cast<sim::Time>(rng() % 7);
    const int pid = static_cast<int>(rng() % 3);
    switch (rng() % 6) {
      case 0:
      case 1:
        scoped.emplace_back(pid, s.begin(pid, now, names[rng() % 3]));
        break;
      case 2:
        flows.push_back(
            s.begin_flow(pid, now, names[rng() % 3], s.current(pid)));
        break;
      case 3:
        if (!scoped.empty()) {
          const auto [owner, id] = scoped.back();
          scoped.pop_back();
          s.end(owner, now, id, notes[rng() % 4]);
        }
        break;
      case 4:
        if (!flows.empty()) {
          s.end_flow(now, flows.back(), notes[rng() % 4]);
          flows.pop_back();
        }
        break;
      default:
        if (rng() % 4 == 0) s.process_gone(pid, now);
        break;
    }
  }
  return s;
}

std::string spans_json_of(const std::vector<const obs::SpanStore*>& stores) {
  obs::JsonWriter w;
  obs::write_spans_json(w, stores);
  return w.take();
}

TEST(SpanStore, ManyStoreJsonIsTheJsonOfTheirMerge) {
  std::mt19937_64 rng(2017);
  bool saw_dropped = false;
  bool saw_abandoned = false;
  bool saw_note = false;
  bool saw_empty = false;
  for (int c = 0; c < 200; ++c) {
    std::vector<obs::SpanStore> stores(rng() % 7);
    std::vector<const obs::SpanStore*> ptrs;
    obs::SpanStore merged;
    for (obs::SpanStore& s : stores) {
      merged.merge_from(random_store(rng, s));
      ptrs.push_back(&s);
      saw_dropped |= s.dropped() > 0;
      saw_abandoned |= s.total_abandoned() > 0;
      saw_empty |= s.total_begun() == 0;
      for (const obs::Span& sp : s.spans()) saw_note |= sp.note != 0;
      EXPECT_EQ(spans_json_of({&s}), s.to_json()) << "case " << c;
    }
    const std::string json = spans_json_of(ptrs);
    EXPECT_EQ(json, merged.to_json()) << "case " << c;
    EXPECT_TRUE(jsonlite::valid(json)) << "case " << c;
    obs::JsonWriter hash(obs::JsonWriter::kHash);
    obs::write_spans_json(hash, ptrs);
    obs::Fnv1a fnv;
    fnv.update(json.data(), json.size());
    EXPECT_EQ(hash.hash(), fnv.value()) << "case " << c;
  }
  EXPECT_TRUE(saw_dropped);
  EXPECT_TRUE(saw_abandoned);
  EXPECT_TRUE(saw_note);
  EXPECT_TRUE(saw_empty);
}

TEST(AuditJournal, SnapshotsTheCausalChainAtRecordTime) {
  obs::SpanStore s;
  obs::AuditJournal j;
  s.begin(7, 0, "web.compromised");
  s.begin(7, 1, "minix.ipc");
  s.begin(7, 2, "pm.audit");
  j.record(3, 0, 7, "acm.kill_deny", "web may not kill ctl", s,
           s.current(7));
  ASSERT_EQ(j.size(), 1u);
  const obs::AuditEntry& e = j.entries()[0];
  ASSERT_EQ(e.chain_names.size(), 3u);
  EXPECT_EQ(name_str(e.chain_names[0]), "pm.audit");
  EXPECT_EQ(name_str(e.chain_names[1]), "minix.ipc");
  EXPECT_EQ(name_str(e.chain_names[2]), "web.compromised");

  EXPECT_EQ(j.with_kind("acm.kill_deny").size(), 1u);
  EXPECT_TRUE(j.with_kind("no.such.kind").empty());
  EXPECT_TRUE(jsonlite::valid(j.to_json()));
}

TEST(CriticalPath, TelescopingHopsSumToEndToEndExactly) {
  obs::SpanStore s;
  const std::uint64_t root = s.begin(1, 0, "sensor.sample");
  const std::uint64_t hop =
      s.begin_flow(-1, 3, tag("minix.ipc"), s.context_of(root));
  const std::uint64_t leaf =
      s.begin_flow(2, 5, tag("act.apply"), s.context_of(hop));
  s.end_flow(9, leaf);
  s.end_flow(9, hop);
  s.end(1, 10, root);

  const std::string json =
      obs::critical_path_json(s, "sensor.sample", "act.apply");
  EXPECT_TRUE(jsonlite::valid(json));
  // Hop decomposition: root 0->3, hop 3->5, leaf 5->9; e2e 9.
  EXPECT_NE(json.find("\"e2e_mean_us\":9.000000"), std::string::npos);
  EXPECT_NE(json.find("\"mean_us\":3.000000,\"name\":\"sensor.sample\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mean_us\":2.000000,\"name\":\"minix.ipc\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mean_us\":4.000000,\"name\":\"act.apply\""),
            std::string::npos);
  EXPECT_NE(
      json.find("\"signature\":\"sensor.sample>minix.ipc>act.apply\""),
      std::string::npos);
  EXPECT_NE(json.find("\"traces\":1"), std::string::npos);
}

TEST(CriticalPath, SkipsAbandonedLeavesAndForeignRoots) {
  obs::SpanStore s;
  // An act.apply abandoned by process death must not enter the stats.
  const std::uint64_t r1 = s.begin(1, 0, "sensor.sample");
  s.begin_flow(2, 2, tag("act.apply"), s.context_of(r1));
  s.process_gone(2, 4);
  s.end(1, 5, r1);
  // An act.apply rooted elsewhere (an attack, not a sensor) is skipped.
  const std::uint64_t r2 = s.begin(3, 0, "web.compromised");
  const std::uint64_t l2 = s.begin_flow(4, 2, tag("act.apply"),
                                        s.context_of(r2));
  s.end_flow(3, l2);
  s.end(3, 4, r2);

  const std::string json =
      obs::critical_path_json(s, "sensor.sample", "act.apply");
  EXPECT_NE(json.find("\"paths\":[]"), std::string::npos);
}

}  // namespace
