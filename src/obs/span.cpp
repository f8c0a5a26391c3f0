#include "obs/span.hpp"

#include <algorithm>
#include <map>

#include "obs/json.hpp"

namespace mkbas::obs {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ---- SpanLog ----

void SpanLog::drop_front(std::size_t n) {
  if (n >= size_) {
    buf_.clear();
    head_ = 0;
    size_ = 0;
    return;
  }
  std::vector<Span> keep;
  keep.reserve(size_ - n);
  for (std::size_t i = n; i < size_; ++i) keep.push_back((*this)[i]);
  buf_ = std::move(keep);
  head_ = 0;
  size_ -= n;
}

// ---- SpanStore ----

void SpanStore::set_capacity(std::size_t cap) {
  capacity_ = cap;
  if (capacity_ > 0 && done_.size() > capacity_) {
    const std::size_t n = done_.size() - capacity_;
    done_.drop_front(n);
    dropped_ += n;
  }
}

std::uint64_t SpanStore::next_id(sim::Time now) {
  // [tag16 | machine8 | seq40]. Still a pure function of (machine,
  // virtual time, sequence) — the deterministic simulation history,
  // never wall clock or memory layout. The embedded sequence makes the
  // lineage index a dense array; the splitmix64 tag folds the virtual
  // start time in, so an id minted by a different history that aliases
  // this (machine, seq) is recognised and treated as never-seen.
  ++seq_;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(machine_))
       << 32) ^
      seq_;
  std::uint64_t tag =
      splitmix64(key ^ splitmix64(static_cast<std::uint64_t>(now))) >> 48;
  if (tag == 0) tag = 1;  // tag 0 marks an empty lineage slot
  return (tag << 48) |
         (static_cast<std::uint64_t>(machine_ & 0xff) << kSeqBits) |
         (seq_ & kSeqMask);
}

SpanContext* SpanStore::current_slot(int pid) {
  // Index pid + 1: slot 0 is the kernel's pid -1. Unknown pids below
  // that never carry context.
  if (pid < -1) return nullptr;
  const std::size_t idx = static_cast<std::size_t>(pid + 1);
  if (idx >= current_.size()) current_.resize(idx + 1);
  return &current_[idx];
}

SpanStore::Opened SpanStore::open_span(int pid, sim::Time now,
                                       std::uint32_t name,
                                       SpanContext parent) {
  Span s;
  s.span_id = next_id(now);
  if (parent.valid()) {
    s.trace_id = parent.trace_id;
    s.parent_span = parent.parent_span;
  } else {
    // Root of a fresh trace; derive the trace id from the span id so
    // one counter drives both.
    s.trace_id = splitmix64(s.span_id ^ 0x7261636564ULL);
    if (s.trace_id == 0) s.trace_id = 1;
  }
  s.name = name;
  s.machine = machine_;
  s.pid = pid;
  s.start = now;
  ++total_begun_;
  lineage_.insert(s.span_id,
                  Lineage{s.parent_span, s.trace_id, s.name, s.start});
  const Opened o{s.span_id, s.trace_id};
  open_.push_back(s);
  return o;
}

std::uint64_t SpanStore::begin(int pid, sim::Time now,
                               const std::string& name) {
  if (!enabled_) return 0;
  return begin(pid, now, sim::TagRegistry::instance().intern(name));
}

std::uint64_t SpanStore::begin(int pid, sim::Time now, std::uint32_t name) {
  if (!enabled_) return 0;
  const Opened o = open_span(pid, now, name, current(pid));
  if (SpanContext* slot = current_slot(pid)) *slot = {o.trace, o.id};
  return o.id;
}

std::uint64_t SpanStore::begin_flow(int pid, sim::Time now,
                                    std::uint32_t name, SpanContext parent) {
  if (!enabled_) return 0;
  return open_span(pid, now, name, parent).id;
}

int SpanStore::find_open(std::uint64_t span_id) const {
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].span_id == span_id) return static_cast<int>(i);
  }
  return -1;
}

void SpanStore::close_at(std::size_t idx, sim::Time now, std::uint32_t note,
                         bool abandoned) {
  // Patch the record in place and copy it into the done ring once;
  // only then swap-remove from the open list (one 64-byte copy saved
  // per close on the IPC hot path).
  Span& s = open_[idx];
  s.end = now;
  s.note = note;
  s.abandoned = abandoned;
  if (abandoned) {
    ++total_abandoned_;
  } else {
    ++total_ended_;
  }
  push_done(s);
  open_[idx] = open_.back();
  open_.pop_back();
}

void SpanStore::close_span(sim::Time now, std::uint64_t span_id,
                           std::uint32_t note, bool abandoned) {
  const int idx = find_open(span_id);
  if (idx < 0) return;
  close_at(static_cast<std::size_t>(idx), now, note, abandoned);
}

void SpanStore::end(int pid, sim::Time now, std::uint64_t span_id,
                    std::uint32_t note) {
  if (span_id == 0) return;
  const int idx = find_open(span_id);
  if (idx < 0) return;
  // Restore the owner's context to this span's parent.
  const Span& s = open_[static_cast<std::size_t>(idx)];
  if (SpanContext* slot = current_slot(pid)) {
    *slot = s.parent_span != 0 ? SpanContext{s.trace_id, s.parent_span}
                               : SpanContext{};
  }
  close_at(static_cast<std::size_t>(idx), now, note, /*abandoned=*/false);
}

void SpanStore::end_flow(sim::Time now, std::uint64_t span_id,
                         std::uint32_t note) {
  if (span_id == 0) return;
  close_span(now, span_id, note, /*abandoned=*/false);
}

SpanContext SpanStore::current(int pid) const {
  if (!enabled_ || pid < -1) return {};
  const std::size_t idx = static_cast<std::size_t>(pid + 1);
  return idx < current_.size() ? current_[idx] : SpanContext{};
}

void SpanStore::set_current(int pid, SpanContext ctx) {
  if (!enabled_) return;
  if (SpanContext* slot = current_slot(pid)) {
    *slot = ctx.valid() ? ctx : SpanContext{};
  }
}

SpanContext SpanStore::context_of(std::uint64_t span_id) const {
  const LineageIndex::Entry* lin = lineage_.find(span_id);
  return lin == nullptr ? SpanContext{} : SpanContext{lin->trace, span_id};
}

void SpanStore::process_gone(int pid, sim::Time now) {
  if (SpanContext* slot = current_slot(pid)) *slot = {};
  // Collect first: close_span swap-removes from open_. The open list's
  // order depends on close history, so sort oldest-first by (start,
  // span id) to keep the done_ order deterministic.
  std::vector<std::pair<sim::Time, std::uint64_t>> mine;
  for (const Span& s : open_) {
    if (s.pid == pid) mine.emplace_back(s.start, s.span_id);
  }
  std::sort(mine.begin(), mine.end());
  for (const auto& [start, id] : mine) {
    close_span(now, id, 0, /*abandoned=*/true);
  }
}

std::vector<std::uint64_t> SpanStore::chain(std::uint64_t span_id) const {
  std::vector<std::uint64_t> out;
  std::uint64_t cur = span_id;
  while (cur != 0 && out.size() < 256) {  // cycle guard
    const LineageIndex::Entry* lin = lineage_.find(cur);
    if (lin == nullptr) break;  // remote parent: protocol limit
    out.push_back(cur);
    cur = lin->parent;
  }
  return out;
}

std::uint32_t SpanStore::name_of(std::uint64_t span_id) const {
  const LineageIndex::Entry* lin = lineage_.find(span_id);
  return lin == nullptr ? 0 : lin->name;
}

sim::Time SpanStore::start_of(std::uint64_t span_id) const {
  const LineageIndex::Entry* lin = lineage_.find(span_id);
  return lin == nullptr ? -1 : lin->start;
}

std::uint64_t SpanStore::root_of(std::uint64_t span_id) const {
  const auto c = chain(span_id);
  return c.empty() ? 0 : c.back();
}

void SpanStore::push_done(const Span& s) {
  if (capacity_ > 0 && done_.size() >= capacity_) {
    // Ring steady state: overwrite the oldest slot in place — no
    // allocation, no element shuffle (this is the IPC hot path).
    done_.push_wrap(s);
    ++dropped_;
    return;
  }
  done_.push_back(s);
}

void SpanStore::merge_from(const SpanStore& other) {
  if (&other == this) return;
  const auto& lanes = other.lineage_.lanes();
  for (std::size_t mach = 0; mach < lanes.size(); ++mach) {
    for (std::size_t i = 0; i < lanes[mach].size(); ++i) {
      const LineageIndex::Entry& e = lanes[mach][i];
      if (e.tag == 0) continue;
      const std::uint64_t id =
          (static_cast<std::uint64_t>(e.tag) << 48) |
          (static_cast<std::uint64_t>(mach) << kSeqBits) | (i + 1);
      lineage_.insert(id, Lineage{e.parent, e.trace, e.name, e.start});
    }
  }
  for (const Span& s : other.done_) {
    push_done(s);
  }
  total_begun_ += other.total_begun_;
  total_ended_ += other.total_ended_;
  total_abandoned_ += other.total_abandoned_;
  dropped_ += other.dropped_;
}

std::string SpanStore::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void SpanStore::write_json(JsonWriter& w) const {
  const SpanStore* self = this;
  write_spans_json(w, {&self, 1});
}

void write_spans_json(JsonWriter& w,
                      std::span<const SpanStore* const> stores) {
  std::uint64_t dropped = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t begun = 0;
  std::uint64_t ended = 0;
  for (const SpanStore* store : stores) {
    dropped += store->dropped();
    abandoned += store->total_abandoned();
    begun += store->total_begun();
    ended += store->total_ended();
  }
  w.raw("{\"dropped\":").num(dropped).raw(",\"schema_version\":")
      .num(kSchemaVersion).raw(",\"spans\":[");
  bool first = true;
  for (const SpanStore* store : stores) {
    for (const Span& s : store->spans()) {
      if (!first) w.put(',');
      first = false;
      w.raw("{\"abandoned\":").boolean(s.abandoned).raw(",\"end\":")
          .num(s.end).raw(",\"machine\":").num(s.machine)
          .raw(",\"name\":").tag(s.name);
      if (s.note != 0) w.raw(",\"note\":").tag(s.note);
      w.raw(",\"parent\":\"").hex(s.parent_span).raw("\",\"pid\":")
          .num(s.pid).raw(",\"span\":\"").hex(s.span_id)
          .raw("\",\"start\":").num(s.start).raw(",\"trace\":\"")
          .hex(s.trace_id).raw("\"}");
    }
  }
  w.raw("],\"total_abandoned\":").num(abandoned)
      .raw(",\"total_begun\":").num(begun)
      .raw(",\"total_ended\":").num(ended).put('}');
}

// ---- AuditJournal ----

void AuditJournal::record(sim::Time time, int machine, int pid,
                          std::uint32_t kind, std::string detail,
                          const SpanStore& spans, SpanContext at) {
  if (!enabled_) return;
  AuditEntry e;
  e.time = time;
  e.machine = machine;
  e.pid = pid;
  e.kind = kind;
  e.detail = std::move(detail);
  e.trace_id = at.trace_id;
  // Snapshot now: the chain must survive ring eviction and the death
  // of every process involved.
  e.chain = spans.chain(at.parent_span);
  e.chain_names.reserve(e.chain.size());
  for (std::uint64_t id : e.chain) {
    e.chain_names.push_back(spans.name_of(id));
  }
  entries_.push_back(std::move(e));
  if (on_record_) on_record_(entries_.back());
}

void AuditJournal::record(sim::Time time, int machine, int pid,
                          const std::string& kind, std::string detail,
                          const SpanStore& spans, SpanContext at) {
  if (!enabled_) return;
  record(time, machine, pid, sim::TagRegistry::instance().intern(kind),
         std::move(detail), spans, at);
}

std::vector<AuditEntry> AuditJournal::with_kind(
    const std::string& kind) const {
  std::vector<AuditEntry> out;
  std::uint32_t tag = 0;
  if (!sim::TagRegistry::instance().try_lookup(kind, &tag)) return out;
  for (const AuditEntry& e : entries_) {
    if (e.kind == tag) out.push_back(e);
  }
  return out;
}

void AuditJournal::merge_from(const AuditJournal& other) {
  if (&other == this) return;
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

std::string AuditJournal::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void AuditJournal::write_json(JsonWriter& w) const {
  w.raw("{\"entries\":[");
  bool first = true;
  for (const AuditEntry& e : entries_) {
    if (!first) w.put(',');
    first = false;
    w.raw("{\"chain\":[");
    for (std::size_t i = 0; i < e.chain.size(); ++i) {
      if (i > 0) w.put(',');
      w.raw("{\"name\":").tag(e.chain_names[i]).raw(",\"span\":\"")
          .hex(e.chain[i]).raw("\"}");
    }
    w.raw("],\"detail\":").str(e.detail).raw(",\"kind\":").tag(e.kind)
        .raw(",\"machine\":").num(e.machine).raw(",\"pid\":").num(e.pid)
        .raw(",\"time\":").num(e.time).raw(",\"trace\":\"").hex(e.trace_id)
        .raw("\"}");
  }
  w.raw("],\"schema_version\":").num(kSchemaVersion).put('}');
}

// ---- critical path ----

std::string critical_path_json(const SpanStore& store,
                               const std::string& root_name,
                               const std::string& leaf_name) {
  auto& tags = sim::TagRegistry::instance();
  std::uint32_t root_tag = 0;
  std::uint32_t leaf_tag = 0;
  const bool have_root = tags.try_lookup(root_name, &root_tag);
  const bool have_leaf = tags.try_lookup(leaf_name, &leaf_tag);

  struct PathAgg {
    std::vector<double> hop_total_us;
    double e2e_total_us = 0;
    std::uint64_t traces = 0;
  };
  // Keyed by the hop names' tag ids, root -> leaf; each distinct path's
  // signature string is formed once, below.
  std::map<std::vector<std::uint32_t>, PathAgg> paths;

  if (have_root && have_leaf) {
    std::vector<std::uint32_t> names;
    std::vector<double> hops;
    for (const Span& leaf : store.spans()) {
      if (leaf.name != leaf_tag || leaf.abandoned) continue;
      std::vector<std::uint64_t> up = store.chain(leaf.span_id);
      if (up.empty()) continue;
      if (store.name_of(up.back()) != root_tag) continue;
      std::reverse(up.begin(), up.end());  // root -> leaf

      names.clear();
      hops.clear();
      bool complete = true;
      for (std::size_t i = 0; i < up.size(); ++i) {
        const sim::Time start = store.start_of(up[i]);
        if (start < 0) {
          complete = false;
          break;
        }
        names.push_back(store.name_of(up[i]));
        // Telescoping decomposition: hop i runs to the next hop's
        // start; the leaf runs to its own end. Sums (and thus means)
        // add up to leaf.end - root.start exactly.
        const sim::Time until =
            i + 1 < up.size() ? store.start_of(up[i + 1]) : leaf.end;
        hops.push_back(static_cast<double>(until - start));
      }
      if (!complete) continue;

      PathAgg& agg = paths[names];
      if (agg.traces == 0) agg.hop_total_us.assign(hops.size(), 0.0);
      for (std::size_t i = 0; i < hops.size(); ++i) {
        agg.hop_total_us[i] += hops[i];
      }
      agg.e2e_total_us +=
          static_cast<double>(leaf.end) -
          static_cast<double>(store.start_of(up.front()));
      ++agg.traces;
    }
  }

  // Paths print in signature order: the '>'-joined hop names.
  std::map<std::string, const decltype(paths)::value_type*> by_signature;
  for (const auto& path : paths) {
    std::string sig;
    for (std::uint32_t n : path.first) {
      if (!sig.empty()) sig += '>';
      sig += tags.name(n);
    }
    by_signature.emplace(std::move(sig), &path);
  }

  JsonWriter w;
  w.raw("{\"leaf\":").str(leaf_name).raw(",\"paths\":[");
  bool first = true;
  for (const auto& [sig, path] : by_signature) {
    const auto& [names, agg] = *path;
    if (!first) w.put(',');
    first = false;
    const double n = static_cast<double>(agg.traces);
    w.raw("{\"e2e_mean_us\":").fixed(agg.e2e_total_us / n, 6)
        .raw(",\"hops\":[");
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) w.put(',');
      w.raw("{\"mean_us\":").fixed(agg.hop_total_us[i] / n, 6)
          .raw(",\"name\":").tag(names[i]).raw(",\"total_us\":")
          .fixed(agg.hop_total_us[i], 6).put('}');
    }
    w.raw("],\"signature\":").str(sig).raw(",\"traces\":").num(agg.traces)
        .put('}');
  }
  w.raw("],\"root\":").str(root_name).raw(",\"schema_version\":")
      .num(kSchemaVersion).put('}');
  return w.take();
}

}  // namespace mkbas::obs
