#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mkbas::sim {

/// Category of a trace event. Coarse buckets keep filtering cheap; the
/// free-form detail string carries the specifics.
enum class TraceKind {
  kProcess,   // spawn/exit/kill
  kIpc,       // message passing, queues, endpoints
  kSecurity,  // permission decisions (ACM checks, cap checks, mode checks)
  kDevice,    // sensor samples, actuator changes
  kControl,   // control-law decisions (setpoint changes, alarm logic)
  kNetwork,   // simulated HTTP/BACnet traffic
  kAttack,    // attack actions and their observed results
  kFault,     // injected faults (crash/hang/drop/corrupt/stuck/jitter)
};

inline const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kProcess:
      return "proc";
    case TraceKind::kIpc:
      return "ipc";
    case TraceKind::kSecurity:
      return "sec";
    case TraceKind::kDevice:
      return "dev";
    case TraceKind::kControl:
      return "ctl";
    case TraceKind::kNetwork:
      return "net";
    case TraceKind::kAttack:
      return "atk";
    case TraceKind::kFault:
      return "fault";
  }
  return "?";
}

/// Process-wide interner for trace tags ("acm.deny", "mq.send", ...).
///
/// The tag vocabulary is tiny (a few dozen strings) while logs run to
/// millions of events, so events store a 32-bit id and every tag query is
/// an integer compare instead of a strcmp. Interning is idempotent and ids
/// are stable for the life of the process; id 0 is the empty string.
///
/// Everything is defined inline so translation units that only read logs
/// (e.g. the obs trace exporter) need no sim library symbols.
///
/// Only a thread's first sight of a name takes the lock. Names live in
/// segments that never move, so name() reads without it, and each thread
/// remembers the ids it has seen, so a repeated intern() or try_lookup()
/// does too: campaign and daemon workers emit and render millions of tags
/// in parallel, and a lock shared on that path makes them wait on each
/// other.
class TagRegistry {
 public:
  static TagRegistry& instance() {
    static TagRegistry reg;
    return reg;
  }

  /// Id for `s`, creating it on first sight.
  std::uint32_t intern(const std::string& s) {
    auto& seen = thread_ids();
    if (const auto it = seen.find(s); it != seen.end()) return it->second;
    std::uint32_t id = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = ids_.find(s);
      if (it != ids_.end()) {
        id = it->second;
      } else {
        id = size_.load(std::memory_order_relaxed);
        const auto [seg, off] = locate(id);
        if (off == 0) {
          segments_[seg].store(new std::string[segment_size(seg)],
                               std::memory_order_release);
        }
        segments_[seg].load(std::memory_order_relaxed)[off] = s;
        ids_.emplace(s, id);
        size_.store(id + 1, std::memory_order_release);
      }
    }
    seen.emplace(name(id), id);
    return id;
  }

  /// Id for `s` if it was ever interned; false otherwise (a miss stores
  /// nothing — counting a tag nobody emitted must not grow the table).
  bool try_lookup(const std::string& s, std::uint32_t* id) const {
    auto& seen = thread_ids();
    if (const auto it = seen.find(s); it != seen.end()) {
      *id = it->second;
      return true;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = ids_.find(s);
      if (it == ids_.end()) return false;
      *id = it->second;
    }
    seen.emplace(name(*id), *id);
    return true;
  }

  /// The name of an id this process interned. Lock-free.
  const std::string& name(std::uint32_t id) const {
    assert(id < size_.load(std::memory_order_acquire));
    const auto [seg, off] = locate(id);
    return segments_[seg].load(std::memory_order_acquire)[off];
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  TagRegistry(const TagRegistry&) = delete;
  TagRegistry& operator=(const TagRegistry&) = delete;
  ~TagRegistry() {
    for (auto& seg : segments_) delete[] seg.load(std::memory_order_relaxed);
  }

 private:
  /// Segment 0 holds ids [0, 64); segment k >= 1 holds [64 << (k - 1),
  /// 64 << k). 27 segments cover every 32-bit id.
  static constexpr std::uint32_t kFirstSegment = 64;
  static constexpr std::size_t kSegments = 27;

  static std::size_t segment_size(std::size_t seg) {
    return seg == 0 ? kFirstSegment : std::size_t{kFirstSegment} << (seg - 1);
  }
  static std::pair<std::size_t, std::uint32_t> locate(std::uint32_t id) {
    if (id < kFirstSegment) return {0, id};
    const std::size_t seg = std::bit_width(id / kFirstSegment);
    return {seg, id - (kFirstSegment << (seg - 1))};
  }
  /// This thread's ids by name, keyed by views of the stored names.
  static std::unordered_map<std::string_view, std::uint32_t>& thread_ids() {
    thread_local std::unordered_map<std::string_view, std::uint32_t> ids;
    return ids;
  }

  TagRegistry() { intern(std::string()); }  // id 0 == ""

  mutable std::mutex mu_;  // guards ids_ and the writes to segments_
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::array<std::atomic<std::string*>, kSegments> segments_{};
  std::atomic<std::uint32_t> size_{0};
};

/// One timestamped event in the simulation log. The tag is stored interned;
/// `what()` resolves it back to the string for display and legacy queries.
struct TraceEvent {
  Time time = 0;
  int pid = -1;  // -1 when the event is not attributable to a process
  TraceKind kind = TraceKind::kProcess;
  std::uint32_t tag = 0;  // interned "acm.deny"-style machine tag
  std::string detail;     // human-readable specifics
  double value = 0.0;     // optional numeric payload (setpoints, readings)

  const std::string& what() const { return TagRegistry::instance().name(tag); }
};

/// Append a decimal integer to `s` without any temporary allocation —
/// the std::to_string-free building block hot emitters use to format a
/// detail string in place inside a recycled event slot.
inline void append_int(std::string& s, std::int64_t v) {
  char tmp[24];
  auto r = std::to_chars(tmp, tmp + sizeof tmp, v);
  s.append(tmp, static_cast<std::size_t>(r.ptr - tmp));
}

class TraceLog;

/// Read-only window over a TraceLog's kept events, oldest first. The log
/// stores events in a slot-recycling ring (see TraceLog), so the kept
/// range is not contiguous in memory; this view presents it in logical
/// order with the deque-ish surface the exporters, the safety checker and
/// the tests always used: range-for, size(), operator[], front(), back().
/// Invalidated, like any snapshot, by the next emit on the log.
class TraceView {
 public:
  class iterator {
   public:
    iterator(const TraceView* v, std::size_t i) : v_(v), i_(i) {}
    const TraceEvent& operator*() const { return (*v_)[i_]; }
    const TraceEvent* operator->() const { return &(*v_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const TraceView* v_;
    std::size_t i_;
  };

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const TraceEvent& operator[](std::size_t i) const {
    assert(i < count_);
    std::size_t phys = head_ + i;
    if (phys >= ring_) phys -= ring_;
    return buf_[phys];
  }
  const TraceEvent& front() const { return (*this)[0]; }
  const TraceEvent& back() const { return (*this)[count_ - 1]; }
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, count_); }

 private:
  friend class TraceLog;
  TraceView(const TraceEvent* buf, std::size_t head, std::size_t count,
            std::size_t ring)
      : buf_(buf), head_(head), count_(count), ring_(ring) {}

  const TraceEvent* buf_;
  std::size_t head_;   // physical index of the oldest kept event
  std::size_t count_;  // kept events
  std::size_t ring_;   // physical modulus (buffer length)
};

/// Event log shared by the machine, kernels, devices and the application
/// processes. Tests and the safety checker query it; benches print slices
/// of it; the obs exporter turns it into a Chrome/Perfetto trace.
///
/// By default the log is unbounded (append-only). set_capacity() switches
/// it into a ring buffer that evicts oldest-first — for long soak runs
/// where only the recent window matters. total_emitted()/dropped() keep
/// exact accounting either way, so denial *counts* remain trustworthy even
/// when the denial *events* have been evicted.
///
/// Storage is a slot-recycling vector ring: evicting never destroys the
/// TraceEvent, it hands the slot (and its detail string's capacity) to the
/// incoming event. Hot emitters use emit_slot() and format the detail in
/// place, so a steady-state ring-mode emitter touches the allocator zero
/// times per event.
class TraceLog {
 public:
  /// Append a fresh event and return its slot for in-place formatting.
  /// The slot's header fields are set; `detail` arrives cleared but keeps
  /// whatever capacity the evicted tenant had grown.
  TraceEvent& emit_slot(Time time, int pid, TraceKind kind, std::uint32_t tag,
                        double value = 0.0) {
    ++total_emitted_;
    TraceEvent* ev;
    if (capacity_ > 0 && buf_.size() == capacity_) {
      ev = &buf_[head_];  // recycle the oldest slot in place
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ++dropped_;
    } else {
      buf_.emplace_back();
      ev = &buf_.back();
    }
    ev->time = time;
    ev->pid = pid;
    ev->kind = kind;
    ev->tag = tag;
    ev->value = value;
    ev->detail.clear();
    return *ev;
  }

  void emit(TraceEvent ev) {
    TraceEvent& slot = emit_slot(ev.time, ev.pid, ev.kind, ev.tag, ev.value);
    slot.detail.assign(ev.detail);  // copy into the slot's retained capacity
  }
  void emit(Time time, int pid, TraceKind kind, const std::string& what,
            const std::string& detail = {}, double value = 0.0) {
    emit_slot(time, pid, kind, TagRegistry::instance().intern(what), value)
        .detail.assign(detail);
  }
  /// Hot-path overload for callers that interned the tag once up front.
  void emit(Time time, int pid, TraceKind kind, std::uint32_t tag,
            const std::string& detail = {}, double value = 0.0) {
    emit_slot(time, pid, kind, tag, value).detail.assign(detail);
  }

  TraceView events() const {
    return TraceView(buf_.data(), head_, size(), buf_.empty() ? 1 : buf_.size());
  }
  std::size_t size() const { return buf_.size(); }
  /// Forget the kept events. They count as dropped, so the invariant
  /// total_emitted() == size() + dropped() survives an exporter that
  /// snapshots and clears while the simulation keeps emitting.
  void clear() {
    dropped_ += size();
    buf_.clear();
    head_ = 0;
  }

  /// Append every kept event of `other` to this log (in `other`'s order),
  /// carrying the drop accounting across so the invariant
  /// total_emitted() == size() + dropped() holds for the union. This log's
  /// capacity still applies: merged events can evict (or be evicted) like
  /// any other emit. Merging the same logs in the same order produces an
  /// identical log — the reduction step for per-cell campaign traces.
  void merge_from(const TraceLog& other) {
    if (&other == this) return;
    for (const TraceEvent& ev : other.events()) emit(ev);
    total_emitted_ += other.dropped();
    dropped_ += other.dropped();
  }

  /// 0 = unbounded (default). N > 0 = keep only the newest N events,
  /// evicting oldest-first; an over-full log is trimmed immediately.
  void set_capacity(std::size_t cap) {
    if (cap > 0 && size() > cap) {
      const std::size_t drop = size() - cap;
      // Cold path: materialise the newest `cap` events in logical order.
      std::vector<TraceEvent> kept;
      kept.reserve(cap);
      TraceView v = events();
      for (std::size_t i = drop; i < v.size(); ++i) kept.push_back(v[i]);
      buf_ = std::move(kept);
      head_ = 0;
      dropped_ += drop;
    } else if (head_ != 0) {
      // Re-linearise so a *larger* capacity keeps appending correctly.
      std::vector<TraceEvent> kept;
      kept.reserve(size());
      for (const TraceEvent& ev : events()) kept.push_back(ev);
      buf_ = std::move(kept);
      head_ = 0;
    }
    capacity_ = cap;
  }
  std::size_t capacity() const { return capacity_; }
  /// Events evicted (ring buffer) or discarded (clear) since construction.
  std::uint64_t dropped() const { return dropped_; }
  /// Events ever emitted. Invariant: total_emitted() == size() + dropped().
  std::uint64_t total_emitted() const { return total_emitted_; }

  /// All events whose tag equals `what`.
  std::vector<TraceEvent> with_tag(const std::string& what) const;
  std::vector<TraceEvent> with_tag(std::uint32_t tag) const;

  /// Count of events whose tag equals `what`.
  std::size_t count_tag(const std::string& what) const;
  std::size_t count_tag(std::uint32_t tag) const;

  /// First event matching the predicate, or nullptr.
  const TraceEvent* find_first(
      const std::function<bool(const TraceEvent&)>& pred) const;

  /// Render the whole log (or one kind, or one tag) as text, one per line.
  void dump(std::ostream& os) const;
  void dump(std::ostream& os, TraceKind kind) const;
  void dump(std::ostream& os, const std::string& tag) const;

 private:
  std::vector<TraceEvent> buf_;  // ring once buf_.size() == capacity_
  std::size_t head_ = 0;         // oldest slot (always 0 while growing)
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t total_emitted_ = 0;
};

}  // namespace mkbas::sim
