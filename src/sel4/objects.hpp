#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace mkbas::sel4 {

/// Kernel object types, the subset of seL4's object zoo that the paper's
/// scenario exercises (plus Untyped/CNode needed to build anything at all).
enum class ObjType {
  kUntyped,
  kTcb,
  kEndpoint,
  kNotification,
  kCNode,
  kFrame,  // shared-memory page (CAmkES dataports map these)
};

const char* to_string(ObjType t);

/// Access rights carried by a capability. seL4 defines read, write and
/// grant (§III.C): read = may receive, write = may send, grant = may
/// transfer capabilities across this endpoint (and receive a reply cap
/// from seL4_Call).
struct CapRights {
  bool read = false;
  bool write = false;
  bool grant = false;

  static constexpr CapRights rw() { return {true, true, false}; }
  static constexpr CapRights rwg() { return {true, true, true}; }
  static constexpr CapRights r() { return {true, false, false}; }
  static constexpr CapRights w() { return {false, true, false}; }
  static constexpr CapRights wg() { return {false, true, true}; }
  static constexpr CapRights all() { return {true, true, true}; }

  /// Rights derivation may only ever shrink (no amplification).
  CapRights masked_by(CapRights m) const {
    return {read && m.read, write && m.write, grant && m.grant};
  }
  bool subset_of(CapRights o) const {
    return (!read || o.read) && (!write || o.write) && (!grant || o.grant);
  }
  bool operator==(const CapRights&) const = default;
};

/// A capability: an unforgeable token referencing a kernel object with a
/// set of rights and an optional badge. User code never holds these
/// directly — only slot indices into its CSpace; the kernel dereferences.
struct Capability {
  int object = -1;  // index into the kernel's object table
  ObjType type = ObjType::kEndpoint;
  CapRights rights;
  std::uint64_t badge = 0;

  bool valid() const { return object >= 0; }
};

/// seL4-style IPC message: a label (like MessageInfo) plus message
/// registers, and optionally one capability to transfer (requires grant).
struct Sel4Msg {
  static constexpr std::size_t kMaxMrs = 64;

  std::uint64_t label = 0;
  std::vector<std::uint64_t> mrs;
  /// Slot (in the SENDER's CSpace) of a capability to transfer; -1 = none.
  int transfer_cap_slot = -1;

  void push(std::uint64_t v) {
    if (mrs.size() < kMaxMrs) mrs.push_back(v);
  }
  std::uint64_t mr(std::size_t i) const { return i < mrs.size() ? mrs[i] : 0; }

  // Doubles are routinely shuttled through MRs by glue code.
  void push_f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    push(bits);
  }
  double mr_f64(std::size_t i) const {
    const std::uint64_t bits = mr(i);
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

/// Results of seL4 invocations in this model.
enum class Sel4Error {
  kOk = 0,
  kBadSlot,           // slot index out of CSpace range
  kEmptySlot,         // no capability in that slot
  kWrongType,         // capability references the wrong object type
  kNoRights,          // missing read/write/grant for the operation
  kDeleted,           // peer/object vanished while blocked
  kNotReady,          // non-blocking variant found nobody waiting
  kNoReplyCap,        // seL4_Reply without a pending reply capability
  kUntypedExhausted,  // retype budget exceeded
  kSlotOccupied,      // destination slot already holds a capability
  kTableFull,         // out of kernel objects / processes
  kTruncated,         // message exceeded kMaxMrs
};

const char* to_string(Sel4Error e);

}  // namespace mkbas::sel4
