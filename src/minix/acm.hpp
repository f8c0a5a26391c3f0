#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mkbas::minix {

/// The paper's fine-grained mandatory access control mechanism (§III.B):
/// a matrix indexed by (sender ac_id, receiver ac_id) whose cells are
/// bitmaps over message types. The kernel consults it on every IPC; a
/// cleared bit means the message is dropped with EPERM.
///
/// Message types 0..63 are representable (the paper's example uses 0..3,
/// where type 0 is the reserved acknowledgment). The matrix is compiled
/// into the kernel (here: handed to the MinixKernel constructor) and is
/// immutable from user space — only trusted kernel paths (reincarnation
/// bootstrap) ever extend it at run time.
///
/// The matrix is stored sparse, as the paper does: one hash-map cell per
/// (src, dst) pair that has any bit set, so space grows with the policy's
/// edges, not with the square of the process count. Every lookup is one
/// const probe of that map, so a verdict always reflects the matrix as it
/// stands.
///
/// Beyond the paper's prototype we also carry the ACM extensions the paper
/// proposes as future work: per-process kill permissions (audited by the
/// PM server) and per-process fork quotas (the fork-bomb mitigation from
/// §IV.D.2).
class AcmPolicy {
 public:
  static constexpr int kMaxMessageType = 63;

  /// Allow `src` to send messages of the listed types to `dst`.
  void allow(int src_ac, int dst_ac, std::initializer_list<int> types);
  void allow_mask(int src_ac, int dst_ac, std::uint64_t mask);

  /// True iff the matrix permits (src, dst, m_type).
  bool allowed(int src_ac, int dst_ac, int m_type) const {
    if (m_type < 0 || m_type > kMaxMessageType) return false;
    return (mask(src_ac, dst_ac) >> m_type) & 1ULL;
  }
  std::uint64_t mask(int src_ac, int dst_ac) const {
    const auto it = cells_.find(key(src_ac, dst_ac));
    return it == cells_.end() ? 0 : it->second;
  }

  /// PM-audited kill permission: may `src` kill `target`?
  void allow_kill(int src_ac, int target_ac);
  bool kill_allowed(int src_ac, int target_ac) const;

  /// Fork quota (nullopt = unlimited). Enforced by the PM when quotas are
  /// enabled; this is the paper's proposed fork-bomb mitigation.
  void set_fork_quota(int ac_id, int quota);
  std::optional<int> fork_quota(int ac_id) const;

  void set_quotas_enabled(bool on) { quotas_enabled_ = on; }
  bool quotas_enabled() const { return quotas_enabled_; }

  /// Number of (src, dst) cells present (for the space-efficiency bench).
  std::size_t cell_count() const { return cells_.size(); }
  /// Footprint of every lookup structure this policy owns: sparse-map
  /// nodes and bucket arrays (sizeof of the actual node value types plus
  /// the two per-node pointers libstdc++ charges).
  std::size_t memory_footprint_bytes() const;

 private:
  static std::uint64_t key(int src, int dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
  }

  std::unordered_map<std::uint64_t, std::uint64_t> cells_;
  std::unordered_map<std::uint64_t, bool> kill_;
  std::unordered_map<int, int> fork_quota_;
  bool quotas_enabled_ = false;
};

/// Dense variant used only by the ACM benchmark (T3) to quantify the
/// paper's "sparse matrix for fast lookup and space efficiency" claim:
/// a full N x N table of bitmaps addressed by ac_id directly.
class DenseAcm {
 public:
  explicit DenseAcm(int max_ac_id)
      : n_(max_ac_id + 1),
        cells_(static_cast<std::size_t>(n_) * n_, 0) {}

  void allow_mask(int src, int dst, std::uint64_t mask) {
    if (src < 0 || dst < 0 || src >= n_ || dst >= n_) return;
    cells_[static_cast<std::size_t>(src) * n_ + dst] |= mask;
  }
  bool allowed(int src, int dst, int m_type) const {
    if (src < 0 || dst < 0 || src >= n_ || dst >= n_) return false;
    if (m_type < 0 || m_type > AcmPolicy::kMaxMessageType) return false;
    return (cells_[static_cast<std::size_t>(src) * n_ + dst] >> m_type) & 1;
  }
  std::size_t memory_footprint_bytes() const {
    return cells_.size() * sizeof(std::uint64_t);
  }

 private:
  int n_;
  std::vector<std::uint64_t> cells_;
};

}  // namespace mkbas::minix
