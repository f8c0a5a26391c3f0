#include "minix/acm.hpp"

namespace mkbas::minix {

void AcmPolicy::allow(int src_ac, int dst_ac,
                      std::initializer_list<int> types) {
  std::uint64_t mask = 0;
  for (int t : types) {
    if (t >= 0 && t <= kMaxMessageType) mask |= (1ULL << t);
  }
  allow_mask(src_ac, dst_ac, mask);
}

void AcmPolicy::allow_mask(int src_ac, int dst_ac, std::uint64_t mask) {
  cells_[key(src_ac, dst_ac)] |= mask;
}

void AcmPolicy::allow_kill(int src_ac, int target_ac) {
  kill_[key(src_ac, target_ac)] = true;
}

bool AcmPolicy::kill_allowed(int src_ac, int target_ac) const {
  const auto it = kill_.find(key(src_ac, target_ac));
  return it != kill_.end() && it->second;
}

void AcmPolicy::set_fork_quota(int ac_id, int quota) {
  fork_quota_[ac_id] = quota;
}

std::optional<int> AcmPolicy::fork_quota(int ac_id) const {
  const auto it = fork_quota_.find(ac_id);
  if (it == fork_quota_.end()) return std::nullopt;
  return it->second;
}

namespace {

/// Unordered-map footprint from the sizes of the actual node types:
/// libstdc++ stores one value_type per node plus a next pointer (and a
/// cached hash for these key types), reached through a bucket-pointer
/// array. This replaces the old hand-waved per-entry constant.
template <typename Map>
std::size_t map_footprint(const Map& m) {
  const std::size_t per_node =
      sizeof(typename Map::value_type) + sizeof(void*) + sizeof(std::size_t);
  return m.size() * per_node + m.bucket_count() * sizeof(void*);
}

}  // namespace

std::size_t AcmPolicy::memory_footprint_bytes() const {
  return map_footprint(cells_) + map_footprint(kill_) +
         map_footprint(fork_quota_);
}

}  // namespace mkbas::minix
