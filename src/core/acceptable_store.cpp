#include "core/acceptable_store.h"

#include <stdexcept>

namespace dtr {

AcceptableStore::AcceptableStore(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  if (capacity_ == 0) throw std::invalid_argument("AcceptableStore: zero capacity");
  entries_.reserve(capacity_);
}

void AcceptableStore::offer(const WeightSetting& setting, const CostPair& cost) {
  ++offered_;
  if (entries_.size() < capacity_) {
    entries_.push_back({setting, cost});
    return;
  }
  // Reservoir sampling: keep each offered element with probability cap/seen.
  const std::uint64_t slot = rng_.uniform_index(offered_);
  if (slot < capacity_) entries_[slot] = {setting, cost};
}

}  // namespace dtr
