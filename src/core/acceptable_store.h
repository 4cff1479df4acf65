#pragma once

#include <cstddef>
#include <vector>

#include "cost/cost_types.h"
#include "routing/weights.h"
#include "util/rng.h"

namespace dtr {

/// Entries the optimizer's Phase-1 store retains.
inline constexpr std::size_t kAcceptableStoreCapacity = 128;

/// Bounded store of weight settings encountered during Phase 1 together with
/// their normal-condition costs. Phase 1b perturbs entries to generate
/// additional failure-like cost samples.
///
/// Capacity-bounded via reservoir sampling so the retained entries are an
/// unbiased sample of everything offered — keeping diversity rather than just
/// the most recent trajectory.
class AcceptableStore {
 public:
  struct Entry {
    WeightSetting setting;
    CostPair cost;
  };

  AcceptableStore(std::size_t capacity, std::uint64_t seed);

  void offer(const WeightSetting& setting, const CostPair& cost);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& entry(std::size_t i) const { return entries_[i]; }

 private:
  std::size_t capacity_;
  std::size_t offered_ = 0;
  std::vector<Entry> entries_;
  Rng rng_;
};

}  // namespace dtr
