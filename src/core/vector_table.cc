#include "core/vector_table.h"

#include <cassert>

namespace mdts {

VectorTable::VectorTable(size_t k, bool column_clocks)
    : k_(k),
      virtual_(TimestampVector::Virtual(k)),
      clocks_(k),
      column_clocks_(column_clocks) {
  assert(k_ >= 1);
}

TimestampVector& VectorTable::Mutable(uint32_t id) {
  if (id == 0) return virtual_;
  assert(id >= base_ && "access to a released (compacted) entity");
  while (base_ + vectors_.size() <= id) vectors_.emplace_back(k_);
  return vectors_[id - base_];
}

VectorCompareResult VectorTable::CompareIds(uint32_t a, uint32_t b) {
  VectorCompareResult r = Compare(Mutable(a), Mutable(b));
  element_comparisons_ += r.index + 1;
  return r;
}

bool VectorTable::Set(uint32_t j, uint32_t i, StripedCounters& counters,
                      AbortReason* why) {
  if (j == i) return true;
  const EncodeOutcome out =
      EncodeDependency(CompareIds(j, i), k_, Mutable(j), Mutable(i), j == 0,
                       /*right_end=*/false, counters,
                       column_clocks_ ? &clocks_ : nullptr);
  elements_assigned_ += out.elements_assigned;
  if (!out.ok && why != nullptr) *why = out.why;
  return out.ok;
}

void VectorTable::Reset(uint32_t id) { Mutable(id).Reset(); }

size_t VectorTable::ReleaseBelow(uint32_t min_live_id) {
  size_t released = 0;
  while (base_ < min_live_id && !vectors_.empty()) {
    vectors_.pop_front();
    ++base_;
    ++released;
  }
  return released;
}

}  // namespace mdts
