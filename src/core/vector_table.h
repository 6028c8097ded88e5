#ifndef MDTS_CORE_VECTOR_TABLE_H_
#define MDTS_CORE_VECTOR_TABLE_H_

#include <cstdint>
#include <deque>

#include "core/encoding.h"
#include "core/timestamp_vector.h"

namespace mdts {

/// A reusable timestamp table implementing Algorithm 1's comparison and
/// Set(j, i) encoding rules over an arbitrary id space (transactions,
/// groups of the nested protocol MT(k1,k2), or supergroups). This is the
/// normal-encoding core of MtkScheduler without the item bookkeeping;
/// higher-level protocols compose one table per hierarchy level.
///
/// Storage is a deque of vectors for ids [base_id(), base_id() + n) plus a
/// permanent slot for the virtual entity 0, so a long-running owner can
/// reclaim finished entities' vectors with ReleaseBelow: memory then stays
/// bounded by the live id span instead of the total history.
class VectorTable {
 public:
  /// Creates a table of k-element vectors. Entity 0 is initialized as the
  /// virtual entity <0, *, ..., *>; all others start fully undefined.
  /// `column_clocks` draws every column but the last from the table's
  /// ColumnClocks (core/encoding.h) instead of Algorithm 1's line 20.
  explicit VectorTable(size_t k, bool column_clocks = false);

  size_t k() const { return k_; }

  /// The entity's current vector (auto-creating it fully undefined).
  const TimestampVector& Ts(uint32_t id) { return Mutable(id); }

  /// Definition-6 comparison of two entities' vectors.
  VectorCompareResult CompareIds(uint32_t a, uint32_t b);

  /// Algorithm 1's Set(j, i) (core/encoding.h, normal encoding): ensures
  /// TS(j) < TS(i), encoding the dependency if undetermined. Returns false
  /// iff it cannot - TS(j) > TS(i) is already fixed, or the encoding would
  /// rewrite the immutable TS(0) - with the cause in `why` when non-null.
  /// Last-column values come from the table's own counters, or from
  /// `counters` (DMT(k)'s per-site stripes) in the second form.
  bool Set(uint32_t j, uint32_t i, AbortReason* why = nullptr) {
    return Set(j, i, counters_, why);
  }
  bool Set(uint32_t j, uint32_t i, StripedCounters& counters,
           AbortReason* why = nullptr);

  /// Resets an entity's vector to fully undefined (abort support).
  void Reset(uint32_t id);

  /// Section III-D-4 starvation seeding of the entity's vector past the
  /// blocker's (core/encoding.h SeedAfter).
  void SeedAfter(uint32_t id, uint32_t blocker) {
    mdts::SeedAfter(Mutable(id), Mutable(blocker));
  }

  /// Compaction (Section III-D-6a/b storage reclamation, applied to the
  /// vectors themselves): drops every vector with 0 < id < min_live_id.
  /// The caller guarantees those ids are finished and will never be passed
  /// to this table again; entity 0 is permanent. Returns vectors released.
  size_t ReleaseBelow(uint32_t min_live_id);

  /// Smallest non-virtual id still stored (1 until the first release).
  uint32_t base_id() const { return base_; }

  /// Vectors currently held, including the virtual entity.
  size_t live_vectors() const { return vectors_.size() + 1; }

  /// Element-comparison and assignment counters (complexity accounting).
  uint64_t element_comparisons() const { return element_comparisons_; }
  uint64_t elements_assigned() const { return elements_assigned_; }

 private:
  TimestampVector& Mutable(uint32_t id);

  size_t k_;
  TimestampVector virtual_;              // Entity 0, never released.
  std::deque<TimestampVector> vectors_;  // Ids [base_, base_ + size()).
  uint32_t base_ = 1;
  StripedCounters counters_;
  ColumnClocks clocks_;
  bool column_clocks_;
  uint64_t element_comparisons_ = 0;
  uint64_t elements_assigned_ = 0;
};

}  // namespace mdts

#endif  // MDTS_CORE_VECTOR_TABLE_H_
