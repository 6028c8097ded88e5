#ifndef MDTS_CORE_TIMESTAMP_VECTOR_H_
#define MDTS_CORE_TIMESTAMP_VECTOR_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace mdts {

/// A single timestamp element. Elements are drawn from a logical clock, not a
/// real clock, and may be negative (lcount counts downward). kUndefinedElement
/// is the paper's '*': an element that has not been assigned yet. Per the
/// paper, "an undefined element is not equal to any integer".
using TsElement = int64_t;
constexpr TsElement kUndefinedElement = std::numeric_limits<int64_t>::min();

/// Outcome of comparing two timestamp vectors under Definition 6.
enum class VectorOrder {
  kLess,          // TS(i) < TS(j): first differing defined pair orders them.
  kGreater,       // TS(i) > TS(j).
  kEqual,         // '=': equal prefix, then both undefined at position m.
  kUndetermined,  // '?': equal prefix, then exactly one side undefined at m.
  kIdentical,     // All k elements defined and pairwise equal. Algorithm 1's
                  // counters make this unreachable between distinct live
                  // transactions; surfaced for defensive handling.
};

/// Result of a Definition-6 comparison: the order plus the 0-based position m
/// at which it was decided (== size() for kIdentical).
struct VectorCompareResult {
  VectorOrder order = VectorOrder::kIdentical;
  size_t index = 0;
};

/// The timestamp vector TS(i) of a transaction: k elements, each an integer
/// or undefined. Earlier (leftmost) elements are more significant; comparison
/// is lexicographic with the undefined-element rules of Definition 6.
///
/// Layout: the whole object is 72 bytes. Elements live inline (no heap
/// allocation, no pointer chase) for k <= kInlineCapacity, which covers
/// Theorem 3's k = 2q-1 for every transaction of up to 4 operations; larger
/// vectors spill to one heap block. A bitmask mirrors which elements are
/// defined (undefined slots also hold the kUndefinedElement sentinel), so
/// definedness queries, the defined-prefix length, and most of Compare()
/// resolve with mask arithmetic instead of per-element branching.
class TimestampVector {
 public:
  /// Largest k stored inline.
  static constexpr size_t kInlineCapacity = 8;
  /// Largest k whose defined-elements set fits the bitmask; larger vectors
  /// fall back to the reference comparator and sentinel scans (no protocol
  /// configuration in this repository goes near it: Theorem 3 needs
  /// k = 2q-1, i.e. transactions of 16+ operations to exceed it).
  static constexpr size_t kMaskBits = 32;

  /// All k elements undefined: the initial state of every real transaction.
  explicit TimestampVector(size_t k);

  TimestampVector(const TimestampVector& o);
  TimestampVector(TimestampVector&& o) noexcept;
  TimestampVector& operator=(const TimestampVector& o);
  TimestampVector& operator=(TimestampVector&& o) noexcept;
  ~TimestampVector() {
    if (k_ > kInlineCapacity) delete[] heap_;
  }

  /// The virtual transaction T0's vector <0, *, *, ..., *>.
  static TimestampVector Virtual(size_t k);

  size_t size() const { return k_; }

  bool IsDefined(size_t m) const {
    if (m < kMaskBits) return (mask_ >> m) & 1u;
    return data()[m] != kUndefinedElement;
  }
  TsElement Get(size_t m) const { return data()[m]; }
  void Set(size_t m, TsElement v) {
    data()[m] = v;
    if (m < kMaskBits) {
      const uint32_t bit = uint32_t{1} << m;
      mask_ = v == kUndefinedElement ? (mask_ & ~bit) : (mask_ | bit);
    }
  }

  /// Number of leading elements that are defined. O(1) for k <= kMaskBits.
  size_t DefinedPrefixLength() const;

  /// Count of defined elements anywhere in the vector.
  size_t DefinedCount() const;

  /// Clears every element back to undefined (used by the starvation fix,
  /// which "flushes out" an aborted transaction's vector).
  void Reset();

  /// Renders in the paper's notation, e.g. "<1,2,*>".
  std::string ToString() const;

  /// Raw element storage (undefined slots hold kUndefinedElement).
  const TsElement* data() const {
    return k_ <= kInlineCapacity ? inline_ : heap_;
  }

  /// Bit m set iff element m is defined (meaningful for m < kMaskBits).
  uint32_t defined_mask() const { return mask_; }

  friend bool operator==(const TimestampVector& a, const TimestampVector& b) {
    if (a.k_ != b.k_ || a.mask_ != b.mask_) return false;
    const TsElement* pa = a.data();
    const TsElement* pb = b.data();
    for (size_t m = 0; m < a.k_; ++m) {
      if (pa[m] != pb[m]) return false;
    }
    return true;
  }

 private:
  TsElement* data() { return k_ <= kInlineCapacity ? inline_ : heap_; }

  union {
    TsElement inline_[kInlineCapacity];
    TsElement* heap_;  // Engaged iff k_ > kInlineCapacity.
  };
  uint32_t k_;
  uint32_t mask_ = 0;  // Bit m set iff element m is defined (m < kMaskBits).
};

/// The reference comparator: the literal per-element transcription of
/// Definition 6. Kept for differential testing against Compare() and as its
/// fallback for k > 32.
VectorCompareResult CompareNaive(const TimestampVector& a,
                                 const TimestampVector& b);

/// Definition-6 comparison of TS(i) = a against TS(j) = b. Scans left to
/// right for the first position where the elements are not both defined and
/// equal; the pair found there decides the order:
///   both defined, a<b  -> kLess      both defined, a>b -> kGreater
///   both undefined     -> kEqual     exactly one undefined -> kUndetermined
/// Vectors must have equal size.
///
/// The common defined prefix is located with one mask AND plus a
/// count-trailing-ones, the prefix values are scanned with a branch-light
/// memcmp-style loop, and the decision at the break position is read off
/// the two masks. Defined inline so scheduler hot loops can absorb it.
inline VectorCompareResult Compare(const TimestampVector& a,
                                   const TimestampVector& b) {
  assert(a.size() == b.size());
  const size_t k = a.size();
  if (k > TimestampVector::kMaskBits) return CompareNaive(a, b);
  // p = first position where the elements are not both defined; everything
  // before it is a both-defined prefix that only needs a value scan.
  const uint32_t both = a.defined_mask() & b.defined_mask();
  const size_t p = static_cast<size_t>(std::countr_one(both));
  const TsElement* pa = a.data();
  const TsElement* pb = b.data();
  for (size_t m = 0; m < p; ++m) {
    if (pa[m] != pb[m]) {
      return {pa[m] < pb[m] ? VectorOrder::kLess : VectorOrder::kGreater, m};
    }
  }
  if (p >= k) return {VectorOrder::kIdentical, k};
  // Exactly one or neither side defined at p: two mask bits decide.
  const bool da = (a.defined_mask() >> p) & 1u;
  const bool db = (b.defined_mask() >> p) & 1u;
  if (!da && !db) return {VectorOrder::kEqual, p};
  return {VectorOrder::kUndetermined, p};
}

/// Convenience: strict Definition-6 "less than".
inline bool VectorLess(const TimestampVector& a, const TimestampVector& b) {
  return Compare(a, b).order == VectorOrder::kLess;
}

/// Name of a VectorOrder value, for diagnostics.
const char* VectorOrderName(VectorOrder order);

}  // namespace mdts

#endif  // MDTS_CORE_TIMESTAMP_VECTOR_H_
