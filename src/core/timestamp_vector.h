#ifndef MDTS_CORE_TIMESTAMP_VECTOR_H_
#define MDTS_CORE_TIMESTAMP_VECTOR_H_

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
/// vectors spill to one heap block. An undefined element holds the
/// kUndefinedElement sentinel, the only record of '*': definedness queries,
/// the defined-prefix length and Compare() all read the element words.
class TimestampVector {
 public:
  /// Largest k stored inline.
  static constexpr size_t kInlineCapacity = 8;

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

  bool IsDefined(size_t m) const { return data()[m] != kUndefinedElement; }
  TsElement Get(size_t m) const { return data()[m]; }
  /// Writing kUndefinedElement un-defines the element.
  void Set(size_t m, TsElement v) { data()[m] = v; }

  /// Number of leading elements that are defined.
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

  friend bool operator==(const TimestampVector& a, const TimestampVector& b) {
    if (a.k_ != b.k_) return false;
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
};

/// The reference comparator: the literal per-element transcription of
/// Definition 6. Kept for differential testing against Compare().
VectorCompareResult CompareNaive(const TimestampVector& a,
                                 const TimestampVector& b);

/// Definition-6 comparison of TS(i) = a against TS(j) = b. Scans left to
/// right for the first position where the elements are not both defined and
/// equal; the pair found there decides the order:
///   both defined, a<b  -> kLess      both defined, a>b -> kGreater
///   both undefined     -> kEqual     exactly one undefined -> kUndetermined
/// Vectors must have equal size.
///
/// One test per element finds that position: the pair's XOR is nonzero
/// when the elements differ (a sentinel differs from every integer), and a
/// sentinel on a's side stops an equal pair (both undefined). Defined
/// inline so scheduler hot loops can absorb it.
inline VectorCompareResult Compare(const TimestampVector& a,
                                   const TimestampVector& b) {
  assert(a.size() == b.size());
  const size_t k = a.size();
  const TsElement* pa = a.data();
  const TsElement* pb = b.data();
  size_t m = 0;
  for (; m < k; ++m) {
    const uint64_t diff =
        static_cast<uint64_t>(pa[m]) ^ static_cast<uint64_t>(pb[m]);
    if ((diff | uint64_t{pa[m] == kUndefinedElement}) != 0) break;
  }
  if (m == k) return {VectorOrder::kIdentical, k};
  const TsElement x = pa[m];
  const TsElement y = pb[m];
  if (x != kUndefinedElement && y != kUndefinedElement) {
    return {x < y ? VectorOrder::kLess : VectorOrder::kGreater, m};
  }
  return {x == y ? VectorOrder::kEqual : VectorOrder::kUndetermined, m};
}

/// Convenience: strict Definition-6 "less than".
inline bool VectorLess(const TimestampVector& a, const TimestampVector& b) {
  return Compare(a, b).order == VectorOrder::kLess;
}

/// Name of a VectorOrder value, for diagnostics.
const char* VectorOrderName(VectorOrder order);

}  // namespace mdts

#endif  // MDTS_CORE_TIMESTAMP_VECTOR_H_
