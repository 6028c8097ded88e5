#ifndef MDTS_OBS_ABORT_REASON_H_
#define MDTS_OBS_ABORT_REASON_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace mdts {

/// Why an operation was rejected (or a transaction aborted), across every
/// protocol layer in the repository. The paper's central claim is about
/// *which* conflicts a protocol avoids rejecting (Fig. 4's class
/// separations), so the reject cause is the natural observability
/// primitive: every kReject / kAborted / abort-and-retry path must carry
/// one of these instead of a bare bool.
///
/// The values are shared across protocols so cross-protocol breakdowns
/// line up: TO(1)'s "timestamp too old" and MT(k)'s "opposite vector order
/// already fixed" are both kLexOrder; MT(k)'s exhausted-vector case and
/// the interval scheduler's fragmentation are both kEncodingExhausted.
enum class AbortReason : uint8_t {
  kNone = 0,           // Not rejected (or cause unknown - should not appear).
  kLexOrder,           // The opposite (lexicographic/scalar) order is
                       // already fixed: MT(k) Compare == kGreater, TO(1)
                       // timestamp too old, interval order conflict.
  kEncodingExhausted,  // No room left to encode the dependency: identical
                       // fully-defined vectors (undefined-element conflict),
                       // interval fragmentation below min_split_width.
  kStaleTxn,           // Operation from an already aborted / committed /
                       // superseded transaction incarnation (defensive).
  kInvalidOp,          // Malformed submission, e.g. the virtual T0 issuing
                       // an operation.
  kDeadlockAvoidance,  // 2PL: granting would close a waits-for cycle; the
                       // requester is the victim.
  kValidationFailure,  // OCC backward validation: a concurrent committer
                       // wrote an item in the validator's read set.
  kLockTimeout,        // DMT(k): a lock request exhausted its bounded
                       // re-sends without an answer.
  kLeaseExpired,       // DMT(k): a held lock's lease expired (crashed or
                       // wedged holder); mutual exclusion was lost.
  kDownSite,           // DMT(k): the coordinating or home site is crashed.
  kFaultInjected,      // Abort directly forced by the fault injector.
  kRetryCapExhausted,  // Starvation guard: the transaction hit its attempt
                       // cap and gave up.
  kVersionConflict,    // Multiversion write-write conflict: no feasible
                       // version-chain slot (a newer version's writer, or a
                       // reader of an older version, is already ordered
                       // after the writer).
  kNumReasons,         // Sentinel: number of reasons (array sizing).
};

inline constexpr size_t kNumAbortReasons =
    static_cast<size_t>(AbortReason::kNumReasons);

/// Stable snake_case identifier (used as metric names and JSON keys).
const char* AbortReasonName(AbortReason reason);

/// One-line human explanation of the reason.
const char* AbortReasonDescription(AbortReason reason);

/// Explain-style string for one rejected operation, e.g.
///   "W3[x] rejected: lex_order (opposite order already fixed; blocker T2)".
/// `op_name` is the rendered operation (OpName() in core); `blocker` is the
/// transaction that fixed the conflicting order, 0 when not applicable.
std::string FormatReject(const std::string& op_name, AbortReason reason,
                         uint32_t blocker = 0);

/// Fixed-size per-reason tally. Plain (non-atomic) counters: instances are
/// owned by a single scheduler / shard / simulation and protected by its
/// synchronization, exactly like the stats structs they extend.
struct AbortReasonCounts {
  uint64_t counts[kNumAbortReasons] = {};

  void Add(AbortReason reason, uint64_t n = 1) {
    counts[static_cast<size_t>(reason)] += n;
  }
  uint64_t operator[](AbortReason reason) const {
    return counts[static_cast<size_t>(reason)];
  }
  /// Sum over every real reason (kNone excluded: a counted abort must have
  /// been classified).
  uint64_t total() const {
    uint64_t t = 0;
    for (size_t r = 1; r < kNumAbortReasons; ++r) t += counts[r];
    return t;
  }
  uint64_t unclassified() const { return counts[0]; }

  AbortReasonCounts& operator+=(const AbortReasonCounts& other) {
    for (size_t r = 0; r < kNumAbortReasons; ++r) counts[r] += other.counts[r];
    return *this;
  }

  /// JSON object {"lex_order": 3, ...} listing only nonzero reasons (or {}).
  std::string ToJson() const;
};

}  // namespace mdts

#endif  // MDTS_OBS_ABORT_REASON_H_
