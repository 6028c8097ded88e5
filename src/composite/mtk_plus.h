#ifndef MDTS_COMPOSITE_MTK_PLUS_H_
#define MDTS_COMPOSITE_MTK_PLUS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/encoding.h"
#include "core/mtk_scheduler.h"
#include "core/timestamp_vector.h"

namespace mdts {

/// Work counters for the composite protocol, used by the Section-IV cost
/// claim: the shared-prefix implementation schedules each operation in O(k)
/// column accesses instead of the O(k^2) of running MT(1..k) independently.
struct MtkPlusStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t columns_touched = 0;  // PREFIX/LASTCOL cells examined or written.
  uint64_t subs_stopped = 0;
};

/// The shared-prefix composite protocol MT(k+) of Section IV (Algorithm 2
/// and Fig. 10).
///
/// Timestamp storage is split into:
///  * PREFIX: k-1 shared columns; column h serves as column h of every
///    subprotocol MT(h+1), ..., MT(k) (Theorem 5: their prefixes always
///    agree, so one copy suffices). Prefix columns may hold equal values
///    across vectors.
///  * LASTCOL: k per-subprotocol columns; LASTCOL(h) is the dedicated last
///    column of MT(h) and is kept distinct-valued with the subprotocol's
///    own ucount/lcount counters.
///
/// For each newly created dependency T_j -> T_i, the column walk of
/// Algorithm 2 advances h = 1, 2, ...: at step h it resolves subprotocol
/// MT(h) on LASTCOL(h) (stopping MT(h) if the opposite order is already
/// fixed), then examines PREFIX(h) on behalf of MT(h+1..k): a determined
/// opposite order stops them all, an encodable cell records the dependency
/// for them all, and equal defined cells push the walk one column deeper.
/// The operation is accepted while at least one subprotocol remains live;
/// when all are stopped the operation is rejected (Algorithm 2 would abort
/// all active transactions and restart).
///
/// The subprotocols run with Algorithm 1's lines 9-10 crossed out, the mode
/// the paper adopts for Theorem 5; under that mode this class makes exactly
/// the same accept/stop decisions as NaiveUnionRecognizer(k, false), which
/// the differential tests assert.
class MtkPlus {
 public:
  explicit MtkPlus(size_t k);

  MtkPlus(const MtkPlus&) = delete;
  MtkPlus& operator=(const MtkPlus&) = delete;

  /// Schedules one operation.
  OpDecision Process(const Op& op);

  size_t k() const { return k_; }
  size_t live_count() const;
  bool IsLive(size_t h) const { return !stopped_[h - 1]; }  // 1-based h.

  /// MT(h)'s view of transaction t's vector: PREFIX columns 1..h-1 followed
  /// by LASTCOL(h); a TimestampVector of size h (1-based h).
  TimestampVector ViewOf(size_t h, TxnId txn);

  const MtkPlusStats& stats() const { return stats_; }

  /// Fig. 10-style dump of the PREFIX and LASTCOL tables for transactions
  /// 0..max_txn.
  std::string DumpTables(TxnId max_txn);

 private:
  struct TxnState {
    std::vector<TsElement> prefix;   // k-1 shared columns.
    std::vector<TsElement> lastcol;  // Column h-1 belongs to MT(h).
    explicit TxnState(size_t k)
        : prefix(k > 0 ? k - 1 : 0, kUndefinedElement),
          lastcol(k, kUndefinedElement) {}
  };

  struct ItemState {
    std::vector<TxnId> readers;
    std::vector<TxnId> writers;
  };

  TxnState& State(TxnId txn);
  ItemState& Item(ItemId item);

  /// Compares transactions a and b under the largest live subprotocol's
  /// view (all live subprotocols agree on every determined pair order, so
  /// the choice of view does not matter; see the class comment).
  VectorCompareResult CompareLargestView(TxnId a, TxnId b);

  /// Algorithm 2's column walk for dependency T_j -> T_i. Returns true if
  /// at least one subprotocol remains live afterwards.
  bool EncodeDependency(TxnId j, TxnId i);

  void StopSub(size_t h);             // 1-based.
  void StopSubsFrom(size_t h_first);  // Stops MT(h_first..k).

  size_t k_;
  MtkPlusStats stats_;
  std::deque<TxnState> txns_;
  std::vector<ItemState> items_;
  std::vector<bool> stopped_;       // Per subprotocol, 0-based.
  std::vector<StripedCounters> counters_;  // Per subprotocol LASTCOL.
};

}  // namespace mdts

#endif  // MDTS_COMPOSITE_MTK_PLUS_H_
