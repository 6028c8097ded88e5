#ifndef MDTS_CORE_MTK_SCHEDULER_H_
#define MDTS_CORE_MTK_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/access_history.h"
#include "core/encoding.h"
#include "core/timestamp_vector.h"
#include "core/types.h"
#include "obs/abort_reason.h"

namespace mdts {

/// Configuration of the MT(k) protocol (Algorithm 1) and its paper-described
/// variations.
struct MtkOptions {
  /// Timestamp vector size k >= 1. Theorem 3: k = 2q-1 suffices when every
  /// transaction has at most q operations.
  size_t k = 3;

  /// Section III-D-4: on rejection caused by TS(i) < TS(j), flush TS(i) and
  /// seed its first element to TS(j,1)+1 so that the restarted incarnation
  /// is ordered after T_j and cannot starve.
  bool starvation_fix = false;

  /// Section III-D-6c: if a rejected write satisfies
  /// TS(RT(x)) < TS(i) < TS(WT(x)), ignore the write instead of aborting.
  bool thomas_write_rule = false;

  /// The variation noted after Theorem 3: at Algorithm 1 line 9, use
  /// Set(WT(x), i) instead of the pure test TS(WT(x)) < TS(i), allowing
  /// higher concurrency (at the cost of Observations ii-iv no longer
  /// holding, so Theorem 3's bound k = 2q-1 is no longer guaranteed).
  bool relaxed_read_path = false;

  /// Section IV's simplification for Theorem 5: cross out lines 9-10
  /// entirely, so a read is accepted only through Set(j, i). The composite
  /// protocol MT(k+) runs its subprotocols in this mode, which keeps their
  /// RT(x)/WT(x) indices synchronized.
  bool disable_old_read_path = false;

  /// Section III-D-5: when a dependency is created through a frequently
  /// accessed item, encode it near the right end of the vectors (copying the
  /// prefix of the defined vector) instead of at the leftmost free element,
  /// to avoid building a total order through hot items.
  bool optimized_encoding = false;

  /// An item is "hot" for optimized encoding once it has been accessed this
  /// many times.
  size_t hot_item_threshold = 8;

  /// Record every dependency encoding (which operation fixed which pair
  /// order) so rejections can be explained; see core/explain.h. Off by
  /// default: it costs memory proportional to the number of operations.
  bool record_encodings = false;

  /// If > 0, CompactCommitted() runs automatically after every this many
  /// commits, so a long-running scheduler's memory stays bounded by live
  /// transactions instead of total history. It changes no decision (see
  /// AccessHistory::Compact). Leave 0 for recognizer-style use, where every
  /// transaction's final vector must stay inspectable.
  uint64_t compact_every = 0;

  /// Draw the elements of every column but the last from per-column
  /// Lamport clocks (ColumnClocks, core/encoding.h) instead of line 20's
  /// TS(j, m) + 1 - the rule ShardedMtkEngine always runs. An extension,
  /// not the paper's rule: a strictly serial history no longer aborts at
  /// k >= 2, and the accepted class is no longer TO(k). Off by default, so
  /// the worked examples and the recognizer keep the paper's decisions.
  bool column_clocks = false;
};

/// One recorded dependency encoding: processing `op` (the `position`-th
/// operation handed to the scheduler) fixed the order TS(from) < TS(to).
struct EncodingEvent {
  TxnId from = 0;
  TxnId to = 0;
  Op op;
  uint64_t position = 0;
};

/// Counters describing the work performed by a scheduler instance; used by
/// the complexity benchmarks (Section III-D-3's O(nqk) bound).
struct MtkStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t ignored_writes = 0;
  /// Per-reason breakdown of `rejected`; reject_reasons.total() == rejected.
  AbortReasonCounts reject_reasons;
  uint64_t set_calls = 0;
  uint64_t elements_assigned = 0;
  /// Element-level comparison steps spent inside Compare().
  uint64_t element_comparisons = 0;
  /// Committed-transaction states reclaimed by CompactCommitted().
  uint64_t txns_released = 0;
};

/// Everything known about the most recent kReject returned by
/// MtkScheduler::Process: the classified cause, the operation that was
/// refused, the blocking transaction (kVirtualTxn when no specific blocker
/// exists, e.g. an operation from an already-aborted transaction), and the
/// 1-based position of the operation in the Process stream.
struct RejectInfo {
  AbortReason reason = AbortReason::kNone;
  Op op;
  TxnId blocker = kVirtualTxn;
  uint64_t position = 0;
};

/// The MT(k) scheduler of Section III-A (Algorithm 1).
///
/// Every transaction T_i owns a timestamp vector TS(i) whose elements are
/// assigned lazily: each operation that establishes a new dependency
/// T_j -> T_i is encoded by making TS(j) < TS(i) through the procedure Set.
/// The virtual transaction T0 (id 0) initially holds the read and write
/// timestamps of every item.
///
/// The scheduler supports two usage styles:
///  * Recognizer style: feed the operations of a fixed log in order; the log
///    is in class TO(k) iff every operation returns kAccept (see
///    recognizer.h).
///  * Online style: interleave Process with CommitTxn / RestartTxn; aborted
///    transactions have their item-table entries withdrawn so a restarted
///    incarnation re-executes from scratch.
class MtkScheduler {
 public:
  explicit MtkScheduler(const MtkOptions& options);

  MtkScheduler(const MtkScheduler&) = delete;
  MtkScheduler& operator=(const MtkScheduler&) = delete;
  MtkScheduler(MtkScheduler&&) = default;
  MtkScheduler& operator=(MtkScheduler&&) = default;

  /// Runs Algorithm 1's Scheduler procedure on one operation. Operations
  /// from a transaction currently marked aborted are rejected outright.
  OpDecision Process(const Op& op);

  /// Marks the transaction committed. Its item-table entries remain (they
  /// carry the most recent read/write timestamps), but its vector can be
  /// reclaimed once it stops being any item's most recent accessor.
  void CommitTxn(TxnId txn);

  /// Starts a fresh incarnation of an aborted transaction. The previous
  /// incarnation's item accesses are withdrawn. With the starvation fix the
  /// vector keeps its seeded first element; otherwise it is reset to fully
  /// undefined.
  void RestartTxn(TxnId txn);

  bool IsAborted(TxnId txn) const;
  bool IsCommitted(TxnId txn) const;

  /// The transaction that caused the most recent rejection (the T_j with
  /// TS(i) < TS(j)); kVirtualTxn if no rejection has happened.
  TxnId LastBlocker() const { return last_reject_.blocker; }

  /// Classified cause, operation and blocker of the most recent rejection.
  const RejectInfo& last_reject() const { return last_reject_; }

  /// Human-readable one-liner for the most recent rejection, e.g.
  /// "W3[x7] rejected: lex_order (...; blocker T2)".
  std::string ExplainLastReject() const;

  /// Recorded dependency encodings (empty unless options.record_encodings).
  const std::vector<EncodingEvent>& encodings() const { return encodings_; }

  /// Number of operations handed to Process so far.
  uint64_t operations_processed() const { return ops_processed_; }

  /// Current timestamp vector of a transaction (auto-creating it).
  const TimestampVector& Ts(TxnId txn);

  /// Most recent live reader / writer of an item (RT(x), WT(x)); the virtual
  /// transaction if the item is untouched.
  TxnId Rt(ItemId item);
  TxnId Wt(ItemId item);

  const MtkOptions& options() const { return options_; }
  const MtkStats& stats() const { return stats_; }

  /// Storage reclamation of Section III-D-6a/b on every item's RT and WT
  /// stacks: drops the dead entries and every entry below the newest
  /// committed one (AccessHistory::Compact). Each stack keeps at most one
  /// committed entry plus the live uncommitted ones, so no later decision
  /// changes.
  void CompactItemHistories();

  /// Full storage reclamation: compacts the item histories, then releases
  /// the state (vector included) of every committed transaction below the
  /// smallest id still referenced by an item or still live. Released ids
  /// must never be passed to Process/Ts/SerializationOrder again (IsAborted
  /// and IsCommitted keep answering correctly); do not mix with
  /// record_encodings, whose explain path replays arbitrary old ids.
  /// Returns the number of transaction states released.
  size_t CompactCommitted();

  /// Transaction states currently held (virtual T0 included): the quantity
  /// CompactCommitted() bounds.
  size_t live_txn_states() const { return txns_.size() + 1; }

  /// Smallest non-virtual id still stored (1 until the first compaction).
  TxnId base_txn_id() const { return base_; }

  /// Topologically sorts the given transactions under the determined vector
  /// order (Definition 6): the serializability order the protocol enforces.
  /// Unordered pairs keep their relative input order where possible.
  std::vector<TxnId> SerializationOrder(std::vector<TxnId> txns);

  /// Fig. 2-style dump of the timestamp table for transactions 0..max_txn.
  std::string DumpTable(TxnId max_txn);

 private:
  struct TxnState {
    TimestampVector ts;
    uint32_t incarnation = 0;
    bool aborted = false;
    bool committed = false;
    explicit TxnState(size_t k) : ts(k) {}
  };

  struct ItemState {
    ReadHistory readers;        // RT(x) and line 10's old readers.
    AccessHistory writers;      // WT(x).
    uint64_t access_count = 0;  // For hot-item detection (III-D-5).
  };

  /// A resolved accessor: its id plus a pointer to its state, so each
  /// transaction's deque slot is located once per operation (deque
  /// references are stable across growth).
  using Ref = LiveRef<TxnState>;

  TxnState& State(TxnId txn);
  ItemState& Item(ItemId item);

  /// The access-history probe: what State(txn) says about liveness.
  auto Probe() {
    return [this](TxnId txn) {
      TxnState& s = State(txn);
      return TxnLife<TxnState>{&s, s.incarnation, s.aborted, s.committed};
    };
  }

  /// Algorithm 1's Set(j, i): ensure TS(j) < TS(i), encoding a new
  /// dependency if the order is not determined yet. Returns false iff the
  /// opposite order TS(j) > TS(i) already holds (or the vectors are
  /// exhausted), in which case the operation must be rejected. `right_end`
  /// selects the Section III-D-5 layout (optimized encoding, hot item).
  bool SetStates(TxnState& sj, TxnState& si, TxnId j, TxnId i, bool right_end);

  void RecordEncoding(TxnId from, TxnId to);

  VectorCompareResult CompareStates(const TxnState& a, const TxnState& b);

  MtkOptions options_;
  MtkStats stats_;
  // The virtual T0 lives outside the compactable range: an empty access
  // history resolves to it forever, so it can never be released.
  TxnState t0_;
  // Deque of states for ids [base_, base_ + size()): State() hands out
  // references that must survive later growth, and CompactCommitted pops
  // finished front entries to keep memory bounded by live transactions.
  std::deque<TxnState> txns_;
  TxnId base_ = 1;
  uint64_t commits_since_compact_ = 0;
  std::vector<ItemState> items_;
  StripedCounters counters_;  // lcount/ucount for k-th elements.
  ColumnClocks clocks_;       // Used only with options_.column_clocks.
  RejectInfo last_reject_;
  // Cause of the most recent SetStates() == false, consumed by the reject
  // paths of Process: kGreater -> kLexOrder, kIdentical -> kEncodingExhausted.
  AbortReason set_failure_ = AbortReason::kNone;
  std::vector<EncodingEvent> encodings_;
  uint64_t ops_processed_ = 0;
  Op current_op_;  // The operation Process is currently handling.
};

}  // namespace mdts

#endif  // MDTS_CORE_MTK_SCHEDULER_H_
