#ifndef MDTS_MVCC_MV_SCHEDULER_H_
#define MDTS_MVCC_MV_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/access_history.h"
#include "core/mtk_scheduler.h"
#include "core/types.h"
#include "core/vector_table.h"
#include "core/version_chain.h"

namespace mdts {

/// Options for the multiversion MT(k) scheduler.
struct MvMtkOptions {
  size_t k = 3;

  /// Section III-D-4 seeding applied to write rejections: the aborted
  /// writer restarts with its first element just past the blocking
  /// reader's, so its retry is ordered after the reader population that
  /// blocked it. Strongly recommended online: without it, continuously
  /// arriving readers (whose vectors keep floating later) can starve
  /// writers indefinitely - the multiversion analogue of MVTO's
  /// write-rejection weakness.
  bool starvation_fix = false;

  /// Per-column Lamport clocks for every column but the last (see
  /// MtkOptions::column_clocks): the rule the engine's multiversion mode
  /// runs. Off by default.
  bool column_clocks = false;
};

/// Work counters of the multiversion scheduler.
struct MvMtkStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_rejects = 0;   // Practically impossible; see class comment.
  uint64_t write_rejects = 0;
  uint64_t versions_created = 0;
  uint64_t old_version_reads = 0;  // Reads served by a non-latest version.
};

/// Multiversion MT(k): the extension the paper sketches in Section
/// III-D-6d ("Reed proposed a multiple version concurrency control
/// mechanism using single-valued timestamps. The idea can be extended to
/// timestamp vectors").
///
/// Every write creates a new version of the item; each item is one
/// MvChain (core/version_chain.h), which holds the read walk and the
/// two-phase write placement this scheduler shares with the sharded
/// engine's multiversion mode. A read takes the newest version whose writer
/// can be ordered before T_i, so reads essentially never abort - the
/// multiversion payoff - while the vector order keeps the choice as late as
/// single-version MT(k) would. A write is placed after the newest version
/// it can follow, or rejected when a reader of an older version is already
/// ordered after T_i (a reader of an older version precedes the writer of
/// any newer version).
///
/// Soundness: every reads-from and version-order MVSG edge is encoded in
/// the vector partial order at creation, so the MVSG is acyclic and the
/// committed multiversion history is one-copy serializable.
/// AuditMvsgAcyclic() re-checks this claim independently, from the
/// recorded reads-from/version-order data alone.
class MvMtkScheduler {
 public:
  explicit MvMtkScheduler(const MvMtkOptions& options);

  MvMtkScheduler(const MvMtkScheduler&) = delete;
  MvMtkScheduler& operator=(const MvMtkScheduler&) = delete;

  /// Schedules one operation. Reads return kAccept unless the (corner-case)
  /// fallback fails; writes may return kReject, aborting the transaction.
  OpDecision Process(const Op& op);

  void CommitTxn(TxnId txn);
  void RestartTxn(TxnId txn);
  bool IsAborted(TxnId txn) const;
  bool IsCommitted(TxnId txn) const;

  const TimestampVector& Ts(TxnId txn) { return vectors_.Ts(txn); }

  /// Number of live versions of the item (including T0's initial one).
  size_t VersionCount(ItemId item);

  /// Drops dead versions and, behind the newest committed version, every
  /// older committed version with no live readers (storage reclamation in
  /// the spirit of Section III-D-6b).
  void PruneVersions();

  /// Independent audit: builds the multiversion serialization graph of the
  /// committed transactions (reads-from edges, writer version-order edges,
  /// reader-before-later-writer edges) and checks it is acyclic.
  bool AuditMvsgAcyclic();

  const MvMtkStats& stats() const { return stats_; }

  /// The transaction that caused the most recent rejection: for a write,
  /// the reader or writer whose already-fixed order made every insertion
  /// slot infeasible; kVirtualTxn when no single transaction is to blame
  /// (read-walk failure, stale/invalid submissions, or a phase-1 refusal
  /// on writer order alone).
  TxnId LastBlocker() const { return last_reject_.blocker; }

  /// Classified cause, operation and blocker of the most recent rejection.
  const RejectInfo& last_reject() const { return last_reject_; }

  /// Human-readable one-liner for the most recent rejection. MV-era
  /// kVersionConflict rejections with a concrete blocker also render the
  /// blocking transaction's current timestamp vector, e.g.
  ///   "W3[x7] rejected: version_conflict (...; blocker T2);
  ///    blocker vector <2,*,*>".
  /// (Non-const: rendering the vector goes through the auto-creating
  /// VectorTable accessor.)
  std::string ExplainLastReject();

  /// Number of operations handed to Process so far.
  uint64_t operations_processed() const { return ops_processed_; }

  /// Human-readable dump of an item's version chain.
  std::string DumpVersions(ItemId item);

 private:
  struct TxnState {
    uint32_t incarnation = 0;
    bool aborted = false;
    bool committed = false;
  };

  TxnState& State(TxnId txn);
  MvChain& Item(ItemId item);
  /// This scheduler's liveness probe (see TxnLife).
  auto Probe() {
    return [this](TxnId txn) {
      const TxnState& s = State(txn);
      return TxnLife<const TxnState>{&s, s.incarnation, s.aborted,
                                     s.committed};
    };
  }

  MvMtkOptions options_;
  MvMtkStats stats_;
  RejectInfo last_reject_;
  uint64_t ops_processed_ = 0;
  VectorTable vectors_;
  std::vector<TxnState> txns_;
  std::vector<MvChain> items_;
};

}  // namespace mdts

#endif  // MDTS_MVCC_MV_SCHEDULER_H_
