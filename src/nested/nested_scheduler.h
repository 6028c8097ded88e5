#ifndef MDTS_NESTED_NESTED_SCHEDULER_H_
#define MDTS_NESTED_NESTED_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/access_history.h"
#include "core/mtk_scheduler.h"
#include "core/types.h"
#include "core/vector_table.h"

namespace mdts {

/// Group identifier at some hierarchy level. Group 0 at every level is the
/// virtual group containing only the virtual transaction T0.
using GroupId = uint32_t;

/// The protocol MT(k1, k2, ..., kl) for nested-transaction and grouped
/// models (paper Section V-A, Fig. 11).
///
/// Transactions are partitioned into mutually disjoint groups, and groups
/// into supergroups, for any number of levels. Serializability is assured
/// per level: a dependency between transactions in different (super)groups
/// is encoded exclusively in the timestamp vectors of the topmost level
/// where the two ancestor chains diverge, using the MT(k) machinery of that
/// level; dependencies within the same group use the transaction-level
/// vectors. Inter-group dependency is therefore antisymmetric: once
/// G1 -> G2 is encoded, any operation implying G2 -> G1 is rejected.
///
/// Level numbering: level 0 = transactions with vectors of size ks[0]
/// (the paper's k1); level 1 = groups with size ks[1] (the paper's k2);
/// higher levels generalize to supergroups.
class NestedMtScheduler {
 public:
  /// ks[0] is the transaction-level vector size; each further entry adds a
  /// grouping level. ks must not be empty and all entries must be >= 1.
  explicit NestedMtScheduler(std::vector<size_t> ks);

  /// Declares a transaction's ancestor chain: ancestors[l] is its group id
  /// at level l+1. The chain length must be levels()-1. Transactions must
  /// be registered before their first operation, and the membership is
  /// static (the paper: a transaction may not migrate during execution).
  Status RegisterTxn(TxnId txn, const std::vector<GroupId>& ancestors);

  /// Number of levels (1 = plain MT(k)).
  size_t levels() const { return tables_.size(); }

  /// Runs the two-level scheduler on one operation. Operations of
  /// unregistered transactions (when levels() > 1) are rejected.
  OpDecision Process(const Op& op);

  void RestartTxn(TxnId txn);
  bool IsAborted(TxnId txn) const;

  /// Transaction-level vector TS(i).
  const TimestampVector& TxnTs(TxnId txn) { return tables_[0].Ts(txn); }

  /// Group vector GS at the given level (level >= 1).
  const TimestampVector& GroupTs(size_t level, GroupId group) {
    return tables_[level].Ts(group);
  }

  /// Fig. 11-style dump: transaction table plus one group table per level.
  std::string DumpTables(TxnId max_txn);

 private:
  struct TxnState {
    std::vector<GroupId> ancestors;  // ancestors[l-1] = group at level l.
    bool registered = false;
    bool aborted = false;
    uint32_t incarnation = 0;
  };

  struct ItemState {
    ReadHistory readers;    // RT(x) and line 10's old readers.
    AccessHistory writers;  // WT(x).
  };

  TxnState& State(TxnId txn);
  ItemState& Item(ItemId item);

  /// The access-history probe. Transactions never commit here.
  auto Probe() const {
    return [this](TxnId txn) {
      const TxnState& s = txns_[txn];
      return TxnLife<const TxnState>{&s, s.incarnation, s.aborted, false};
    };
  }

  /// Entity id of the transaction at a level (the txn itself at level 0).
  uint32_t EntityAt(TxnId txn, size_t level);

  /// Topmost level at which the two transactions' entities differ;
  /// levels() if they are the same transaction.
  size_t DivergenceLevel(TxnId a, TxnId b);

  /// Hierarchical comparison: the Definition-6 order of the two
  /// transactions' entities at their divergence level.
  VectorCompareResult HierCompare(TxnId a, TxnId b);

  /// Hierarchical Set: encodes the dependency a -> b at the divergence
  /// level; returns false if the opposite order is fixed there.
  bool HierSet(TxnId a, TxnId b);

  std::vector<VectorTable> tables_;  // tables_[0] = transactions.
  std::vector<TxnState> txns_;
  std::vector<ItemState> items_;
  // members_[l-1][g]: registered transactions in group g of level l.
  std::vector<std::map<GroupId, int>> members_;
};

}  // namespace mdts

#endif  // MDTS_NESTED_NESTED_SCHEDULER_H_
