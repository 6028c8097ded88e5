#ifndef MDTS_SCHED_INTERVAL_SCHEDULER_H_
#define MDTS_SCHED_INTERVAL_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/access_history.h"
#include "sched/scheduler.h"

namespace mdts {

/// Dynamic timestamp-interval concurrency control in the style of Bayer et
/// al. [1], the related work the paper compares against in Section VI-A:
/// each transaction starts with a large time interval that is shrunk
/// explicitly whenever a dependency is discovered - to encode T_j -> T_i,
/// a point c is chosen inside the overlap of the two intervals and the
/// intervals become (lo_j, c] and (c, hi_i).
///
/// To make the comparison with MT(k) apples-to-apples, dependencies are
/// discovered with the same RT/WT item bookkeeping as MT(k) (the paper
/// notes [1] left the discovery mechanism unspecified) and the scheduler
/// skeleton mirrors Algorithm 1; only the timestamp representation and
/// shrinking rules differ. The paper's criticisms become measurable here:
/// the interval of a busy transaction shrinks from one end only, midpoint
/// splitting halves widths exponentially, and a restarted transaction
/// re-enters with the full interval.
class IntervalScheduler : public Scheduler {
 public:
  struct Options {
    /// Fraction of the overlap at which the split point is placed
    /// (0.5 = midpoint; the criteria in [1] were unspecified).
    double split_fraction = 0.5;

    /// Overlaps narrower than this cannot be split any further; the
    /// dependency is refused and the transaction aborts ("fragmentation").
    double min_split_width = 1e-9;
  };

  IntervalScheduler() : IntervalScheduler(Options()) {}
  explicit IntervalScheduler(const Options& options);

  std::string name() const override { return "Interval"; }

  SchedOutcome OnOperation(const Op& op) override;
  SchedOutcome OnCommit(TxnId txn) override;
  void OnRestart(TxnId txn) override;

  /// Current interval of a transaction.
  double lo(TxnId txn) const { return txns_[txn].lo; }
  double hi(TxnId txn) const { return txns_[txn].hi; }

  uint64_t shrinks() const { return shrinks_; }
  uint64_t fragmentation_aborts() const { return fragmentation_aborts_; }
  uint64_t order_aborts() const { return order_aborts_; }

 private:
  struct TxnState {
    double lo = 0.0;
    double hi = 0.0;
    bool started = false;
    bool aborted = false;
    uint32_t incarnation = 0;
  };

  struct ItemState {
    AccessHistory readers;  // RT(x).
    AccessHistory writers;  // WT(x).
  };

  TxnState& State(TxnId txn);
  ItemState& Item(ItemId item);

  /// The access-history probe. Commits are not tracked: an access stays
  /// live until its incarnation aborts.
  auto Probe() const {
    return [this](TxnId txn) {
      const TxnState& s = txns_[txn];
      return TxnLife<const TxnState>{&s, s.incarnation, s.aborted, false};
    };
  }

  /// True iff T_a's interval lies entirely before T_b's.
  bool Precedes(TxnId a, TxnId b);

  /// Encodes T_j -> T_i by shrinking; false if impossible.
  bool SetBefore(TxnId j, TxnId i);

  Options options_;
  std::vector<TxnState> txns_;
  std::vector<ItemState> items_;
  uint64_t shrinks_ = 0;
  uint64_t fragmentation_aborts_ = 0;
  uint64_t order_aborts_ = 0;
  /// Cause of the most recent SetBefore() == false, consumed by the abort
  /// path of OnOperation.
  AbortReason last_set_failure_ = AbortReason::kNone;
};

}  // namespace mdts

#endif  // MDTS_SCHED_INTERVAL_SCHEDULER_H_
