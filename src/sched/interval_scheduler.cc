#include "sched/interval_scheduler.h"

#include <algorithm>
#include <limits>

namespace mdts {

namespace {
// Fresh transactions receive the interval (0, +infinity): the upper end is
// unbounded so the global frontier can advance forever, as in [1] where
// timestamps come from an unbounded domain. Fragmentation (the paper's
// criticism) still occurs locally, once a transaction's interval has been
// bounded on both sides.
constexpr double kHorizon = std::numeric_limits<double>::infinity();
}  // namespace

IntervalScheduler::IntervalScheduler(const Options& options)
    : options_(options) {
  // The virtual transaction T0 precedes everything: interval (-1, 0].
  txns_.resize(1);
  txns_[0].lo = -1.0;
  txns_[0].hi = 0.0;
  txns_[0].started = true;
}

IntervalScheduler::TxnState& IntervalScheduler::State(TxnId txn) {
  if (txns_.size() <= txn) txns_.resize(txn + 1);
  TxnState& s = txns_[txn];
  if (!s.started) {
    s.lo = 0.0;
    s.hi = kHorizon;
    s.started = true;
  }
  return s;
}

IntervalScheduler::ItemState& IntervalScheduler::Item(ItemId item) {
  if (items_.size() <= item) items_.resize(item + 1);
  return items_[item];
}

bool IntervalScheduler::Precedes(TxnId a, TxnId b) {
  return State(a).hi <= State(b).lo;
}

bool IntervalScheduler::SetBefore(TxnId j, TxnId i) {
  if (j == i) return true;
  if (Precedes(j, i)) return true;
  if (Precedes(i, j)) {
    ++order_aborts_;
    last_set_failure_ = AbortReason::kLexOrder;
    return false;
  }
  TxnState& sj = State(j);
  TxnState& si = State(i);
  const double overlap_lo = std::max(sj.lo, si.lo);
  const double overlap_hi = std::min(sj.hi, si.hi);
  double c;
  if (overlap_hi == kHorizon) {
    // Unbounded overlap: advance the frontier by a unit step.
    c = overlap_lo + 1.0;
  } else {
    const double width = overlap_hi - overlap_lo;
    if (width < options_.min_split_width) {
      // Fragmentation: the overlap is too narrow to split again.
      ++fragmentation_aborts_;
      last_set_failure_ = AbortReason::kEncodingExhausted;
      return false;
    }
    c = overlap_lo + options_.split_fraction * width;
  }
  sj.hi = c;
  si.lo = c;
  ++shrinks_;
  return true;
}

SchedOutcome IntervalScheduler::OnOperation(const Op& op) {
  const TxnId i = op.txn;
  if (i == kVirtualTxn) return RecordAbort(AbortReason::kInvalidOp);
  TxnState& state = State(i);
  if (state.aborted) return RecordAbort(AbortReason::kStaleTxn);

  ItemState& item = Item(op.item);
  const TxnId jr = item.readers.Top(Probe()).txn;
  const TxnId jw = item.writers.Top(Probe()).txn;
  const TxnId j = Precedes(jr, jw) ? jw : jr;

  auto abort = [&]() {
    // last_set_failure_ carries the cause from the SetBefore call that
    // refused the dependency (order conflict vs. fragmentation).
    state.aborted = true;
    return RecordAbort(last_set_failure_);
  };

  if (op.type == OpType::kRead) {
    if (SetBefore(j, i)) {
      item.readers.Push({i, state.incarnation});
      return SchedOutcome::kAccepted;
    }
    if (j == jr && Precedes(jw, i)) {
      return SchedOutcome::kAccepted;  // Old read past the last writer.
    }
    return abort();
  }
  if (SetBefore(j, i)) {
    item.writers.Push({i, state.incarnation});
    return SchedOutcome::kAccepted;
  }
  return abort();
}

SchedOutcome IntervalScheduler::OnCommit(TxnId) {
  return SchedOutcome::kAccepted;
}

void IntervalScheduler::OnRestart(TxnId txn) {
  TxnState& s = State(txn);
  s.aborted = false;
  ++s.incarnation;
  // As in [1], a restarted transaction re-enters with the full interval.
  s.lo = 0.0;
  s.hi = kHorizon;
}

}  // namespace mdts
