#ifndef MDTS_SCHED_MTK_ONLINE_H_
#define MDTS_SCHED_MTK_ONLINE_H_

#include <string>

#include "core/mtk_scheduler.h"
#include "sched/scheduler.h"

namespace mdts {

/// Online adapter of the MT(k) protocol to the uniform Scheduler interface:
/// immediate per-operation validation, aborts on rejection, restart with a
/// fresh (or starvation-seeded) vector.
class MtkOnline : public Scheduler {
 public:
  explicit MtkOnline(const MtkOptions& options)
      : inner_(options), options_(options) {}

  std::string name() const override {
    std::string n = "MT(" + std::to_string(options_.k) + ")";
    if (options_.starvation_fix) n += "+fix";
    if (options_.thomas_write_rule) n += "+thomas";
    if (options_.optimized_encoding) n += "+opt";
    return n;
  }

  SchedOutcome OnOperation(const Op& op) override {
    switch (inner_.Process(op)) {
      case OpDecision::kAccept:
        return SchedOutcome::kAccepted;
      case OpDecision::kIgnore:
        return SchedOutcome::kIgnored;
      case OpDecision::kReject:
        return RecordAbort(inner_.last_reject().reason);
    }
    return RecordAbort(AbortReason::kInvalidOp);
  }

  SchedOutcome OnCommit(TxnId txn) override {
    inner_.CommitTxn(txn);
    return SchedOutcome::kAccepted;
  }

  void OnRestart(TxnId txn) override { inner_.RestartTxn(txn); }

  MtkScheduler& inner() { return inner_; }

 private:
  MtkScheduler inner_;
  MtkOptions options_;
};

}  // namespace mdts

#endif  // MDTS_SCHED_MTK_ONLINE_H_
