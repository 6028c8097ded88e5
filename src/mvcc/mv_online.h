#ifndef MDTS_MVCC_MV_ONLINE_H_
#define MDTS_MVCC_MV_ONLINE_H_

#include <string>

#include "mvcc/mv_scheduler.h"
#include "sched/scheduler.h"

namespace mdts {

/// Adapter of the multiversion MT(k) scheduler to the uniform online
/// Scheduler interface, for the discrete-event simulator and the
/// cross-protocol benches.
///
/// Note on auditing: multiversion histories are one-copy serializable
/// rather than conflict-serializable over the flat operation sequence
/// (reads may be served by old versions), so the simulator's single-version
/// DSR audit does not apply; use MvMtkScheduler::AuditMvsgAcyclic()
/// instead.
class MvOnline : public Scheduler {
 public:
  explicit MvOnline(const MvMtkOptions& options)
      : inner_(options), options_(options) {}

  std::string name() const override {
    return "MV-MT(" + std::to_string(options_.k) + ")";
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

  MvMtkScheduler& inner() { return inner_; }

 private:
  MvMtkScheduler inner_;
  MvMtkOptions options_;
};

}  // namespace mdts

#endif  // MDTS_MVCC_MV_ONLINE_H_
