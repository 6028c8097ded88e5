#include "mvcc/mv_scheduler.h"

#include <cassert>
#include <map>

namespace mdts {

MvMtkScheduler::MvMtkScheduler(const MvMtkOptions& options)
    : options_(options), vectors_(options.k, options.column_clocks) {
  txns_.resize(1);
  txns_[0].committed = true;  // The virtual T0.
}

MvMtkScheduler::TxnState& MvMtkScheduler::State(TxnId txn) {
  if (txns_.size() <= txn) txns_.resize(txn + 1);
  return txns_[txn];
}

MvChain& MvMtkScheduler::Item(ItemId item) {
  if (items_.size() <= item) items_.resize(item + 1);
  return items_[item];
}

OpDecision MvMtkScheduler::Process(const Op& op) {
  const TxnId i = op.txn;
  ++ops_processed_;
  if (i == kVirtualTxn) {
    last_reject_ =
        RejectInfo{AbortReason::kInvalidOp, op, kVirtualTxn, ops_processed_};
    return OpDecision::kReject;
  }
  TxnState& state = State(i);
  if (state.aborted || state.committed) {
    last_reject_ =
        RejectInfo{AbortReason::kStaleTxn, op, kVirtualTxn, ops_processed_};
    return OpDecision::kReject;
  }
  MvChain& chain = Item(op.item);
  chain.UnlinkDead(Probe());  // The chain decides over live entries only.
  struct Policy {
    VectorTable& vectors;
    VectorOrder Order(TxnId a, TxnId b) {
      return vectors.CompareIds(a, b).order;
    }
    bool Set(TxnId j, TxnId to, AbortReason* why) {
      return vectors.Set(j, to, why);
    }
  };
  Policy policy{vectors_};
  const Access me{i, state.incarnation};
  const bool read = op.type == OpType::kRead;
  ++(read ? stats_.reads : stats_.writes);
  const MvOutcome out = read ? chain.Read(me, policy) : chain.Write(me, policy);
  if (out.decision == OpDecision::kReject) {
    ++(read ? stats_.read_rejects : stats_.write_rejects);
    state.aborted = true;
    last_reject_ = RejectInfo{out.cause, op, out.blocker, ops_processed_};
    // A read reject has no one blocker to seed past.
    if (!read && options_.starvation_fix) vectors_.SeedAfter(i, out.blocker);
    return OpDecision::kReject;
  }
  if (out.old_version) ++stats_.old_version_reads;
  if (!read) ++stats_.versions_created;
  return OpDecision::kAccept;
}

std::string MvMtkScheduler::ExplainLastReject() {
  if (last_reject_.reason == AbortReason::kNone) return "no rejection yet";
  std::string out = FormatReject(OpName(last_reject_.op), last_reject_.reason,
                                 last_reject_.blocker);
  if (last_reject_.reason == AbortReason::kVersionConflict &&
      last_reject_.blocker != kVirtualTxn) {
    out += "; blocker vector " +
           std::string(vectors_.Ts(last_reject_.blocker).ToString());
  }
  return out;
}

void MvMtkScheduler::CommitTxn(TxnId txn) {
  TxnState& s = State(txn);
  assert(!s.aborted);
  s.committed = true;
}

void MvMtkScheduler::RestartTxn(TxnId txn) {
  TxnState& s = State(txn);
  s.aborted = false;
  s.committed = false;
  ++s.incarnation;  // Invalidates the old incarnation's versions/reads.
  // With the starvation fix the seeded vector from the abort is kept.
  if (!options_.starvation_fix) vectors_.Reset(txn);
}

bool MvMtkScheduler::IsAborted(TxnId txn) const {
  return txn < txns_.size() && txns_[txn].aborted;
}

bool MvMtkScheduler::IsCommitted(TxnId txn) const {
  return txn < txns_.size() && txns_[txn].committed;
}

size_t MvMtkScheduler::VersionCount(ItemId item) {
  MvChain& chain = Item(item);
  chain.UnlinkDead(Probe());
  return chain.size();
}

void MvMtkScheduler::PruneVersions() {
  auto committed = [probe = Probe()](const MvVersion& v) {
    return v.writer.Committed(probe(v.writer.txn));
  };
  for (MvChain& chain : items_) {
    chain.UnlinkDead(Probe());
    // Behind the newest committed version (T0's counts), committed
    // versions with no remaining readers can be reclaimed: nobody can ever
    // need them, new readers always reach a newer orderable version first.
    size_t newest_committed = chain.size() - 1;
    while (newest_committed > 0 && !committed(chain.At(newest_committed))) {
      --newest_committed;
    }
    std::vector<MvVersion> kept;
    for (size_t v = 0; v < chain.older.size(); ++v) {
      MvVersion& ver = chain.older[v];
      if (v < newest_committed && ver.readers.empty() && committed(ver)) {
        continue;
      }
      kept.push_back(std::move(ver));
    }
    chain.older = std::move(kept);
  }
}

bool MvMtkScheduler::AuditMvsgAcyclic() {
  // Build the multiversion serialization graph over committed transactions
  // plus T0, purely from the recorded version chains:
  //   writer(v_a) -> writer(v_b)   for versions a before b of one item,
  //   writer(v_a) -> r             for each committed reader r of v_a,
  //   r -> writer(v_b)             for each later version v_b.
  std::map<TxnId, std::map<TxnId, bool>> adj;
  auto committed = [&](TxnId t) {
    return t == kVirtualTxn || State(t).committed;
  };
  auto live = [probe = Probe()](const Access& a) {
    return a.Live(probe(a.txn));
  };
  auto add_edge = [&](TxnId a, TxnId b) {
    if (a != b) adj[a][b] = true;
  };
  for (const MvChain& item : items_) {
    std::vector<const MvVersion*> chain;
    for (size_t v = 0; v < item.size(); ++v) {
      const MvVersion& ver = item.At(v);
      if (live(ver.writer) && committed(ver.writer.txn)) {
        chain.push_back(&ver);
      }
    }
    for (size_t a = 0; a < chain.size(); ++a) {
      const TxnId wa = chain[a]->writer.txn;
      for (size_t b = a + 1; b < chain.size(); ++b) {
        add_edge(wa, chain[b]->writer.txn);
      }
      for (const Access& r : chain[a]->readers) {
        if (!live(r) || !committed(r.txn)) continue;
        add_edge(wa, r.txn);
        for (size_t b = a + 1; b < chain.size(); ++b) {
          add_edge(r.txn, chain[b]->writer.txn);
        }
      }
    }
  }
  // Kahn's algorithm.
  std::map<TxnId, size_t> indegree;
  for (const auto& [from, tos] : adj) {
    indegree.emplace(from, 0);
    for (const auto& [to, _] : tos) indegree.emplace(to, 0);
  }
  for (const auto& [from, tos] : adj) {
    for (const auto& [to, _] : tos) ++indegree[to];
  }
  std::vector<TxnId> ready;
  for (const auto& [node, deg] : indegree) {
    if (deg == 0) ready.push_back(node);
  }
  size_t placed = 0;
  while (!ready.empty()) {
    const TxnId n = ready.back();
    ready.pop_back();
    ++placed;
    auto it = adj.find(n);
    if (it == adj.end()) continue;
    for (const auto& [to, _] : it->second) {
      if (--indegree[to] == 0) ready.push_back(to);
    }
  }
  return placed == indegree.size();
}

std::string MvMtkScheduler::DumpVersions(ItemId item) {
  std::string out = ItemName(item) + ":";
  MvChain& chain = Item(item);
  chain.UnlinkDead(Probe());
  for (size_t v = 0; v < chain.size(); ++v) {
    const MvVersion& ver = chain.At(v);
    out += " [T" + std::to_string(ver.writer.txn) + " " +
           std::string(vectors_.Ts(ver.writer.txn).ToString()) + " readers:";
    bool first = true;
    for (const Access& r : ver.readers) {
      out += (first ? " " : ",") + std::string("T") + std::to_string(r.txn);
      first = false;
    }
    out += "]";
  }
  return out;
}

}  // namespace mdts
