#include "mvcc/mv_scheduler.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace mdts {

MvMtkScheduler::MvMtkScheduler(const MvMtkOptions& options)
    : options_(options), vectors_(options.k) {
  txns_.resize(1);
  txns_[0].committed = true;  // The virtual T0.
}

MvMtkScheduler::TxnState& MvMtkScheduler::State(TxnId txn) {
  if (txns_.size() <= txn) txns_.resize(txn + 1);
  return txns_[txn];
}

MvMtkScheduler::ItemState& MvMtkScheduler::Item(ItemId item) {
  if (items_.size() <= item) items_.resize(item + 1);
  ItemState& state = items_[item];
  if (state.versions.empty()) {
    state.versions.push_back(Version{kVirtualTxn, 0, {}});
  }
  return state;
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
  ItemState& item = Item(op.item);

  if (op.type == OpType::kRead) {
    ++stats_.reads;
    // Walk versions newest -> oldest; take the first whose writer can be
    // ordered before T_i. A version whose writer is already ordered after
    // T_i lies in T_i's future and is skipped; the initial T0 version can
    // always be taken, so the walk practically never fails.
    size_t live_seen = 0;
    for (size_t v = item.versions.size(); v-- > 0;) {
      Version& version = item.versions[v];
      if (!Live(version)) continue;
      ++live_seen;
      if (version.writer == i) {
        return OpDecision::kAccept;  // Reads its own pending write.
      }
      if (vectors_.Set(version.writer, i)) {
        version.readers.push_back(Access{i, state.incarnation});
        if (live_seen > 1) ++stats_.old_version_reads;
        return OpDecision::kAccept;
      }
    }
    ++stats_.read_rejects;  // Only reachable in degenerate vector states.
    state.aborted = true;
    // No single blocker: the whole chain - down to T0's version - refused.
    last_reject_ = RejectInfo{AbortReason::kEncodingExhausted, op,
                              kVirtualTxn, ops_processed_};
    return OpDecision::kReject;
  }

  ++stats_.writes;
  TxnId blocker = kVirtualTxn;  // For starvation seeding on rejection.
  auto reject_write = [&]() {
    ++stats_.write_rejects;
    state.aborted = true;
    last_reject_ = RejectInfo{AbortReason::kVersionConflict, op, blocker,
                              ops_processed_};
    if (options_.starvation_fix) vectors_.SeedAfter(i, blocker);
    return OpDecision::kReject;
  };
  // Two-phase placement. Phase 1 (no encoding): find the NEWEST feasible
  // insertion slot. Placing the new version after live slot j requires
  //  a) writer(j) not already ordered after T_i,
  //  b) T_i not already ordered after writer(j+1) (the chain handles the
  //     rest by transitivity),
  //  c) no live reader of any version up to slot j already ordered after
  //     T_i (the multiversion rule: a reader of an older version precedes
  //     the writer of every newer version).
  std::vector<size_t> live;  // Indices of live versions, oldest first.
  for (size_t v = 0; v < item.versions.size(); ++v) {
    if (Live(item.versions[v])) live.push_back(v);
  }

  auto determined = [&](TxnId a, TxnId b) {
    return vectors_.CompareIds(a, b).order;  // Order of a vs b.
  };

  // reader_after[j]: some live reader of live slot <= j is already ordered
  // after T_i (computed as a prefix property, oldest to newest).
  size_t chosen = live.size();  // Sentinel: no slot found yet.
  {
    bool blocked_by_reader = false;
    std::vector<bool> reader_block(live.size(), false);
    for (size_t lj = 0; lj < live.size(); ++lj) {
      for (const Access& r : item.versions[live[lj]].readers) {
        if (r.txn == i || !Live(r)) continue;
        if (determined(i, r.txn) == VectorOrder::kLess) {
          blocked_by_reader = true;
          blocker = r.txn;
        }
      }
      reader_block[lj] = blocked_by_reader;
    }
    for (size_t lj = live.size(); lj-- > 0;) {
      const TxnId w = item.versions[live[lj]].writer;
      if (w != i && determined(w, i) == VectorOrder::kGreater) {
        continue;  // Writer already after T_i: slot too new.
      }
      if (lj + 1 < live.size()) {
        const TxnId next = item.versions[live[lj + 1]].writer;
        if (determined(i, next) == VectorOrder::kGreater) {
          continue;  // T_i already after the next writer: inconsistent.
        }
      }
      if (reader_block[lj]) continue;  // Readers up to here block; an
                                       // older slot may still be free.
      chosen = lj;
      break;
    }
  }
  if (chosen == live.size()) {
    return reject_write();
  }

  // Phase 2: encode the chosen placement. Each Set was pre-checked as
  // not-determined-opposite, but an earlier encode can incidentally fix a
  // later pair the wrong way; bail out safely (encodings only ever add
  // constraints) in that rare case.
  auto encode_all = [&]() {
    const TxnId pred = item.versions[live[chosen]].writer;
    if (pred != i && !vectors_.Set(pred, i)) {
      blocker = pred;
      return false;
    }
    if (chosen + 1 < live.size()) {
      const TxnId next = item.versions[live[chosen + 1]].writer;
      if (!vectors_.Set(i, next)) {
        blocker = next;
        return false;
      }
    }
    for (size_t lj = 0; lj <= chosen; ++lj) {
      for (const Access& r : item.versions[live[lj]].readers) {
        if (r.txn == i || !Live(r)) continue;
        if (!vectors_.Set(r.txn, i)) {
          blocker = r.txn;
          return false;
        }
      }
    }
    return true;
  };
  if (!encode_all()) {
    return reject_write();
  }

  const size_t pos = live[chosen] + 1;
  item.versions.insert(item.versions.begin() + static_cast<long>(pos),
                       Version{i, state.incarnation, {}});
  ++stats_.versions_created;
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
  size_t live = 0;
  for (const Version& v : Item(item).versions) {
    if (Live(v)) ++live;
  }
  return live;
}

void MvMtkScheduler::PruneVersions() {
  for (ItemId x = 0; x < items_.size(); ++x) {
    ItemState& item = items_[x];
    if (item.versions.empty()) continue;
    // Drop dead versions and dead readers.
    std::vector<Version> kept;
    for (Version& v : item.versions) {
      if (!Live(v)) continue;
      v.readers.erase(
          std::remove_if(v.readers.begin(), v.readers.end(),
                         [&](const Access& r) { return !Live(r); }),
          v.readers.end());
      kept.push_back(std::move(v));
    }
    // Behind the newest committed version, committed versions with no
    // remaining readers can be reclaimed (nobody can ever need them: new
    // readers always reach a newer orderable version first).
    size_t newest_committed = kept.size();
    for (size_t v = kept.size(); v-- > 0;) {
      if (State(kept[v].writer).committed || kept[v].writer == kVirtualTxn) {
        newest_committed = v;
        break;
      }
    }
    std::vector<Version> out;
    for (size_t v = 0; v < kept.size(); ++v) {
      const bool reclaimable =
          v < newest_committed && kept[v].readers.empty() &&
          (kept[v].writer == kVirtualTxn ||
           State(kept[v].writer).committed);
      if (!reclaimable) out.push_back(std::move(kept[v]));
    }
    item.versions = std::move(out);
    if (item.versions.empty()) {
      item.versions.push_back(Version{kVirtualTxn, 0, {}});
    }
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
  auto add_edge = [&](TxnId a, TxnId b) {
    if (a != b) adj[a][b] = true;
  };
  for (ItemId x = 0; x < items_.size(); ++x) {
    std::vector<const Version*> chain;
    for (const Version& v : items_[x].versions) {
      if (Live(v) && committed(v.writer)) chain.push_back(&v);
    }
    for (size_t a = 0; a < chain.size(); ++a) {
      for (size_t b = a + 1; b < chain.size(); ++b) {
        add_edge(chain[a]->writer, chain[b]->writer);
      }
      for (const Access& r : chain[a]->readers) {
        if (!Live(r) || !committed(r.txn)) continue;
        add_edge(chain[a]->writer, r.txn);
        for (size_t b = a + 1; b < chain.size(); ++b) {
          add_edge(r.txn, chain[b]->writer);
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
  for (const Version& v : Item(item).versions) {
    if (!Live(v)) continue;
    out += " [T" + std::to_string(v.writer) + " " +
           std::string(vectors_.Ts(v.writer).ToString()) + " readers:";
    bool first = true;
    for (const Access& r : v.readers) {
      if (!Live(r)) continue;
      out += (first ? " " : ",") + std::string("T") + std::to_string(r.txn);
      first = false;
    }
    out += "]";
  }
  return out;
}

}  // namespace mdts
