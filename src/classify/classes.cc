#include "classify/classes.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "classify/dependency_graph.h"

namespace mdts {

bool IsDsr(const Log& log) {
  // The conflict digraph is acyclic iff this sparser one is: per item, an
  // edge from its last writer to every later accessor, and from every
  // reader since that write to the next writer. Each edge is a conflicting
  // pair (Definition 1), and each conflicting pair is joined by a path of
  // edges through the accesses between them, so both digraphs have the
  // same reachability. Linear in the log, where DependencyGraph::FromLog
  // is quadratic.
  const TxnId n = log.num_txns();
  std::vector<std::vector<TxnId>> succ(n + 1);
  std::vector<size_t> indegree(n + 1, 0);
  auto edge = [&](TxnId a, TxnId b) {
    if (a == kVirtualTxn || a == b) return;
    succ[a].push_back(b);
    ++indegree[b];
  };
  struct ItemAccesses {
    TxnId writer = kVirtualTxn;
    std::vector<TxnId> readers;  // Since the last write.
  };
  std::vector<ItemAccesses> items(log.num_items());
  for (const Op& op : log.ops()) {
    ItemAccesses& x = items[op.item];
    edge(x.writer, op.txn);
    if (op.type == OpType::kRead) {
      x.readers.push_back(op.txn);
      continue;
    }
    for (const TxnId r : x.readers) edge(r, op.txn);
    x.readers.clear();
    x.writer = op.txn;
  }
  // Kahn's algorithm: acyclic iff every transaction gets placed.
  std::vector<TxnId> ready;
  for (TxnId t = 1; t <= n; ++t) {
    if (indegree[t] == 0) ready.push_back(t);
  }
  TxnId placed = 0;
  while (!ready.empty()) {
    const TxnId t = ready.back();
    ready.pop_back();
    ++placed;
    for (const TxnId b : succ[t]) {
      if (--indegree[b] == 0) ready.push_back(b);
    }
  }
  return placed == n;
}

std::vector<TxnId> DsrSerialOrder(const Log& log) {
  return DependencyGraph::FromLog(log).TopologicalOrder();
}

bool IsTo1ByDefinition(const Log& log) {
  // s_i = position of T_i's first operation (the paper's pi(R_i) in the
  // two-step model, where the read is always the first operation).
  const TxnId n = log.num_txns();
  std::vector<size_t> s(n + 1, static_cast<size_t>(-1));
  const auto& ops = log.ops();
  for (size_t p = 0; p < ops.size(); ++p) {
    if (s[ops[p].txn] == static_cast<size_t>(-1)) s[ops[p].txn] = p;
  }
  // Conditions i-iii (conflicts) plus iv (read-read on the same item).
  for (size_t b = 0; b < ops.size(); ++b) {
    for (size_t a = 0; a < b; ++a) {
      if (ops[a].txn == ops[b].txn || ops[a].item != ops[b].item) continue;
      // Every same-item cross-transaction pair is constrained: conditions
      // i-iii when at least one is a write, condition iv when both read.
      if (s[ops[a].txn] >= s[ops[b].txn]) return false;
    }
  }
  return true;
}

namespace {

// Identity of an operation independent of its log position: the issuing
// transaction and the operation's rank within that transaction.
struct OpRef {
  TxnId txn = 0;
  size_t nth = 0;
  friend bool operator==(const OpRef& a, const OpRef& b) {
    return a.txn == b.txn && a.nth == b.nth;
  }
  friend bool operator<(const OpRef& a, const OpRef& b) {
    return a.txn != b.txn ? a.txn < b.txn : a.nth < b.nth;
  }
};

constexpr TxnId kInitialWriter = 0;  // "Value written by the virtual T0."

// The view profile of a log: for every read (in (txn, nth) identity), the
// writer it reads from; plus the final writer of every item.
struct ViewProfile {
  std::map<OpRef, OpRef> reads_from;   // read op -> write op (or initial).
  std::map<ItemId, OpRef> final_writer;

  friend bool operator==(const ViewProfile& a, const ViewProfile& b) {
    return a.reads_from == b.reads_from && a.final_writer == b.final_writer;
  }
};

ViewProfile ComputeViewProfile(const std::vector<Op>& ops) {
  ViewProfile profile;
  std::map<ItemId, OpRef> last_writer;
  std::map<TxnId, size_t> rank;
  for (const Op& op : ops) {
    const OpRef ref{op.txn, rank[op.txn]++};
    if (op.type == OpType::kRead) {
      auto it = last_writer.find(op.item);
      profile.reads_from[ref] =
          it == last_writer.end() ? OpRef{kInitialWriter, 0} : it->second;
    } else {
      last_writer[op.item] = ref;
    }
  }
  for (const auto& [item, writer] : last_writer) {
    profile.final_writer[item] = writer;
  }
  return profile;
}

// Herbrand (symbolic) evaluation for final-state equivalence: every write
// produces an uninterpreted term f_{txn,nth}(values read so far by txn);
// equality of final item terms across logs is exact final-state
// equivalence. The intern table must be SHARED across the evaluations being
// compared: term ids are only meaningful within one evaluator instance.
class HerbrandEvaluator {
 public:
  // Returns the final item -> term mapping of the operation sequence.
  std::map<ItemId, uint64_t> Eval(const std::vector<Op>& ops) {
    std::map<ItemId, uint64_t> value;     // Item -> current term.
    std::map<TxnId, std::vector<uint64_t>> reads;  // Txn -> read history.
    std::map<TxnId, size_t> rank;
    for (const Op& op : ops) {
      const size_t nth = rank[op.txn]++;
      if (op.type == OpType::kRead) {
        reads[op.txn].push_back(ItemTerm(op.item, value));
      } else {
        std::vector<uint64_t> key;
        key.push_back(op.txn);
        key.push_back(nth);
        const auto& history = reads[op.txn];
        key.insert(key.end(), history.begin(), history.end());
        value[op.item] = Intern(key);
      }
    }
    std::map<ItemId, uint64_t> final_terms;
    for (const auto& [item, term] : value) final_terms[item] = term;
    return final_terms;
  }

 private:
  uint64_t ItemTerm(ItemId item, const std::map<ItemId, uint64_t>& value) {
    auto it = value.find(item);
    if (it != value.end()) return it->second;
    // Initial value of the item: a nullary term tagged by the item id.
    return Intern({~static_cast<uint64_t>(item)});
  }

  uint64_t Intern(const std::vector<uint64_t>& key) {
    auto [it, inserted] = table_.emplace(key, next_id_);
    if (inserted) ++next_id_;
    return it->second;
  }

  std::map<std::vector<uint64_t>, uint64_t> table_;
  uint64_t next_id_ = 1;
};

// Rearranges the log's operations serially according to the transaction
// permutation, preserving each transaction's internal operation order.
std::vector<Op> SerialArrangement(const Log& log,
                                  const std::vector<TxnId>& perm) {
  std::vector<Op> out;
  out.reserve(log.size());
  for (TxnId t : perm) {
    for (const Op& op : log.ops()) {
      if (op.txn == t) out.push_back(op);
    }
  }
  return out;
}

// Real-time precedence: result[i][j] true iff T_i's last op precedes T_j's
// first op, so any strict serialization must put T_i before T_j.
std::vector<std::vector<bool>> RealtimePrecedence(const Log& log) {
  const TxnId n = log.num_txns();
  std::vector<size_t> first(n + 1, static_cast<size_t>(-1));
  std::vector<size_t> last(n + 1, 0);
  const auto& ops = log.ops();
  for (size_t p = 0; p < ops.size(); ++p) {
    if (first[ops[p].txn] == static_cast<size_t>(-1)) first[ops[p].txn] = p;
    last[ops[p].txn] = p;
  }
  std::vector<std::vector<bool>> precedes(n + 1,
                                          std::vector<bool>(n + 1, false));
  for (TxnId i = 1; i <= n; ++i) {
    if (first[i] == static_cast<size_t>(-1)) continue;
    for (TxnId j = 1; j <= n; ++j) {
      if (i != j && first[j] != static_cast<size_t>(-1) &&
          last[i] < first[j]) {
        precedes[i][j] = true;
      }
    }
  }
  return precedes;
}

enum class Equivalence { kView, kFinalState };

Result<bool> BruteForceSerializable(const Log& log, Equivalence equivalence,
                                    bool require_realtime) {
  const TxnId n = log.num_txns();
  if (n > kMaxBruteForceTxns) {
    return Status::FailedPrecondition(
        "brute-force serializability limited to " +
        std::to_string(kMaxBruteForceTxns) + " transactions, log has " +
        std::to_string(n));
  }
  const ViewProfile log_view = ComputeViewProfile(log.ops());
  HerbrandEvaluator herbrand;  // Shared intern table for all evaluations.
  const auto log_state = herbrand.Eval(log.ops());
  const auto precedes =
      require_realtime ? RealtimePrecedence(log)
                       : std::vector<std::vector<bool>>();

  std::vector<TxnId> perm(n);
  std::iota(perm.begin(), perm.end(), 1);
  do {
    if (require_realtime) {
      bool ok = true;
      for (size_t a = 0; a < perm.size() && ok; ++a) {
        for (size_t b = a + 1; b < perm.size() && ok; ++b) {
          if (precedes[perm[b]][perm[a]]) ok = false;
        }
      }
      if (!ok) continue;
    }
    const std::vector<Op> serial = SerialArrangement(log, perm);
    if (equivalence == Equivalence::kView) {
      if (ComputeViewProfile(serial) == log_view) return true;
    } else {
      if (herbrand.Eval(serial) == log_state) return true;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

}  // namespace

Result<bool> IsViewSerializable(const Log& log) {
  return BruteForceSerializable(log, Equivalence::kView,
                                /*require_realtime=*/false);
}

Result<bool> IsFinalStateSerializable(const Log& log) {
  return BruteForceSerializable(log, Equivalence::kFinalState,
                                /*require_realtime=*/false);
}

Result<bool> IsSsr(const Log& log) {
  return BruteForceSerializable(log, Equivalence::kFinalState,
                                /*require_realtime=*/true);
}

bool IsSsrConflict(const Log& log) {
  DependencyGraph g = DependencyGraph::FromLog(log);
  g.AddRealtimeEdges(log);
  return !g.HasCycle();
}

}  // namespace mdts
