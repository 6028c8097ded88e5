#include "nested/nested_scheduler.h"

#include <cassert>

#include "common/table_printer.h"
#include "core/encoding.h"

namespace mdts {

NestedMtScheduler::NestedMtScheduler(std::vector<size_t> ks) {
  assert(!ks.empty());
  tables_.reserve(ks.size());
  for (size_t k : ks) {
    assert(k >= 1);
    tables_.emplace_back(k);
  }
  // The virtual transaction T0 lives in the virtual group 0 of every level.
  txns_.resize(1);
  txns_[0].registered = true;
  txns_[0].ancestors.assign(tables_.size() - 1, 0);
  members_.resize(tables_.size() - 1);
}

NestedMtScheduler::TxnState& NestedMtScheduler::State(TxnId txn) {
  if (txns_.size() <= txn) txns_.resize(txn + 1);
  return txns_[txn];
}

NestedMtScheduler::ItemState& NestedMtScheduler::Item(ItemId item) {
  if (items_.size() <= item) items_.resize(item + 1);
  return items_[item];
}

Status NestedMtScheduler::RegisterTxn(TxnId txn,
                                      const std::vector<GroupId>& ancestors) {
  if (txn == kVirtualTxn) {
    return Status::InvalidArgument("transaction 0 is the virtual T0");
  }
  if (ancestors.size() + 1 != tables_.size()) {
    return Status::InvalidArgument("ancestor chain must have levels()-1 ids");
  }
  for (GroupId g : ancestors) {
    if (g == 0) {
      return Status::InvalidArgument("group 0 is the virtual group");
    }
  }
  TxnState& s = State(txn);
  if (s.registered && s.ancestors != ancestors) {
    return Status::FailedPrecondition(
        "transaction group membership is static (Section V-A)");
  }
  if (!s.registered) {
    for (size_t l = 0; l < ancestors.size(); ++l) {
      ++members_[l][ancestors[l]];
    }
  }
  s.registered = true;
  s.ancestors = ancestors;
  return Status::Ok();
}

uint32_t NestedMtScheduler::EntityAt(TxnId txn, size_t level) {
  if (level == 0) return txn;
  return State(txn).ancestors[level - 1];
}

size_t NestedMtScheduler::DivergenceLevel(TxnId a, TxnId b) {
  if (a == b) return tables_.size();
  for (size_t level = tables_.size(); level-- > 1;) {
    if (EntityAt(a, level) != EntityAt(b, level)) return level;
  }
  return 0;
}

VectorCompareResult NestedMtScheduler::HierCompare(TxnId a, TxnId b) {
  const size_t level = DivergenceLevel(a, b);
  if (level == tables_.size()) return {VectorOrder::kIdentical, 0};
  return tables_[level].CompareIds(EntityAt(a, level), EntityAt(b, level));
}

bool NestedMtScheduler::HierSet(TxnId a, TxnId b) {
  const size_t level = DivergenceLevel(a, b);
  if (level == tables_.size()) return true;  // Same transaction.
  return tables_[level].Set(EntityAt(a, level), EntityAt(b, level));
}

OpDecision NestedMtScheduler::Process(const Op& op) {
  const TxnId i = op.txn;
  if (i == kVirtualTxn) return OpDecision::kReject;
  TxnState& state = State(i);
  if (state.aborted || (!state.registered && tables_.size() > 1)) {
    return OpDecision::kReject;
  }
  if (!state.registered) {
    // Single-level instance: behave like plain MT(k), no groups needed.
    state.registered = true;
    state.ancestors.clear();
  }

  // Algorithm 1 lines 5-14 with the hierarchical order: the line-9 old
  // read is safe if it is hierarchically ordered after the latest writer.
  ItemState& item = Item(op.item);
  struct Policy : PlainVariant {
    NestedMtScheduler* s;
    ItemState& item;
    Access me;
    VectorOrder Order(TxnId a, TxnId b) { return s->HierCompare(a, b).order; }
    bool Set(TxnId j, TxnId to) { return s->HierSet(j, to); }
    void PushReader() { item.readers.Push(me); }
    void PushOldReader() { item.readers.PushOld(me, s->Probe()); }
    void PushWriter() { item.writers.Push(me); }
    auto OldReaders() {
      return [this](auto&& f) {
        return item.readers.ForEachOld(
            s->Probe(), [&](const auto& r) { return f(r.txn); }, me);
      };
    }
  };
  Policy policy{{}, this, item, {i, state.incarnation}};
  const TxnId jr = item.readers.Top(Probe()).txn;
  const TxnId jw = item.writers.Top(Probe()).txn;
  const OpDecision d = Decide(op.type, jr, jw, i, policy).decision;
  if (d == OpDecision::kReject) state.aborted = true;
  return d;
}

void NestedMtScheduler::RestartTxn(TxnId txn) {
  TxnState& s = State(txn);
  assert(s.aborted);
  s.aborted = false;
  ++s.incarnation;
  tables_[0].Reset(txn);  // Fresh transaction vector.
  // A group vector persists across restarts while other members share it;
  // a group whose sole member restarts can be reset too (the paper allows
  // a restarting transaction to migrate groups, so a singleton group's
  // identity is effectively the transaction's own).
  for (size_t l = 0; l < s.ancestors.size(); ++l) {
    const GroupId g = s.ancestors[l];
    auto it = members_[l].find(g);
    if (it != members_[l].end() && it->second == 1) {
      tables_[l + 1].Reset(g);
    }
  }
}

bool NestedMtScheduler::IsAborted(TxnId txn) const {
  return txn < txns_.size() && txns_[txn].aborted;
}

std::string NestedMtScheduler::DumpTables(TxnId max_txn) {
  std::string out;
  {
    TablePrinter table({"txn", "groups", "TS"});
    for (TxnId t = 0; t <= max_txn; ++t) {
      std::string chain;
      for (GroupId g : State(t).ancestors) {
        if (!chain.empty()) chain += "/";
        chain += "G" + std::to_string(g);
      }
      table.AddRow({"T" + std::to_string(t), chain,
                    std::string(tables_[0].Ts(t).ToString())});
    }
    out += "Transaction timestamps:\n" + table.ToString();
  }
  for (size_t level = 1; level < tables_.size(); ++level) {
    GroupId max_group = 0;
    for (TxnId t = 0; t <= max_txn && t < txns_.size(); ++t) {
      if (txns_[t].registered && !txns_[t].ancestors.empty()) {
        max_group = std::max(max_group, txns_[t].ancestors[level - 1]);
      }
    }
    TablePrinter table({"group", "GS"});
    for (GroupId g = 0; g <= max_group; ++g) {
      table.AddRow({"G" + std::to_string(g),
                    std::string(tables_[level].Ts(g).ToString())});
    }
    out += "Level-" + std::to_string(level) + " group timestamps:\n" +
           table.ToString();
  }
  return out;
}

}  // namespace mdts
