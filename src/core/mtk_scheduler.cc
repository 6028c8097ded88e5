#include "core/mtk_scheduler.h"

#include <algorithm>
#include <cassert>

#include "common/table_printer.h"
#include "core/encoding.h"

namespace mdts {

const char* OpDecisionName(OpDecision d) {
  switch (d) {
    case OpDecision::kAccept:
      return "ACCEPT";
    case OpDecision::kReject:
      return "REJECT";
    case OpDecision::kIgnore:
      return "IGNORE";
  }
  return "?";
}

MtkScheduler::MtkScheduler(const MtkOptions& options)
    : options_(options), t0_(options.k), clocks_(options.k) {
  assert(options_.k >= 1);
  // Line 2 of Algorithm 1: the virtual transaction T0, which conceptually
  // read and wrote every item first, starts with TS(0) = <0, *, ..., *> and
  // is permanently committed. Lines 3-4: RT(x) = WT(x) = 0 is realized by
  // AccessHistory::Top falling back to kVirtualTxn; counters_ starts
  // lcount/ucount at 0 / 1.
  t0_.ts = TimestampVector::Virtual(options_.k);
  t0_.committed = true;
}

MtkScheduler::TxnState& MtkScheduler::State(TxnId txn) {
  if (txn >= base_) {  // Hot path: a non-released real transaction.
    while (base_ + txns_.size() <= txn) txns_.emplace_back(options_.k);
    return txns_[txn - base_];
  }
  assert(txn == kVirtualTxn && "access to a compacted (released) txn");
  return t0_;  // T0; also the defensive answer for released ids.
}

MtkScheduler::ItemState& MtkScheduler::Item(ItemId item) {
  if (items_.size() <= item) items_.resize(item + 1);
  return items_[item];
}

VectorCompareResult MtkScheduler::CompareStates(const TxnState& a,
                                                const TxnState& b) {
  const VectorCompareResult r = Compare(a.ts, b.ts);
  stats_.element_comparisons += r.index + 1;
  return r;
}

void MtkScheduler::RecordEncoding(TxnId from, TxnId to) {
  if (options_.record_encodings) {
    encodings_.push_back(EncodingEvent{from, to, current_op_, ops_processed_});
  }
}

bool MtkScheduler::SetStates(TxnState& sj, TxnState& si, TxnId j, TxnId i,
                             bool right_end) {
  if (j == i) return true;  // Line 15.
  ++stats_.set_calls;
  const VectorCompareResult cr = CompareStates(sj, si);
  const EncodeOutcome out = EncodeDependency(
      cr, options_.k, sj.ts, si.ts, j == kVirtualTxn, right_end, counters_,
      options_.column_clocks ? &clocks_ : nullptr);
  stats_.elements_assigned += out.elements_assigned;
  if (!out.ok) {
    set_failure_ = out.why;
    return false;
  }
  if (out.encoded) RecordEncoding(j, i);
  return true;
}

OpDecision MtkScheduler::Process(const Op& op) {
  ++ops_processed_;
  current_op_ = op;
  const TxnId i = op.txn;
  auto refuse = [&](AbortReason reason, TxnId blocker) {
    last_reject_ = RejectInfo{reason, op, blocker, ops_processed_};
    ++stats_.rejected;
    stats_.reject_reasons.Add(reason);
    return OpDecision::kReject;
  };
  if (i == kVirtualTxn) {
    // T0 is virtual; it issues no operations.
    return refuse(AbortReason::kInvalidOp, kVirtualTxn);
  }
  TxnState& state = State(i);
  if (state.aborted || state.committed) {
    return refuse(AbortReason::kStaleTxn, kVirtualTxn);
  }
  ItemState& item = Item(op.item);
  const bool right_end = options_.optimized_encoding &&
                         item.access_count >= options_.hot_item_threshold;
  ++item.access_count;

  struct Policy {
    MtkScheduler* s;
    ItemState& item;
    Access me;
    bool right_end;
    bool old_read_path, relaxed_line9, thomas_rule;
    VectorOrder Order(const Ref& a, const Ref& b) {
      return s->CompareStates(*a.state, *b.state).order;
    }
    bool Set(const Ref& j, const Ref& to) {
      return s->SetStates(*j.state, *to.state, j.txn, to.txn, right_end);
    }
    void PushReader() { item.readers.Push(me); }
    void PushOldReader() { item.readers.PushOld(me, s->Probe()); }
    void PushWriter() { item.writers.Push(me); }
    auto OldReaders() {
      return [this](auto&& f) {
        return item.readers.ForEachOld(s->Probe(), f, me);
      };
    }
  };
  Policy policy{this, item, {i, state.incarnation}, right_end,
                !options_.disable_old_read_path, options_.relaxed_read_path,
                options_.thomas_write_rule};
  // All states are resolved to pointers once here; everything below works
  // on them.
  const Ref jr = item.readers.Top(Probe());
  const Ref jw = item.writers.Top(Probe());
  const auto d = Decide(op.type, jr, jw, Ref{i, &state}, policy);
  switch (d.decision) {
    case OpDecision::kAccept:
      ++stats_.accepted;
      break;
    case OpDecision::kIgnore:
      ++stats_.ignored_writes;
      break;
    case OpDecision::kReject:
      // set_failure_ carries the cause recorded by the SetStates call that
      // refused the dependency (kLexOrder or kEncodingExhausted).
      state.aborted = true;
      if (options_.starvation_fix) SeedAfter(state.ts, d.j.state->ts);
      return refuse(set_failure_, d.j.txn);
  }
  return d.decision;
}

std::string MtkScheduler::ExplainLastReject() const {
  if (last_reject_.reason == AbortReason::kNone) return "no rejection yet";
  return FormatReject(OpName(last_reject_.op), last_reject_.reason,
                      last_reject_.blocker);
}

void MtkScheduler::CommitTxn(TxnId txn) {
  TxnState& s = State(txn);
  assert(!s.aborted);
  s.committed = true;
  if (options_.compact_every > 0 &&
      ++commits_since_compact_ >= options_.compact_every) {
    commits_since_compact_ = 0;
    CompactCommitted();
  }
}

void MtkScheduler::RestartTxn(TxnId txn) {
  TxnState& s = State(txn);
  assert(s.aborted);
  s.aborted = false;
  s.committed = false;
  ++s.incarnation;  // Invalidates the previous incarnation's item accesses.
  if (!options_.starvation_fix) {
    s.ts.Reset();  // Fresh, fully undefined vector.
  }
  // With the fix the seeded vector from SeedAfter is kept.
}

bool MtkScheduler::IsAborted(TxnId txn) const {
  if (txn < base_) return false;  // T0 and released (committed) txns.
  const size_t idx = txn - base_;
  return idx < txns_.size() && txns_[idx].aborted;
}

bool MtkScheduler::IsCommitted(TxnId txn) const {
  if (txn == kVirtualTxn) return t0_.committed;
  if (txn < base_) return true;  // Only committed states are released.
  const size_t idx = txn - base_;
  return idx < txns_.size() && txns_[idx].committed;
}

const TimestampVector& MtkScheduler::Ts(TxnId txn) { return State(txn).ts; }

TxnId MtkScheduler::Rt(ItemId item) {
  return Item(item).readers.Top(Probe()).txn;
}

TxnId MtkScheduler::Wt(ItemId item) {
  return Item(item).writers.Top(Probe()).txn;
}

void MtkScheduler::CompactItemHistories() {
  for (ItemState& item : items_) {
    item.readers.Compact(Probe());
    item.writers.Compact(Probe());
  }
}

size_t MtkScheduler::CompactCommitted() {
  CompactItemHistories();
  // Everything below the smallest id still referenced by an item history
  // (or still live at the front of the deque) is unreachable: no Top can
  // surface it again, so neither Process nor Set will compare against its
  // vector.
  TxnId min_referenced = static_cast<TxnId>(base_ + txns_.size());
  auto note = [&](const Access& a) {
    min_referenced = std::min(min_referenced, a.txn);
  };
  for (const ItemState& item : items_) {
    item.readers.ForEach(note);
    item.writers.ForEach(note);
  }
  size_t released = 0;
  while (!txns_.empty() && base_ < min_referenced &&
         txns_.front().committed) {
    txns_.pop_front();
    ++base_;
    ++released;
  }
  stats_.txns_released += released;
  return released;
}

std::vector<TxnId> MtkScheduler::SerializationOrder(std::vector<TxnId> txns) {
  // Kahn's algorithm over the determined (Definition 6) order; stable with
  // respect to the input order among unordered transactions. The relation is
  // a strict partial order by Lemmas 1 and 2, so the sort always completes.
  const size_t n = txns.size();
  std::vector<TxnId> out;
  out.reserve(n);
  std::vector<bool> placed(n, false);
  for (size_t round = 0; round < n; ++round) {
    size_t pick = n;
    for (size_t c = 0; c < n && pick == n; ++c) {
      if (placed[c]) continue;
      bool minimal = true;
      for (size_t d = 0; d < n && minimal; ++d) {
        if (d == c || placed[d]) continue;
        if (VectorLess(State(txns[d]).ts, State(txns[c]).ts)) minimal = false;
      }
      if (minimal) pick = c;
    }
    assert(pick < n && "determined order must be acyclic (Lemmas 1-2)");
    if (pick == n) {  // Defensive fallback in release builds.
      for (size_t c = 0; c < n; ++c) {
        if (!placed[c]) {
          pick = c;
          break;
        }
      }
    }
    placed[pick] = true;
    out.push_back(txns[pick]);
  }
  return out;
}

std::string MtkScheduler::DumpTable(TxnId max_txn) {
  std::vector<std::string> header = {"txn", "TS", "state"};
  TablePrinter table(header);
  for (TxnId t = 0; t <= max_txn; ++t) {
    if (t != kVirtualTxn && t < base_) {
      table.AddRow({"T" + std::to_string(t), "(released)", "committed"});
      continue;
    }
    const TxnState& s = State(t);
    std::string st = t == kVirtualTxn ? "virtual"
                     : s.aborted      ? "aborted"
                     : s.committed    ? "committed"
                                      : "active";
    table.AddRow({"T" + std::to_string(t), s.ts.ToString(), st});
  }
  return table.ToString();
}

}  // namespace mdts
