#include "composite/mtk_plus.h"

#include <cassert>

#include "common/table_printer.h"

namespace mdts {

namespace {
constexpr TsElement U = kUndefinedElement;
}  // namespace

MtkPlus::MtkPlus(size_t k)
    : k_(k),
      stopped_(k, false),
      counters_(k) {
  assert(k_ >= 1);
  // The virtual transaction T0 = <0, *, ..., *> under every subprotocol:
  // its first column is PREFIX(1) for MT(2..k) and LASTCOL(1) for MT(1).
  txns_.emplace_back(k_);
  if (k_ >= 2) txns_[0].prefix[0] = 0;
  txns_[0].lastcol[0] = 0;
}

MtkPlus::TxnState& MtkPlus::State(TxnId txn) {
  while (txns_.size() <= txn) txns_.emplace_back(k_);
  return txns_[txn];
}

MtkPlus::ItemState& MtkPlus::Item(ItemId item) {
  if (items_.size() <= item) items_.resize(item + 1);
  return items_[item];
}

TimestampVector MtkPlus::ViewOf(size_t h, TxnId txn) {
  assert(h >= 1 && h <= k_);
  TxnState& s = State(txn);
  TimestampVector v(h);
  for (size_t c = 0; c + 1 < h; ++c) {
    if (s.prefix[c] != U) v.Set(c, s.prefix[c]);
  }
  if (s.lastcol[h - 1] != U) v.Set(h - 1, s.lastcol[h - 1]);
  return v;
}

VectorCompareResult MtkPlus::CompareLargestView(TxnId a, TxnId b) {
  size_t h = k_;
  while (h > 1 && stopped_[h - 1]) --h;
  return Compare(ViewOf(h, a), ViewOf(h, b));
}

void MtkPlus::StopSub(size_t h) {
  if (!stopped_[h - 1]) {
    stopped_[h - 1] = true;
    ++stats_.subs_stopped;
  }
}

void MtkPlus::StopSubsFrom(size_t h_first) {
  for (size_t h = h_first; h <= k_; ++h) StopSub(h);
}

size_t MtkPlus::live_count() const {
  size_t live = 0;
  for (bool s : stopped_) {
    if (!s) ++live;
  }
  return live;
}

bool MtkPlus::EncodeDependency(TxnId j, TxnId i) {
  // Algorithm 2's column walk. Step h resolves subprotocol MT(h) on its
  // dedicated column LASTCOL(h), then PREFIX(h) on behalf of MT(h+1..k).
  // Invariant on entering step h: PREFIX columns 1..h-1 of T_j and T_i are
  // defined and equal, which is exactly when MT(h)'s own comparison would
  // reach its last column.
  for (size_t h = 1; h <= k_; ++h) {
    if (!stopped_[h - 1]) {
      TsElement& cj = State(j).lastcol[h - 1];
      TsElement& ci = State(i).lastcol[h - 1];
      ++stats_.columns_touched;
      if (cj != U && ci != U) {
        // LASTCOL values are distinct by construction, so cj != ci.
        if (cj > ci) StopSub(h);
      } else {
        EncodeColumn(cj, ci, &counters_[h - 1]);  // MT(h)'s last column.
      }
    }
    if (h == k_) break;
    bool any_later_live = false;
    for (size_t g = h + 1; g <= k_ && !any_later_live; ++g) {
      any_later_live = !stopped_[g - 1];
    }
    if (!any_later_live) break;

    TsElement& pj = State(j).prefix[h - 1];
    TsElement& pi = State(i).prefix[h - 1];
    ++stats_.columns_touched;
    if (pj != U && pi != U) {
      if (pj < pi) break;                    // Already encoded for MT(>h).
      if (pj > pi) {
        StopSubsFrom(h + 1);                 // Conflicting dependency.
        break;
      }
      continue;                              // Equal: walk one column deeper.
    }
    EncodeColumn(pj, pi, nullptr);  // Algorithm 1 in a non-last column.
    break;
  }
  return live_count() > 0;
}

OpDecision MtkPlus::Process(const Op& op) {
  const TxnId i = op.txn;
  if (i == kVirtualTxn || live_count() == 0) {
    ++stats_.rejected;
    return OpDecision::kReject;
  }
  ItemState& item = Item(op.item);
  const TxnId jr = item.readers.empty() ? kVirtualTxn : item.readers.back();
  const TxnId jw = item.writers.empty() ? kVirtualTxn : item.writers.back();
  const TxnId j =
      CompareLargestView(jr, jw).order == VectorOrder::kLess ? jw : jr;

  if (j != i && !EncodeDependency(j, i)) {
    ++stats_.rejected;
    return OpDecision::kReject;
  }
  if (op.type == OpType::kRead) {
    item.readers.push_back(i);
  } else {
    item.writers.push_back(i);
  }
  ++stats_.accepted;
  return OpDecision::kAccept;
}

std::string MtkPlus::DumpTables(TxnId max_txn) {
  std::vector<std::string> header = {"txn"};
  for (size_t c = 1; c < k_; ++c) {
    header.push_back("PREFIX(" + std::to_string(c) + ")");
  }
  for (size_t h = 1; h <= k_; ++h) {
    header.push_back("LASTCOL(" + std::to_string(h) + ")" +
                     (stopped_[h - 1] ? " [stopped]" : ""));
  }
  TablePrinter table(header);
  auto cell = [](TsElement e) {
    return e == U ? std::string("*") : std::to_string(e);
  };
  for (TxnId t = 0; t <= max_txn; ++t) {
    TxnState& s = State(t);
    std::vector<std::string> row = {"T" + std::to_string(t)};
    for (size_t c = 0; c + 1 < k_; ++c) row.push_back(cell(s.prefix[c]));
    for (size_t h = 0; h < k_; ++h) row.push_back(cell(s.lastcol[h]));
    table.AddRow(row);
  }
  return table.ToString();
}

}  // namespace mdts
