#ifndef MDTS_CORE_ACCESS_HISTORY_H_
#define MDTS_CORE_ACCESS_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/types.h"

namespace mdts {

/// What a module reports about one transaction when an access history asks
/// (its "probe"): the current incarnation and its aborted and committed
/// bits, plus `state`, the module's own handle to the transaction, which
/// comes back with a resolved top so no caller looks the transaction up
/// twice. The probe must also answer for the virtual T0: an empty history
/// resolves to T0's handle.
template <typename State>
struct TxnLife {
  State* state = nullptr;
  uint32_t incarnation = 0;
  bool aborted = false;
  bool committed = false;
};

/// One accepted access to an item: the transaction and the incarnation
/// that issued it. Lazy aborts leave these records behind; the liveness
/// rule below decides which still count.
struct Access {
  TxnId txn = kVirtualTxn;
  uint32_t incarnation = 0;

  /// The liveness rule: an access is live iff it was made by the
  /// transaction's current incarnation and that incarnation is not
  /// aborted. Both outcomes are permanent. A restart bumps the incarnation
  /// in the same step that clears the aborted bit, so a dead access stays
  /// dead; a committed incarnation never aborts or restarts, so a
  /// committed access stays live forever.
  template <typename State>
  bool Live(const TxnLife<State>& life) const {
    return incarnation == life.incarnation && !life.aborted;
  }

  /// Live and committed: no later event can change this access's standing.
  template <typename State>
  bool Committed(const TxnLife<State>& life) const {
    return incarnation == life.incarnation && life.committed;
  }
};

/// A resolved RT(x)/WT(x): the transaction and the handle its probe
/// returned (the virtual T0's when the history holds no live entry).
template <typename State>
struct LiveRef {
  TxnId txn = kVirtualTxn;
  State* state = nullptr;
};

/// One item's RT or WT stack (Algorithm 1 lines 3-4, 7, 12) over lazy
/// aborts: accepted accesses, oldest first, of which the newest live one is
/// RT(x) or WT(x). An aborted incarnation's entries are not withdrawn when
/// it aborts; Top skips them and pops them for good. The newest entry is
/// mirrored inline, so resolving a live top never touches the stack's heap
/// storage. This is the only implementation behind MtkScheduler, the
/// sharded engine, DMT(k), NestedMtScheduler and IntervalScheduler; each
/// supplies just a probe, `TxnLife<State> probe(TxnId)`.
class AccessHistory {
 public:
  /// The newest live entry, resolved through the probe, after popping every
  /// dead entry above it; T0 when none is left. Each examined entry is
  /// probed once.
  template <typename Probe>
  auto Top(Probe&& probe) {
    using State =
        std::remove_pointer_t<decltype(probe(kVirtualTxn).state)>;
    if (top_.txn != kVirtualTxn) {
      auto life = probe(top_.txn);
      if (top_.Live(life)) return LiveRef<State>{top_.txn, life.state};
      stack_.pop_back();
      while (!stack_.empty()) {
        const Access a = stack_.back();
        life = probe(a.txn);
        if (a.Live(life)) {
          top_ = a;
          return LiveRef<State>{a.txn, life.state};
        }
        stack_.pop_back();
      }
      top_ = Access{};
    }
    return LiveRef<State>{kVirtualTxn, probe(kVirtualTxn).state};
  }

  /// Records an accepted access; it becomes the top.
  void Push(const Access& a) {
    stack_.push_back(a);
    top_ = a;
  }

  /// Calls f on every stored entry, oldest first (the minimum-referenced-id
  /// scans of storage reclamation).
  template <typename F>
  void ForEach(F&& f) const {
    for (const Access& a : stack_) f(a);
  }

  /// Forgets every entry: RT(x)/WT(x) is T0 again.
  void Clear() {
    stack_.clear();
    top_ = Access{};
  }

  /// Storage reclamation (Section III-D-6a/b): drops every dead entry and
  /// every entry below the newest committed one, leaving at most one
  /// committed entry plus the live uncommitted entries above it. No future
  /// Top can differ: dead and committed are both permanent, so Top never
  /// returns a dead entry and never passes a committed one. Keeping the
  /// live uncommitted entries matters - any of them may surface again if
  /// the ones above it abort.
  template <typename Probe>
  void Compact(Probe&& probe) {
    // The common case: a committed top, below which nothing can surface.
    if (top_.txn != kVirtualTxn && top_.Committed(probe(top_.txn))) {
      stack_.assign(1, top_);
      return;
    }
    // Walk down from the top, packing the survivors against the end of the
    // stack; the walk stops at the newest committed entry.
    size_t keep = stack_.size();
    for (size_t n = stack_.size(); n-- > 0;) {
      const Access a = stack_[n];
      const auto life = probe(a.txn);
      if (!a.Live(life)) continue;
      stack_[--keep] = a;
      if (life.committed) break;
    }
    stack_.erase(stack_.begin(),
                 stack_.begin() + static_cast<std::ptrdiff_t>(keep));
    top_ = stack_.empty() ? Access{} : stack_.back();
  }

 protected:
  /// The newest entry as of the last Top (T0's when none was live).
  const Access& top_entry() const { return top_; }

 private:
  Access top_;                 // stack_.back(); kVirtualTxn when empty.
  std::vector<Access> stack_;  // Oldest first.
};

/// RT(x) plus the item's line-10 readers. Algorithm 1 line 10 accepts a
/// read i older than RT(x)'s top without pushing it: TS(i) < TS(RT(x)) is
/// already fixed, so every later writer ordered after the top is ordered
/// after i too - until the top aborts. Then the next writer is ordered only
/// after the surviving entries, possibly below i, and a non-DSR history can
/// commit. So the old readers are kept here, and every writer of x must
/// also order itself after each live one (Decide's OldReaders hook).
///
/// Each old reader also keeps a cover: an entry of RT(x) or WT(x) already
/// ordered after it - RT(x)'s top when it read, replaced by a writer
/// pushed after it once that top has died. Once the cover commits, the
/// reader is redundant: the cover stays live, so every later writer is
/// ordered after the cover or a newer top, hence after the reader. The
/// list is allocated on the item's first old read; most items never have
/// one.
class ReadHistory : public AccessHistory {
 public:
  /// Line 10: records an old read of the item, below the top the last Top
  /// resolved - unless that top has committed already.
  template <typename Probe>
  void PushOld(const Access& reader, Probe&& probe) {
    const OldRead o{reader, top_entry()};
    if (o.Redundant(probe)) return;
    if (!old_) old_ = std::make_unique<std::vector<OldRead>>();
    old_->push_back(o);
  }

  /// Calls f(LiveRef) on every live old reader, oldest first, dropping the
  /// dead and redundant ones, until f returns false. Returns whether f
  /// accepted them all; if it did and `writer` is a real transaction,
  /// `writer` becomes the cover of each reader whose cover has died (pass
  /// it only when it will be pushed).
  template <typename Probe, typename F>
  bool ForEachOld(Probe&& probe, F&& f, Access writer = {}) {
    if (!old_) return true;
    using State =
        std::remove_pointer_t<decltype(probe(kVirtualTxn).state)>;
    std::vector<OldRead>& v = *old_;
    size_t keep = 0;
    bool ok = true;
    for (size_t n = 0; n < v.size(); ++n) {
      const OldRead o = v[n];
      if (ok) {
        if (o.Redundant(probe)) continue;
        const auto life = probe(o.reader.txn);
        if (!o.reader.Live(life)) continue;
        ok = f(LiveRef<State>{o.reader.txn, life.state});
      }
      v[keep++] = o;
    }
    v.resize(keep);
    if (ok && writer.txn != kVirtualTxn) {
      for (OldRead& o : v) {
        if (o.cover.txn == kVirtualTxn || !o.cover.Live(probe(o.cover.txn))) {
          o.cover = writer;
        }
      }
    }
    return ok;
  }

  /// Every stored entry, old readers and their covers included (the
  /// minimum-referenced-id scans: each one may still be probed).
  template <typename F>
  void ForEach(F&& f) const {
    AccessHistory::ForEach(f);
    if (!old_) return;
    for (const OldRead& o : *old_) {
      f(o.reader);
      if (o.cover.txn != kVirtualTxn) f(o.cover);
    }
  }

  void Clear() {
    AccessHistory::Clear();
    old_.reset();
  }

  /// AccessHistory::Compact, then drops every dead old reader and every one
  /// whose cover has committed.
  template <typename Probe>
  void Compact(Probe&& probe) {
    AccessHistory::Compact(probe);
    if (!old_) return;
    std::erase_if(*old_, [&](const OldRead& o) {
      return o.Redundant(probe) || !o.reader.Live(probe(o.reader.txn));
    });
    if (old_->empty()) old_.reset();
  }

 private:
  struct OldRead {
    Access reader;
    Access cover;  // Ordered after the reader; T0 if none.

    /// The cover has committed, so no later writer can be ordered below
    /// the reader.
    template <typename Probe>
    bool Redundant(Probe&& probe) const {
      return cover.txn != kVirtualTxn && cover.Committed(probe(cover.txn));
    }
  };
  std::unique_ptr<std::vector<OldRead>> old_;
};

}  // namespace mdts

#endif  // MDTS_CORE_ACCESS_HISTORY_H_
