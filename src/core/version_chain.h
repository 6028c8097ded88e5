#ifndef MDTS_CORE_VERSION_CHAIN_H_
#define MDTS_CORE_VERSION_CHAIN_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/access_history.h"
#include "core/timestamp_vector.h"
#include "core/types.h"
#include "obs/abort_reason.h"

namespace mdts {

/// One version of a multiversion item: the access that wrote it and the
/// accesses that read it. The stamps are the sharded engine's GC clock
/// readings (begin_stamp at install, end_stamp when a successor superseded
/// it - 0 while newest - and read_stamp at its latest read); the chain
/// only carries them, each owner stamps its own versions.
struct MvVersion {
  Access writer;  // kVirtualTxn = the initial (T0) base version.
  uint64_t begin_stamp = 0;
  uint64_t end_stamp = 0;
  uint64_t read_stamp = 0;
  std::vector<Access> readers;
};

/// What MvChain::Read and MvChain::Write report. The chain counts nothing;
/// each caller counts its own stats from this.
struct MvOutcome {
  OpDecision decision = OpDecision::kReject;
  /// Accepted read: the version whose readers it joined, or null when T_i
  /// read its own write (nothing is recorded). Accepted write: the version
  /// it installed.
  MvVersion* version = nullptr;
  /// Accepted read served by a version other than the newest.
  bool old_version = false;
  /// Rejected write: the reader or writer whose already-fixed order made
  /// the placement infeasible; kVirtualTxn when no single transaction is
  /// to blame (and always for a rejected read: the whole chain refused).
  TxnId blocker = kVirtualTxn;
  /// Rejected read: the cause the last refusing Set recorded. Rejected
  /// write: kVersionConflict.
  AbortReason cause = AbortReason::kNone;
};

/// One multiversion item (the Section III-D-6d extension of Reed's
/// multiple versions to timestamp vectors): versions sorted by the
/// Definition-6 order of their writers' vectors, newest inline and older
/// ones oldest first in `older`. A fresh chain's `newest` is the virtual-T0
/// base version; T0's vector orders before any transaction, so a read walk
/// that exhausts every real version always has one to try. This is the
/// only implementation of the multiversion decision behind MvMtkScheduler
/// and the sharded engine's multiversion mode.
///
/// Read and Write take a policy, as Decide in core/encoding.h does:
///
///   VectorOrder Order(TxnId a, TxnId b);            // Definition 6.
///   bool Set(TxnId j, TxnId i, AbortReason* why);  // Algorithm 1 Set.
///
/// A refusing Set records its cause in *why. Both expect every linked access to be live: callers UnlinkDead first.
struct MvChain {
  MvVersion newest;
  std::vector<MvVersion> older;

  /// Versions linked, T0's base included while it is linked.
  size_t size() const { return older.size() + 1; }

  /// Version `idx` of the combined chain, oldest first: older[0..n) then
  /// newest.
  MvVersion& At(size_t idx) {
    return idx < older.size() ? older[idx] : newest;
  }
  const MvVersion& At(size_t idx) const {
    return idx < older.size() ? older[idx] : newest;
  }

  /// Calls f on every writer and reader linked into the chain.
  template <typename F>
  void ForEachAccess(F&& f) const {
    for (const MvVersion& v : older) {
      f(v.writer);
      for (const Access& r : v.readers) f(r);
    }
    f(newest.writer);
    for (const Access& r : newest.readers) f(r);
  }

  /// Unlinks every version whose writer is dead and every dead reader
  /// (Access::Live through `probe(txn)`, as AccessHistory::Top takes it).
  /// Dead is permanent, so this changes no later decision. A dead newest
  /// version is replaced by the newest survivor, or by T0's base when none
  /// is left. Returns the number of versions unlinked (T0's never dies).
  template <typename Probe>
  size_t UnlinkDead(Probe&& probe) {
    auto dead = [&probe](const Access& a) { return !a.Live(probe(a.txn)); };
    const size_t before = older.size();
    std::erase_if(older,
                  [&dead](const MvVersion& v) { return dead(v.writer); });
    size_t gone = before - older.size();
    if (dead(newest.writer)) {
      ++gone;
      if (older.empty()) {
        newest = MvVersion{};
      } else {
        newest = std::move(older.back());
        older.pop_back();
      }
    }
    for (MvVersion& v : older) std::erase_if(v.readers, dead);
    std::erase_if(newest.readers, dead);
    return gone;
  }

  /// The read walk, newest to oldest: T_i reads the first version whose
  /// writer Set can order before it, joining its readers. A version that
  /// lies in T_i's future (its writer already ordered after T_i) is
  /// skipped; T_i's own version is read without recording anything.
  template <typename Policy>
  MvOutcome Read(const Access& me, Policy& p) {
    MvOutcome out;
    out.cause = AbortReason::kEncodingExhausted;
    for (size_t v = size(); v-- > 0;) {
      MvVersion& ver = At(v);
      if (ver.writer.txn == me.txn) {
        out.decision = OpDecision::kAccept;
        return out;
      }
      if (p.Set(ver.writer.txn, me.txn, &out.cause)) {
        ver.readers.push_back(me);
        out.decision = OpDecision::kAccept;
        out.version = &ver;
        out.old_version = v + 1 < size();
        return out;
      }
    }
    return out;  // Only reachable in degenerate vector states.
  }

  /// The two-phase write placement. Phase 1 (no encoding) finds the newest
  /// slot the new version can follow: after version j requires
  ///  a) writer(j) not already ordered after T_i,
  ///  b) T_i not already ordered after writer(j+1) (the chain handles the
  ///     rest by transitivity),
  ///  c) no reader of any version up to j already ordered after T_i (a
  ///     reader of an older version precedes the writer of every newer
  ///     version - the MVSG rule).
  /// Phase 2 encodes those edges. Each Set was pre-checked as not fixed
  /// the opposite way, but an earlier encoding can incidentally fix a
  /// later pair; the write then bails out safely (encodings only ever add
  /// constraints) and is rejected.
  template <typename Policy>
  MvOutcome Write(const Access& me, Policy& p) {
    const TxnId i = me.txn;
    const size_t n = size();
    MvOutcome out;
    out.cause = AbortReason::kVersionConflict;
    // Rule (c) is a prefix property: every slot from the oldest version
    // with such a reader on is blocked.
    size_t first_blocked = n;
    for (size_t j = 0; j < n; ++j) {
      for (const Access& r : At(j).readers) {
        if (r.txn != i && p.Order(i, r.txn) == VectorOrder::kLess) {
          if (first_blocked == n) first_blocked = j;
          out.blocker = r.txn;
        }
      }
    }
    size_t chosen = n;
    for (size_t j = n; j-- > 0;) {
      const TxnId w = At(j).writer.txn;
      if (w != i && p.Order(w, i) == VectorOrder::kGreater) continue;
      if (j + 1 < n &&
          p.Order(i, At(j + 1).writer.txn) == VectorOrder::kGreater) {
        continue;
      }
      if (j >= first_blocked) continue;
      chosen = j;
      break;
    }
    if (chosen == n) return out;

    // A refused write is a version conflict whatever cause Set records.
    AbortReason why = AbortReason::kNone;
    const TxnId pred = At(chosen).writer.txn;
    if (pred != i && !p.Set(pred, i, &why)) {
      out.blocker = pred;
      return out;
    }
    if (chosen + 1 < n) {
      const TxnId next = At(chosen + 1).writer.txn;
      if (!p.Set(i, next, &why)) {
        out.blocker = next;
        return out;
      }
    }
    for (size_t j = 0; j <= chosen; ++j) {
      for (const Access& r : At(j).readers) {
        if (r.txn != i && !p.Set(r.txn, i, &why)) {
          out.blocker = r.txn;
          return out;
        }
      }
    }
    out.decision = OpDecision::kAccept;
    out.version = &InsertAfter(chosen, me);
    return out;
  }

  /// Links a version written by `writer` right after version `idx` and
  /// returns it (the newest one when idx is the newest).
  MvVersion& InsertAfter(size_t idx, const Access& writer) {
    MvVersion v;
    v.writer = writer;
    if (idx + 1 == size()) {
      older.push_back(std::move(newest));
      newest = std::move(v);
      return newest;
    }
    return *older.insert(older.begin() + static_cast<std::ptrdiff_t>(idx + 1),
                         std::move(v));
  }
};

}  // namespace mdts

#endif  // MDTS_CORE_VERSION_CHAIN_H_
