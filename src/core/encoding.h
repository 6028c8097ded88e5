#ifndef MDTS_CORE_ENCODING_H_
#define MDTS_CORE_ENCODING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/timestamp_vector.h"
#include "core/types.h"
#include "obs/abort_reason.h"

namespace mdts {

/// Algorithm 1's last-column counters ucount/lcount, striped across n
/// owners that draw values without coordinating: stripe s hands out only
/// values v = raw * n + s, so two stripes never collide. This is DMT(k)'s
/// "concatenate the site number as low order bits" (Section V-B, n =
/// sites) and the sharded engine's per-shard counters (n = shards); with
/// n = 1 it is the plain ucount = 1, 2, ... / lcount = 0, -1, ... pair.
///
/// Upper/Lower respect the caller's bound. A stripe's own counter already
/// exceeds (undercuts) every value it handed out, but the element it must
/// order after may come from another stripe whose counter ran ahead; a
/// value drawn below that bound would encode the dependency backwards.
class StripedCounters {
 public:
  explicit StripedCounters(uint32_t stripe = 0, uint32_t n = 1)
      : stripe_(stripe), n_(n) {}

  /// Smallest value of this stripe's class that is > `above` and > every
  /// value Upper returned before. `above` may be kUndefinedElement, meaning
  /// "no bound beyond the counter itself".
  TsElement Upper(TsElement above) {
    const TsElement n = n_;
    TsElement raw = upper_;
    TsElement val = raw * n + stripe_;
    while (above != kUndefinedElement && val <= above) {
      ++raw;
      val += n;
    }
    upper_ = raw + 1;
    return val;
  }

  /// Largest value of this stripe's class that is < `below` (defined) and
  /// < every value Lower returned before.
  TsElement Lower(TsElement below) {
    const TsElement n = n_;
    TsElement raw = lower_;
    TsElement val = raw * n + stripe_;
    while (val >= below) {
      --raw;
      val -= n;
    }
    lower_ = raw - 1;
    return val;
  }

  /// The stripe whose class holds value v.
  static uint32_t StripeOf(TsElement v, uint32_t n) {
    const TsElement sn = n;
    return static_cast<uint32_t>(((v % sn) + sn) % sn);
  }

  /// Recovery resync: moves this stripe's counters past v, a value of its
  /// class (StripeOf(v, n) == stripe), so later draws never reuse or
  /// undercut it.
  void AdvancePast(TsElement v) {
    const TsElement raw =
        (v - static_cast<TsElement>(stripe_)) / static_cast<TsElement>(n_);
    if (v >= 0) {
      upper_ = std::max(upper_, raw + 1);
    } else {
      lower_ = std::min(lower_, raw - 1);
    }
  }

  /// Receive rule for the last column (ColumnClocks' twin): moves this
  /// stripe's counters past v, a value of any stripe, so its next Upper
  /// exceeds and its next Lower undercuts every value it has seen. Striped
  /// engines need it most: a stripe whose counter lags its peers' hands out
  /// values that already compare below the transactions it must follow.
  /// With one stripe it moves only past values the counter did not hand
  /// out: T0's 0, and starvation seeds when k = 1.
  void Observe(TsElement v) {
    // Raw positions r with r * n + stripe > v start at floor(d / n) + 1,
    // those with r * n + stripe < v end at ceil(d / n) - 1.
    const TsElement n = n_;
    const TsElement d = v - static_cast<TsElement>(stripe_);
    const TsElement q = d / n;  // Truncated toward zero.
    const TsElement floor_q = d % n < 0 ? q - 1 : q;
    const TsElement ceil_q = d % n > 0 ? q + 1 : q;
    upper_ = std::max(upper_, floor_q + 1);
    lower_ = std::min(lower_, ceil_q - 1);
  }

  /// Moves both counters outward to at least `other`'s positions (DMT(k)'s
  /// clock synchronization adopts the global extremes this way).
  void Widen(const StripedCounters& other) {
    upper_ = std::max(upper_, other.upper_);
    lower_ = std::min(lower_, other.lower_);
  }

 private:
  TsElement upper_ = 1;  // Raw positions; the drawn value is raw * n + stripe.
  TsElement lower_ = 0;
  uint32_t stripe_;
  uint32_t n_;
};

/// Lamport clocks for the columns other than the last: an extension of
/// Algorithm 1, not the paper's rule. Line 20's TS(i, m) := TS(j, m) + 1
/// fixes a transaction's element in column m from its *first* dependency
/// there, so a later dependency on a transaction whose element is larger
/// already compares kGreater; on a strictly serial history MT(k) with
/// k >= 2 then aborts about half its attempts. A clock per column hands out
/// elements past every value the column has seen instead:
///
///   one side undefined:  b = max(a, hi) + 1, or a = min(b, lo) - 1;
///   both undefined:      two fresh hi values;
///   receive rule:        a kLess/kGreater decided in column m moves m's
///                        clocks past both elements (Observe); decided in
///                        the last column, it moves the counter stripe
///                        past them (StripedCounters::Observe).
///
/// Theorem 2 needs only that a new element exceed (undercut) the one it
/// must follow (precede), so safety is unchanged; the accepted class is no
/// longer TO(k). The clocks start where the paper's constants do (the
/// first pair is 1 < 2). Equal values across vectors stay allowed: two
/// clocks may hand out the same element, as line 20 does.
class ColumnClocks {
 public:
  /// Clocks for the k - 1 non-last columns of k-element vectors.
  explicit ColumnClocks(size_t k = 1) : cols_(k > 1 ? k - 1 : 0) {}

  /// Smallest value > `above` and > every value column m has seen;
  /// `above` may be kUndefinedElement (no bound beyond the clock).
  TsElement Above(size_t m, TsElement above) {
    Column& c = cols_[m];
    const TsElement v =
        above != kUndefinedElement && above >= c.upper ? above + 1 : c.upper;
    c.upper = v + 1;
    return v;
  }

  /// Largest value < `below` (defined) and < every value column m has seen.
  TsElement Below(size_t m, TsElement below) {
    Column& c = cols_[m];
    const TsElement v = below <= c.lower ? below - 1 : c.lower;
    c.lower = v - 1;
    return v;
  }

  /// Receive rule (and recovery resync): column m has seen v.
  void Observe(size_t m, TsElement v) {
    Column& c = cols_[m];
    if (v >= c.upper) c.upper = v + 1;
    if (v <= c.lower) c.lower = v - 1;
  }

  size_t columns() const { return cols_.size(); }

 private:
  struct Column {
    TsElement upper = 1;  // Next value Above hands out unbounded.
    TsElement lower = 0;  // Next value Below hands out unbounded.
  };
  std::vector<Column> cols_;
};

/// Algorithm 1's encoding of TS(j, m) < TS(i, m) on one column whose
/// elements a = TS(j, m) and b = TS(i, m) are not both defined. Both
/// undefined ('=', line 19): the constants 1 < 2, or two counter values in
/// the last column. One undefined (line 20): one past the defined side, or
/// a counter value bounded by it in the last column. `last` is the counter
/// pair when m is the last column, null otherwise; `clocks`, when non-null,
/// replaces the constants and the +-1 steps of the other columns with
/// column m's clock values (ColumnClocks). Returns the number of elements
/// assigned.
///
/// Columns other than the last may hold equal values across vectors,
/// which is what lets MT(k) keep transactions unordered longer than
/// MT(k-1) (Section III-C); counter values keep every fully assigned
/// vector distinguishable from every other.
inline uint32_t EncodeColumn(TsElement& a, TsElement& b,
                             StripedCounters* last,
                             ColumnClocks* clocks = nullptr, size_t m = 0) {
  if (a == kUndefinedElement && b == kUndefinedElement) {
    if (last != nullptr) {
      a = last->Upper(kUndefinedElement);
      b = last->Upper(a);
    } else if (clocks != nullptr) {
      a = clocks->Above(m, kUndefinedElement);
      b = clocks->Above(m, a);
    } else {
      a = 1;
      b = 2;
    }
    return 2;
  }
  if (b == kUndefinedElement) {
    b = last != nullptr     ? last->Upper(a)
        : clocks != nullptr ? clocks->Above(m, a)
                            : a + 1;
  } else {
    a = last != nullptr     ? last->Lower(b)
        : clocks != nullptr ? clocks->Below(m, b)
                            : b - 1;
  }
  return 1;
}

/// Result of one EncodeDependency call (the body of Algorithm 1's Set(j, i)
/// after the vector comparison): whether TS(j) < TS(i) now holds, whether
/// new elements were written to make it hold, how many elements were
/// assigned, and - when ok is false - the classified cause of the refusal.
struct EncodeOutcome {
  bool ok = false;
  bool encoded = false;
  uint32_t elements_assigned = 0;
  AbortReason why = AbortReason::kNone;
};

/// Algorithm 1's Set(j, i) encoding step: the one implementation behind
/// MtkScheduler, ShardedMtkEngine, VectorTable (and through it the MV and
/// nested schedulers) and DMT(k). Callers differ only in which
/// StripedCounters supply last-column values, and in `clocks`: null runs
/// Algorithm 1's rule bit for bit, non-null draws the other columns'
/// values from those ColumnClocks and applies the receive rule to every
/// kLess/kGreater, on the clocks or, in the last column, on `counters`
/// (the engine always does; MtkScheduler and MvMtkScheduler on request).
///
/// Every branch that would write TS(j) refuses when j is the virtual
/// transaction: TS(0) must stay <0, *, ..., *> forever (the engine reads it
/// lock-free from every shard, and mutating it would retroactively reorder
/// every transaction already encoded against T0). Those branches are
/// reachable when a live vector's prefix collides with T0's - through
/// the right-end layout, or through the non-last-column TS(i, m) - 1 step
/// that can hand a live transaction a leading 0.
///
/// Section III-D-5 (`right_end`, which only MtkScheduler sets, for a
/// dependency born on a hot item): the dependency is pushed toward the
/// right end of the vectors - equal filler up to column k-2 with the 1 < 2
/// pair there, or TS(j)'s defined prefix copied into TS(i) with the pair
/// just past it - so a hot item does not force a premature total order
/// through column m.
inline EncodeOutcome EncodeDependency(const VectorCompareResult& cr,
                                      size_t k, TimestampVector& tj,
                                      TimestampVector& ti, bool j_is_virtual,
                                      bool right_end,
                                      StripedCounters& counters,
                                      ColumnClocks* clocks) {
  EncodeOutcome out;
  const size_t m = cr.index;
  switch (cr.order) {
    case VectorOrder::kLess:
    case VectorOrder::kGreater:
      if (clocks != nullptr && m < k) {  // The receive rule.
        if (m + 1 < k) {
          clocks->Observe(m, tj.Get(m));
          clocks->Observe(m, ti.Get(m));
        } else {
          counters.Observe(tj.Get(m));
          counters.Observe(ti.Get(m));
        }
      }
      if (cr.order == VectorOrder::kLess) {
        out.ok = true;  // Line 17: the dependency is already encoded.
      } else {
        out.why = AbortReason::kLexOrder;  // Line 18: opposite order fixed.
      }
      return out;
    case VectorOrder::kIdentical:
      // All k elements equal and defined. Algorithm 1's distinct k-th
      // elements make this unreachable between live transactions, but an
      // externally seeded vector could in principle collide; refuse safely.
      out.why = AbortReason::kEncodingExhausted;
      return out;
    case VectorOrder::kEqual:         // Line 19: both elements undefined.
    case VectorOrder::kUndetermined:  // Line 20: exactly one is undefined.
      break;
  }
  if (!tj.IsDefined(m) && j_is_virtual) {
    out.why = AbortReason::kEncodingExhausted;  // TS(0) is immutable.
    return out;
  }
  out.ok = true;
  out.encoded = true;
  if (right_end && cr.order == VectorOrder::kEqual && m + 1 < k) {
    // Section III-D-5: extend both prefixes with equal filler up to
    // column k-2 and place the 1 < 2 pair there.
    const size_t e = k - 2;
    for (size_t h = m; h < e; ++h) {
      tj.Set(h, 0);
      ti.Set(h, 0);
      out.elements_assigned += 2;
    }
    tj.Set(e, 1);
    ti.Set(e, 2);
    out.elements_assigned += 2;
    return out;
  }
  if (right_end && !j_is_virtual && tj.IsDefined(m)) {
    // Section III-D-5, the worked variant: copy TS(j)'s defined prefix into
    // TS(i) and encode the dependency just past it (e.g. <1,3,*,*> vs
    // <*,*,*,*> becomes <1,3,1,*> vs <1,3,2,*>).
    const size_t p = tj.DefinedPrefixLength();
    if (p < k) {
      for (size_t h = m; h < p; ++h) {
        ti.Set(h, tj.Get(h));
        ++out.elements_assigned;
      }
      TsElement a = kUndefinedElement;
      TsElement b = kUndefinedElement;
      out.elements_assigned +=
          EncodeColumn(a, b, p + 1 == k ? &counters : nullptr, clocks, p);
      tj.Set(p, a);
      ti.Set(p, b);
      return out;
    }
  }
  TsElement a = tj.Get(m);  // Undefined slots hold kUndefinedElement.
  TsElement b = ti.Get(m);
  out.elements_assigned +=
      EncodeColumn(a, b, m + 1 == k ? &counters : nullptr, clocks, m);
  // Write back only the element that changed: TS(j) may be T0's shared
  // vector when only TS(i, m) was undefined.
  if (!tj.IsDefined(m)) tj.Set(m, a);
  if (!ti.IsDefined(m)) ti.Set(m, b);
  return out;
}

/// What Decide reports: the decision, and j - the RT(x)/WT(x) entry that
/// lines 5-6 picked, or the old reader whose Set refused a write - which is
/// the blocker when the decision is kReject.
template <typename Ref>
struct Decided {
  OpDecision decision;
  Ref j;
};

/// Decide's variant flags for the one protocol the engine, DMT(k) and
/// NestedMtScheduler run, as compile-time constants their policies
/// inherit: lines 9-10 on, the plain line-9 test, no Thomas write rule
/// (MtkOptions' defaults; only MtkScheduler sets them at run time).
struct PlainVariant {
  static constexpr bool old_read_path = true;
  static constexpr bool relaxed_line9 = false;
  static constexpr bool thomas_rule = false;
};

/// Algorithm 1 lines 5-14: the read/write decision around Set(j, i), the
/// one implementation behind MtkScheduler, the engine's single-version
/// path, NestedMtScheduler and DMT(k). `Ref` is however the caller names a
/// transaction; jr/jw are the live tops of RT(x)/WT(x) and i the issuer.
/// The policy supplies
///
///   VectorOrder Order(const Ref& a, const Ref& b);  // Definition 6.
///   bool Set(const Ref& j, const Ref& i);           // Algorithm 1 Set.
///   void PushReader();                              // Line 7: RT(x) := i.
///   void PushOldReader();                           // Line 10: keep i.
///   void PushWriter();                              // Line 12: WT(x) := i.
///   auto OldReaders();  // A callable g: g(f) runs ReadHistory::ForEachOld
///                       // with i as the writer; f(r) -> bool is Set(r, i).
///   bool old_read_path;      // Lines 9-10 enabled.
///   bool relaxed_line9;      // Line 9 encodes WT(x) -> i with Set.
///   bool thomas_rule;        // Section III-D-6c.
///
/// and keeps everything a decision leaves behind besides the RT/WT push:
/// counts, the reject's cause (recorded by its Set), abort marking, and
/// the starvation seed.
///
/// A write also runs Set(r, i) for every live line-10 reader r of x (see
/// ReadHistory): line 10 leaves r below RT(x)'s top instead of pushing it,
/// and once that top aborts nothing else would keep i above r. Without
/// aborts each of these Sets finds TS(r) < TS(i) already fixed (r is below
/// the top, the top below i), so the check only decides once a top died.
template <typename Ref, typename Policy>
Decided<Ref> Decide(OpType type, const Ref& jr, const Ref& jw, const Ref& i,
                    Policy& p) {
  // Lines 5-6: j is whichever of RT(x), WT(x) has the larger timestamp,
  // with RT(x) winning ties and undetermined comparisons.
  const bool j_is_writer = p.Order(jr, jw) == VectorOrder::kLess;
  const Ref& j = j_is_writer ? jw : jr;
  if (type == OpType::kRead) {
    if (p.Set(j, i)) {
      p.PushReader();  // Line 7.
      return {OpDecision::kAccept, j};
    }
    // Line 9: a read older than the most recent reader is still safe if it
    // follows the most recent writer. The relaxed variant (noted after
    // Theorem 3) encodes the WT dependency with Set instead of testing it.
    if (!j_is_writer && p.old_read_path) {
      const bool write_ordered = p.relaxed_line9
                                     ? p.Set(jw, i)
                                     : p.Order(jw, i) == VectorOrder::kLess;
      if (write_ordered) {
        p.PushOldReader();  // Line 10; RT(x) is not updated.
        return {OpDecision::kAccept, j};
      }
    }
    return {OpDecision::kReject, j};  // Line 11.
  }
  if (p.Set(j, i)) {
    Ref blocker = j;
    const bool ordered = p.OldReaders()([&](const Ref& r) {
      if (p.Set(r, i)) return true;
      blocker = r;
      return false;
    });
    if (!ordered) return {OpDecision::kReject, blocker};
    p.PushWriter();  // Line 12.
    return {OpDecision::kAccept, j};
  }
  if (p.thomas_rule) {
    // Section III-D-6c: TS(RT(x)) < TS(i) < TS(WT(x)) makes the write
    // obsolete; skip it instead of aborting T_i. Both comparisons run.
    const bool after_reads = p.Order(jr, i) == VectorOrder::kLess;
    const bool before_writer = p.Order(i, jw) == VectorOrder::kLess;
    if (after_reads && before_writer) return {OpDecision::kIgnore, j};
  }
  return {OpDecision::kReject, j};  // Line 14.
}

/// Section III-D-4 starvation seeding, the one copy behind MtkScheduler,
/// VectorTable (and through it the MV scheduler) and the engine: flushes
/// out TS(i) and seeds TS(i,1) := TS(j,1) + 1 - or 1 when the blocker's
/// first element is undefined - so the restarted incarnation is ordered
/// after the transaction that caused the abort.
inline void SeedAfter(TimestampVector& ts, const TimestampVector& blocker) {
  const TsElement seed = blocker.IsDefined(0) ? blocker.Get(0) + 1 : 1;
  ts.Reset();
  ts.Set(0, seed);
}

}  // namespace mdts

#endif  // MDTS_CORE_ENCODING_H_
