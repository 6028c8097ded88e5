#ifndef MDTS_ENGINE_SHARDED_ENGINE_H_
#define MDTS_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/access_history.h"
#include "core/encoding.h"
#include "core/mtk_scheduler.h"
#include "core/timestamp_vector.h"
#include "core/types.h"
#include "core/version_chain.h"
#include "obs/abort_reason.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace mdts {

class ParallelWal;   // src/wal/wal.h
struct WalRecovery;  // src/wal/wal.h

/// Configuration of the sharded concurrent MT(k) engine. The engine runs
/// one protocol: Algorithm 1 with lines 9-10 on, the plain (not relaxed)
/// line-9 test, no Thomas write rule and the leftmost-free encoding - the
/// same policy DMT(k) runs. The Section III-D variants live on MtkScheduler
/// only (MtkOptions). With num_shards = 1 the engine accepts exactly the
/// logs MtkScheduler accepts at the same k and starvation_fix, assigning
/// the same vectors.
struct EngineOptions {
  /// Timestamp vector size k >= 1.
  size_t k = 3;

  /// Number of shards the items, transaction states, and last-column
  /// counters are striped across. Clamped to >= 1; the constructor throws
  /// std::invalid_argument above ShardedMtkEngine::kMaxShards (256).
  size_t num_shards = 8;

  /// Section III-D-4 starvation fix (see MtkOptions::starvation_fix).
  bool starvation_fix = false;

  /// Multiversion MT(k) (Section III-D-6d): every item keeps an MvChain
  /// (core/version_chain.h, the read walk and write placement
  /// MvMtkScheduler runs too) of versions sorted by the writers' vector
  /// order, each stamped with begin/end/read stamps from an engine-wide
  /// stamp clock. Reads take the newest version they can be ordered after
  /// (they essentially never abort - the multiversion payoff); a write
  /// installs a new version at the newest feasible slot or rejects with
  /// kVersionConflict. All chain state is mutated under the same ordered
  /// shard locksets as the single-version mode, and lives outside the item
  /// state, allocated on an item's first multiversion access.
  ///
  /// Version storage is reclaimed by the live watermark (see CompactAll),
  /// with a floor the engine picks itself. An explicit CompactAll() that
  /// finds every created transaction committed keeps only each chain's
  /// newest committed version: nothing live or aborted-awaiting-restart
  /// can need an older one. Every other prune - commit-side, periodic
  /// (compact_every), or with anything uncommitted - keeps the
  /// ShardedMtkEngine::kMvKeepTail (16) newest committed versions,
  /// because a reader whose vector is already pinned - by its earlier
  /// operations or by a starvation-fix restart seed - can be un-orderable
  /// after the newest writer and must fall back to an older one; a
  /// periodic sweep runs mid-traffic, so the readers about to start count.
  bool multiversion = false;

  /// If > 0, CompactAll() runs after every this many commits engine-wide,
  /// so memory stays bounded by live transactions instead of total history.
  /// It changes no decision (see AccessHistory::Compact). The sweep is
  /// stop-the-world and O(items); size the period accordingly.
  uint64_t compact_every = 0;

  /// Registry the engine publishes its counters through ("engine.accepted",
  /// "engine.rejected.<reason>", "engine.lock_contention", ...). The engine
  /// registers a collector that sums the per-shard EngineStats when a
  /// snapshot is taken, so counting costs nothing beyond EngineStats and
  /// every snapshot is exact; on destruction the final values fold into
  /// the registry's own counters, which therefore never decrease across
  /// engines. Null publishes nothing. The registry must outlive the engine.
  ///
  /// Attached registries also receive two push instruments: the
  /// "engine.phase.*_us" histograms (see phase_sample_shift) and the live
  /// starvation signal - every RestartTxn raises the gauge
  /// "engine.max_consecutive_aborts" to the restarting transaction's
  /// consecutive-abort count (its incarnation number), the windowed peak a
  /// Sampler's StarvationWatchdog consumes.
  MetricsRegistry* metrics = nullptr;

  /// Write-ahead log for durability: when attached, the engine tracks each
  /// transaction's accepted writes and CommitTxn appends a commit record
  /// (the MT(k) vector as the Taurus LSN vector plus the write set) BEFORE
  /// marking the transaction committed, so an acknowledged commit is never
  /// ahead of its log record. Read-only transactions are not logged (they
  /// leave no state for recovery to rebuild). The WAL's k must equal this
  /// k, and the WAL must outlive the engine. After a crash, recover with
  /// ParallelWal::Recover + RecoverFrom on a fresh engine.
  ParallelWal* wal = nullptr;

  /// Flight recorder receiving a record per commit (with the committed
  /// vector and write set) and per reject of every reason - stale and
  /// invalid operations included, so its abort_reasons() always equals
  /// stats().reject_reasons - with the classified reason, the refused
  /// operation, the blocking transaction and the vector before any
  /// starvation seed. Records are captured at the decision/commit points
  /// while the covering shard locks are still held, so a dump is a
  /// consistent tail of engine history. Ring selection is
  /// txn % FlightRecorder::rings(). Null disables (the default); must
  /// outlive the engine. The `flight` rung of bench/mt_throughput's cost
  /// ladder measures the attached-vs-null delta as
  /// flight_obs_overhead_pct (acceptance bar: < 3%).
  FlightRecorder* flight = nullptr;

  /// Phase attribution sampling: 1 in 2^phase_sample_shift ops (and,
  /// independently, commits) of each thread gets its lifecycle timed and
  /// recorded into the "engine.phase.*_us" histograms; the rest skip every
  /// clock read. 0 samples everything (tests); the default (6: 1 in 64, still
  /// thousands of samples per second at bench throughputs) keeps the
  /// steady-clock + histogram overhead inside the flight_obs_overhead_pct
  /// bar. Only meaningful with `metrics` attached - the histograms live
  /// in the registry.
  uint32_t phase_sample_shift = 6;
};

/// Work counters, aggregated over shards by ShardedMtkEngine::stats().
struct EngineStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  /// Writes Decide skipped as obsolete (kIgnore). The engine runs no Thomas
  /// write rule, so this stays 0; it is kept for callers that count it.
  uint64_t ignored_writes = 0;
  uint64_t set_calls = 0;
  uint64_t elements_assigned = 0;
  uint64_t element_comparisons = 0;
  uint64_t txns_released = 0;
  /// Operations decided while holding a single shard mutex.
  uint64_t single_shard_ops = 0;
  /// Operations that needed the sorted multi-shard lock path.
  uint64_t cross_shard_ops = 0;
  /// Optimistic rounds that had to be retried (lockset changed underfoot).
  uint64_t lock_retries = 0;
  /// Retries that exhausted kMaxLockRetries and locked every shard.
  uint64_t full_lock_fallbacks = 0;
  /// Shard-mutex acquisitions that found the mutex already held (try_lock
  /// failed) and had to block.
  uint64_t lock_contention = 0;
  /// CompactAll() invocations.
  uint64_t compactions = 0;
  /// CommitTxn calls, counted at the commit point.
  uint64_t commits = 0;
  /// Multiversion mode: versions installed (writes accepted into chains,
  /// including RecoverFrom rebuilds) and versions unlinked by garbage
  /// collection (dead-writer unlinks plus watermark truncations).
  uint64_t versions_installed = 0;
  uint64_t versions_gc = 0;
  /// Multiversion mode: versions currently linked across every chain
  /// (excluding the per-item virtual-T0 base) - the quantity the live
  /// watermark bounds; stats() computes it as versions_installed -
  /// versions_gc.
  uint64_t live_versions = 0;
  /// Multiversion mode: reads served by a version other than the newest
  /// live one, and reads that exhausted the whole chain (degenerate vector
  /// states only - the acceptance bar for MV mode is zero).
  uint64_t old_version_reads = 0;
  uint64_t read_rejects = 0;
  /// Per-reason breakdown of `rejected`; stats() computes `rejected` as
  /// reject_reasons.total().
  AbortReasonCounts reject_reasons;
};

/// Thread-safe sharded MT(k) engine (Algorithm 1 run concurrently).
///
/// Layout: shard s owns the items with item % N == s (their RT/WT history
/// stacks), the transaction states with txn % N == s (timestamp vector plus
/// a lock-free liveness word), a per-shard pair of last-column counters
/// whose values are made globally unique by the DMT(k) site encoding
/// value * N + s (Section V's "concatenate the site number as low order
/// bits"), here applied intra-process, and the ColumnClocks the other
/// columns' elements come from (core/encoding.h: the engine's element rule,
/// not Algorithm 1's line 20). Every mutation happens under the owning
/// shard's mutex.
///
/// Processing an operation T_i on item x needs x's shard, i's shard, and
/// the shards of the item's current top reader and writer. Those tops are
/// only known after looking. Round one locks {shard(x), shard(i)} sorted
/// and peeks the tops (liveness is readable without the owner's lock).
/// When a top lives on a shard outside the held set - nearly every op on a
/// large table - that shard is added to the set in place, the tops are
/// resolved again under it, and the op is decided in the same round.
/// Deadlock freedom rests on one rule: block only on a shard above every
/// held shard; try_lock the rest. A thread never waits for a shard below
/// one it holds, so no wait cycle can form (the ordered-locking argument of
/// the paper's Section V-B). Only when a try_lock meets a peer's lock, or a
/// top dies and its successor lives elsewhere, is the op deferred: the
/// engine releases, relocks the rebuilt lockset in ascending order and
/// revalidates; after kMaxLockRetries such rounds it locks every shard,
/// which trivially validates. Every lockset - a round's, the fallback's,
/// and the every-shard sets of CompactAll, RecoverFrom and MvAuditChains -
/// is a ShardSet, locked ascending by LockShards and released descending by
/// UnlockShards.
/// Transaction states live in chunk-granular arrays published through an
/// atomic directory, so the lock-free liveness peeks never race with a
/// growing container. The directory is one lazily backed anonymous mapping
/// per engine with an entry for every chunk a 32-bit TxnId can name; a page
/// of it takes memory only once a chunk pointer is stored there.
///
/// Aborts are lazy, exactly like MtkScheduler: a rejected transaction's
/// item accesses stay on the stacks until a later operation pops entries
/// whose (txn, incarnation) is no longer live. A peer can therefore still
/// order itself against a just-aborted top accessor it observed as live -
/// that encodes TS(ghost) < TS(i) through vectors that still carry the
/// ghost's constraints, which is conservative but sound: the vector order
/// is lexicographic, hence always a strict partial order (Lemma 1), and
/// every acceptance is still justified by the vector values at decision
/// time under the covering locks.
class ShardedMtkEngine {
 public:
  explicit ShardedMtkEngine(const EngineOptions& options);
  ~ShardedMtkEngine();

  ShardedMtkEngine(const ShardedMtkEngine&) = delete;
  ShardedMtkEngine& operator=(const ShardedMtkEngine&) = delete;

  /// Algorithm 1's Scheduler procedure for one operation; thread-safe.
  /// `*reason` (when non-null) receives the classified cause of a kReject,
  /// kNone otherwise. The lock rounds are described in the class comment:
  /// an op the in-place extension cannot cover is retried under a lockset
  /// rebuilt around the tops just observed, and after kMaxLockRetries such
  /// rounds under every shard's lock.
  OpDecision Process(const Op& op, AbortReason* reason = nullptr);

  /// Marks the transaction committed; triggers CompactAll() every
  /// compact_every commits engine-wide. With EngineOptions::wal attached,
  /// the transaction's commit record is appended (and made durable per the
  /// WAL's sync policy) before the commit point.
  void CommitTxn(TxnId txn);

  /// Rebuilds committed state from a WAL recovery on a freshly constructed
  /// engine: re-creates each recovered transaction as committed with its
  /// logged vector, reinstalls the per-item top writers in merged vector
  /// order, and resynchronizes the per-shard last-column counters past
  /// every recovered element (the DMT(k) Section V counter-resync rule,
  /// applied intra-process), so post-recovery admissions order strictly
  /// after recovered state. Returns the number of records applied. Throws
  /// std::invalid_argument when the recovery's k differs from the
  /// engine's.
  size_t RecoverFrom(const WalRecovery& recovery);

  /// Starts a fresh incarnation of an aborted transaction (Section III-D-4
  /// semantics identical to MtkScheduler::RestartTxn).
  void RestartTxn(TxnId txn);

  /// Liveness queries, answered under the owner shard's lock (CompactAll
  /// may be releasing the state's chunk). A released id reads committed:
  /// only committed states are released.
  bool IsAborted(TxnId txn) const;
  bool IsCommitted(TxnId txn) const;

  /// Explain-style rendering of the most recent rejection (engine-wide,
  /// by reject order) through FormatReject. Takes each shard lock in turn;
  /// "no rejection yet" before the first reject.
  std::string ExplainLastReject() const;

  /// Copy of the transaction's current vector, taken under its shard lock.
  TimestampVector TsSnapshot(TxnId txn) const;

  /// Stop-the-world storage reclamation: takes every shard lock, compacts
  /// every item's RT/WT history (AccessHistory::Compact: dead entries and
  /// those below the newest committed entry go, so no decision changes),
  /// and releases the chunk storage of committed transactions no longer
  /// referenced by any item. In multiversion mode
  /// it also sets the GC watermark and prunes every chain (the floor is
  /// described at EngineOptions::multiversion): on an engine with nothing
  /// uncommitted, each chain shrinks to its newest committed version.
  /// Returns the number of transaction states released.
  size_t CompactAll();

  /// Multiversion audit (test support): takes every shard lock and checks
  /// each chain's version-order soundness invariant - every adjacent live
  /// pair of version writers must already be vector-ordered kLess (the
  /// edge DecideMvLocked encoded, or found determined, at install). Also
  /// verifies the stamp invariants (end_stamp == 0 exactly on the newest
  /// version). Returns false on the first violation. Single-version mode:
  /// trivially true.
  bool MvAuditChains() const;

  /// Sum of the per-shard counters.
  EngineStats stats() const;

  /// Transaction states currently backed by allocated chunks (the quantity
  /// CompactAll bounds; chunk-granular, so it exceeds the live count by at
  /// most kChunkSize per shard). Walks each shard's directory from its
  /// base chunk to its highest created one.
  size_t allocated_txn_states() const;

  size_t num_shards() const { return num_shards_; }
  const EngineOptions& options() const { return options_; }

  /// States per chunk: the unit of allocation and of storage release. A
  /// shard's directory has one entry per chunk of the slots its share of
  /// the 32-bit TxnId space can name.
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  /// Committed versions a multiversion chain keeps through any prune but
  /// an explicit all-committed sweep (see EngineOptions::multiversion).
  static constexpr size_t kMvKeepTail = 16;
  /// Optimistic cross-shard lock rounds retried this many times before
  /// falling back to locking every shard.
  static constexpr size_t kMaxLockRetries = 16;
  /// Most shards an engine can have: the width of a ShardSet.
  static constexpr size_t kMaxShards = 256;

 private:
  /// Set of shard indices below kMaxShards, one bit per shard. Iteration
  /// is in index order, which is the engine's lock order.
  class ShardSet {
   public:
    void Add(size_t s) { w_[s / 64] |= uint64_t{1} << (s % 64); }
    void AddAll(const ShardSet& o) {
      for (size_t q = 0; q < kWords; ++q) w_[q] |= o.w_[q];
    }
    bool Covers(const ShardSet& o) const {
      for (size_t q = 0; q < kWords; ++q) {
        if ((o.w_[q] & ~w_[q]) != 0) return false;
      }
      return true;
    }
    /// The members of this set that `o` lacks.
    ShardSet Minus(const ShardSet& o) const {
      ShardSet d;
      for (size_t q = 0; q < kWords; ++q) d.w_[q] = w_[q] & ~o.w_[q];
      return d;
    }
    /// Whether the set has more than one member.
    bool Multiple() const {
      bool seen = false;
      for (const uint64_t w : w_) {
        if (w == 0) continue;
        if (seen || (w & (w - 1)) != 0) return true;
        seen = true;
      }
      return false;
    }
    /// Highest member; the set must not be empty.
    size_t Max() const {
      size_t q = kWords - 1;
      while (w_[q] == 0) --q;
      return q * 64 + 63 - static_cast<size_t>(std::countl_zero(w_[q]));
    }
    /// Calls f(s) for every member s, ascending.
    template <typename F>
    void ForEach(F&& f) const {
      for (size_t q = 0; q < kWords; ++q) {
        for (uint64_t m = w_[q]; m != 0; m &= m - 1) {
          f(q * 64 + static_cast<size_t>(std::countr_zero(m)));
        }
      }
    }
    /// Calls f(s) for every member s, descending.
    template <typename F>
    void ForEachDescending(F&& f) const {
      for (size_t q = kWords; q-- > 0;) {
        for (uint64_t m = w_[q]; m != 0;) {
          const size_t b = 63 - static_cast<size_t>(std::countl_zero(m));
          f(q * 64 + b);
          m &= ~(uint64_t{1} << b);
        }
      }
    }

   private:
    static constexpr size_t kWords = kMaxShards / 64;
    uint64_t w_[kWords] = {};
  };

  /// Liveness word, packed so peers can test liveness without the owning
  /// shard's lock: (incarnation << 2) | (committed << 1) | aborted. A
  /// (txn, incarnation) pair that is ever observed dead stays dead:
  /// RestartTxn bumps the incarnation in the same store that clears the
  /// aborted bit.
  struct TxnState {
    TimestampVector ts;
    uint64_t life = 0;  // Accessed via std::atomic_ref.
    /// Accepted writes of the current incarnation, maintained whenever a
    /// consumer is attached (see track_writes_): CommitTxn moves the list
    /// out for the WAL record, the flight commit record and multiversion
    /// chain pruning; RestartTxn clears it.
    std::vector<ItemId> writes;
    /// Multiversion mode: stamp-clock value at the incarnation's first
    /// decided operation; 0 = not yet assigned. The minimum over live
    /// incarnations is the GC watermark.
    uint64_t begin_stamp = 0;
    explicit TxnState(size_t k) : ts(k) {}
  };

  struct Chunk {
    std::vector<TxnState> states;  // Exactly kChunkSize; never resized.
  };

  /// A multiversion item: its chain (core/version_chain.h) plus the
  /// summaries of it the engine keeps for lockset coverage and unlinking.
  struct MvItem : MvChain {
    /// Shards of the chain's linked writers (a read orders against these
    /// only) and of its writers and readers (a write orders against all of
    /// them). Supersets of the live population - dead accessors' shards
    /// linger until MvUnlinkDeadLocked rebuilds both sets - which is sound
    /// for lockset coverage: a stale shard can only widen the lockset,
    /// never hide a live accessor's shard.
    ShardSet writers;
    ShardSet accessors;
    /// mv_dead_epoch_ value at the chain's last dead-unlink; while no
    /// incarnation has died engine-wide since, the chain can hold no
    /// dead entry and the unlink walk is skipped.
    uint64_t unlink_epoch = 0;
  };

  struct ItemState {
    ReadHistory readers;    // RT(x) and line 10's old readers.
    AccessHistory writers;  // WT(x).
    /// Multiversion mode only; null until the item's first access there.
    std::unique_ptr<MvItem> mv;
  };

  /// Most recent rejection decided on a shard, recorded under its mutex at
  /// the decision point (the locks the reject paths already hold) and read
  /// back by ExplainLastReject. `seq` comes from the engine-wide
  /// reject_seq_ ticket, so the newest record across shards is the one
  /// with the largest seq.
  struct RejectRecord {
    uint64_t seq = 0;  ///< 0 = no rejection recorded yet.
    AbortReason reason = AbortReason::kNone;
    Op op;
    TxnId blocker = kVirtualTxn;
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    uint32_t index = 0;
    /// This shard's slice of dir_: slot / kChunkSize indexes it, through
    /// DirEntry. Published with release stores under mu; liveness peeks
    /// load-acquire without mu.
    Chunk** dir = nullptr;
    uint64_t base_slot = 0;              // Slots below are released.
    uint64_t next_slot = 0;              // One past the highest created.
    std::vector<ItemState> items;        // Local index item / N.
    StripedCounters counters;  // Last-column stripe `index` of N.
    ColumnClocks clocks;       // This shard's clocks for the other columns.
    EngineStats stats;
    /// Newest rejection decided on this shard (see RejectRecord).
    RejectRecord last_reject;
  };

  using Ref = LiveRef<TxnState>;

  static uint64_t LoadLife(const TxnState& s) {
    return std::atomic_ref<uint64_t>(const_cast<TxnState&>(s).life)
        .load(std::memory_order_acquire);
  }
  static void StoreLife(TxnState& s, uint64_t w) {
    std::atomic_ref<uint64_t>(s.life).store(w, std::memory_order_release);
  }
  static bool LifeAborted(uint64_t w) { return (w & 1) != 0; }
  static bool LifeCommitted(uint64_t w) { return (w & 2) != 0; }
  static uint32_t LifeIncarnation(uint64_t w) {
    return static_cast<uint32_t>(w >> 2);
  }

  /// The one shard map: transaction or item `x` lives on shard
  /// ShardIndex(x) at local index LocalIndex(x) (its slot, or its place in
  /// Shard::items). A mask and a shift when the shard count is a power of
  /// two (every bench configuration), a division otherwise: every op maps
  /// several ids, and a 64-bit division costs several ns.
  size_t ShardIndex(uint64_t x) const {
    return pow2_shards_ ? (x & (num_shards_ - 1)) : (x % num_shards_);
  }
  uint64_t LocalIndex(uint64_t x) const {
    return pow2_shards_ ? (x >> shard_shift_) : (x / num_shards_);
  }

  Shard& ShardForTxn(TxnId txn) const { return shards_[ShardIndex(txn)]; }
  Shard& ShardForItem(ItemId item) const { return shards_[ShardIndex(item)]; }

  /// Directory entry `ci` of `sh`, accessed atomically in place.
  static std::atomic_ref<Chunk*> DirEntry(const Shard& sh, uint64_t ci) {
    return std::atomic_ref<Chunk*>(sh.dir[ci]);
  }

  /// Calls f(entry) for every directory entry of `sh` that can hold a
  /// chunk: from base_slot's chunk (Compact frees every chunk below it)
  /// through next_slot - 1's. Requires sh.mu or exclusive access.
  template <typename F>
  static void ForEachDirEntry(const Shard& sh, F&& f) {
    for (uint64_t ci = sh.base_slot >> kChunkBits;
         ci * kChunkSize < sh.next_slot; ++ci) {
      f(DirEntry(sh, ci));
    }
  }

  /// Lock-free state lookup for liveness peeks; null only for ids never
  /// created (which a stack entry can never reference).
  TxnState* PeekState(TxnId txn) const;

  /// State lookup/creation; requires the owning shard's mutex.
  TxnState& StateLocked(Shard& sh, TxnId txn);

  ItemState& ItemLocked(Shard& sh, ItemId item);

  /// The access-history probe: liveness decoded from the lock-free life
  /// word, so a history can resolve or compact under shard(item)'s mutex
  /// alone (the stacks' mutation is what that mutex guards).
  auto Probe() const {
    return [this](TxnId txn) {
      TxnState* s = PeekState(txn);
      const uint64_t w = LoadLife(*s);
      return TxnLife<TxnState>{s, LifeIncarnation(w), LifeAborted(w),
                               LifeCommitted(w)};
    };
  }

  VectorCompareResult CompareStates(Shard& shx, const TxnState& a,
                                    const TxnState& b);

  /// Algorithm 1's Set(j, i) under the covering locks, running the shared
  /// core/encoding.h helper with shard shx's counters for last-column
  /// assignments. On false, `why` receives the classified cause (kLexOrder
  /// or kEncodingExhausted).
  bool SetStates(Shard& shx, TxnState& sj, TxnState& si, TxnId j, TxnId i,
                 AbortReason* why);

  /// The decision body for a live (neither aborted nor committed)
  /// transaction; every referenced shard's mutex is held (for a write, the
  /// item's live old readers' too). On kReject, `*why` (when non-null)
  /// receives the classified cause.
  OpDecision DecideLocked(const Op& op, Shard& shx, ItemState& item,
                          TxnState& si, const Ref& jr, const Ref& jw,
                          AbortReason* why);

  /// Multiversion decision body: runs the shared MvChain read walk or
  /// write placement (core/version_chain.h) with SetStates as its Set, then
  /// stamps and counts what it did. Held: shard(item), shard(txn) and the
  /// shards of the chain's writers (for a write, also of its readers).
  OpDecision DecideMvLocked(const Op& op, Shard& shx, MvItem& chain,
                            TxnState& si, AbortReason* why);

  /// Stamps a version just linked into `chain` (begin stamp, the end stamp
  /// of the version it superseded, the coverage sets) and counts it.
  void MvInstalledLocked(Shard& shx, MvItem& chain, MvVersion& v);

  /// MvChain::UnlinkDead unless nothing died engine-wide since the chain's
  /// last unlink (`dead_epoch`, read before the call), then the rebuild of
  /// both coverage sets; counts the unlinked versions as versions_gc. Dead
  /// is permanent, so shard(item).mu alone suffices.
  void MvUnlinkDeadLocked(Shard& shx, MvItem& chain, uint64_t dead_epoch);

  /// Watermark truncation: drops the oldest-prefix of versions below the
  /// `keep` newest committed ones whose end and read stamps are both below
  /// `watermark` (no live or future transaction can see them). Requires
  /// shard(item).mu. `force` (sweeps) bypasses the hysteresis gate that
  /// the per-commit incremental path uses to skip chains still within
  /// keep + slack of their floor.
  void MvPruneLocked(Shard& shx, MvItem& chain, uint64_t watermark,
                     size_t keep, bool force);

  /// Publishes `watermark`, unlinks dead state from every chain something
  /// died in since its last scrub, and prunes every chain against the
  /// watermark, keeping `keep` committed versions each. Every shard mutex
  /// is held.
  void MvSweepLocked(uint64_t watermark, size_t keep);

  /// Records one attributed phase slice: microseconds into the
  /// "engine.phase.<name>_us" histogram (exemplar-tagged with the
  /// transaction id) and, when tracing is enabled, a matching
  /// completed span carrying the same id - the p99-bucket-to-span link.
  void RecordPhase(TxnPhase phase, uint64_t ns, TxnId tag);

  /// Which sampling sequence an event advances (see SamplePhases).
  enum PhaseSeq : size_t { kOpSeq = 0, kCommitSeq = 1 };

  /// True for the 1-in-2^phase_sample_shift events that get timed (always
  /// false without a registry: the histograms would have nowhere to go).
  /// The sequences are per thread, so sampling puts no shared atomic on
  /// every op and commit.
  bool SamplePhases(PhaseSeq which) const {
    static thread_local uint64_t seq[2];
    return m_phase_[0] != nullptr && (seq[which]++ & phase_mask_) == 0;
  }

  /// Appends to s.writes. The list is sized once, on the incarnation's
  /// first write, so a typical write set costs one allocation (CommitTxn
  /// moves the list out, so every committing writer starts empty).
  static void AddWrite(TxnState& s, ItemId x) {
    if (s.writes.empty()) s.writes.reserve(8);
    s.writes.push_back(x);
  }

  /// Every step of a reject, in one place: counts it (reject_reasons on
  /// shx), overwrites shx.last_reject with a
  /// fresh-ticketed record for ExplainLastReject, writes `*why` (when
  /// non-null) and writes the flight abort record carrying `si`'s vector
  /// (null for T0's invalid op). Requires shx.mu and, for a non-null `si`,
  /// its owner shard's. A site that then seeds TS(i) does so after this
  /// call, so the record shows the vector that was refused.
  OpDecision RejectLocked(Shard& shx, const Op& op, AbortReason reason,
                          TxnId blocker, const TxnState* si, AbortReason* why);

  /// A reject that ends the incarnation: sets its aborted bit (and, in
  /// multiversion mode only, bumps mv_dead_epoch_ so chains scrub the new
  /// death), then RejectLocked.
  OpDecision AbortLocked(Shard& shx, const Op& op, AbortReason reason,
                         TxnId blocker, TxnState& si, AbortReason* why);

  /// Acquires sh.mu, counting the acquisition as contended (per-shard
  /// stats, trace instant) when try_lock fails first.
  void LockShard(Shard& sh) const;

  /// The one multi-shard acquisition: LockShard on every member of `set`,
  /// ascending (the lock order), and the release, descending.
  void LockShards(const ShardSet& set) const;
  void UnlockShards(const ShardSet& set) const;

  /// CompactAll's body; `periodic` marks the compact_every sweep
  /// CommitTxn triggers (see EngineOptions::multiversion for the floor).
  size_t Compact(bool periodic);

  EngineOptions options_;
  size_t num_shards_;
  /// Whether TxnState::writes is maintained: a WAL, a flight recorder or
  /// multiversion mode consumes the write set at commit. Fixed at
  /// construction.
  bool track_writes_;
  /// Whether num_shards_ is a power of two, and then its log2 (see
  /// ShardIndex).
  bool pow2_shards_;
  uint32_t shard_shift_;
  mutable std::deque<Shard> shards_;  // Deque: Shard is not movable.
  /// Unmaps the directory mapping of `bytes`.
  struct DirUnmap {
    size_t bytes;
    void operator()(Chunk** dir) const;
  };
  /// Every shard's chunk directory, one anonymous mapping cut into equal
  /// slices, shard s's at Shard::dir. Pages fault in, zeroed, only where a
  /// chunk pointer lands.
  std::unique_ptr<Chunk*[], DirUnmap> dir_;
  /// Every shard: the kMaxLockRetries fallback's lockset and the
  /// stop-the-world lockset of Compact, RecoverFrom and MvAuditChains.
  ShardSet all_shards_;
  TxnState t0_;                       // Immutable after construction.
  /// Engine-wide commit counter driving the compact_every trigger. Relaxed:
  /// an occasional early or late CompactAll is harmless.
  std::atomic<uint64_t> commits_since_compact_{0};

  /// Ticket clock ordering RejectRecords across shards.
  std::atomic<uint64_t> reject_seq_{0};

  // Multiversion clocks and gauges. The stamp clock orders version
  // installs and reads for GC visibility only (serialization order is the
  // vectors'); relaxed increments suffice because every chain mutation
  // that uses a stamp happens under the item's shard lock.
  /// Engine-wide begin/end/read stamp clock; next value to hand out.
  std::atomic<uint64_t> mv_stamp_{1};
  /// Oldest live incarnation's begin stamp as of the last CompactAll;
  /// CommitTxn prunes written chains against it between sweeps.
  std::atomic<uint64_t> mv_watermark_{0};
  /// Bumped (release) right after any store that sets an incarnation's
  /// aborted bit. Chains compare their unlink_epoch against it to skip
  /// the per-op dead-unlink walk when nothing can have died. Starts at 1
  /// so a fresh chain (epoch 0) always takes its first unlink, which also
  /// seeds its coverage sets.
  std::atomic<uint64_t> mv_dead_epoch_{1};

  /// Starvation gauge ("engine.max_consecutive_aborts"); null without a
  /// registry. Every counter reaches the registry through the collector.
  Gauge* m_consec_aborts_ = nullptr;

  /// Phase-attribution state: the per-phase histograms (null without a
  /// registry) and the sampling mask (2^phase_sample_shift - 1).
  Histogram* m_phase_[kNumTxnPhases] = {};
  uint64_t phase_mask_ = 0;
};

}  // namespace mdts

#endif  // MDTS_ENGINE_SHARDED_ENGINE_H_
