// Multiversion engine suite (labeled engine-mv so ctest --preset tsan
// -L engine-mv can run exactly this binary):
//
//  1. Differential: with num_shards == 1 the engine's multiversion mode
//     must make bit-identical decisions and assign bit-identical vectors
//     to the src/mvcc MvMtkScheduler it ports, across ops per round and
//     protocol variants, on seeded closed-loop workloads.
//  2. Concurrency: multi-threaded chain traffic with commit-side GC and
//     CompactAll sweeps must be race-clean, keep every chain's version
//     order encoded (MvAuditChains), reconcile stats with the registry,
//     and keep live versions bounded.
//  3. GC: the live watermark must reclaim superseded versions once no live
//     transaction can reach them, and never a version a live reader pins.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "core/types.h"
#include "engine/sharded_engine.h"
#include "mvcc/mv_scheduler.h"
#include "obs/metrics.h"

namespace mdts {
namespace {

bool SameVector(const TimestampVector& a, const TimestampVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t m = 0; m < a.size(); ++m) {
    if (a.IsDefined(m) != b.IsDefined(m)) return false;
    if (a.IsDefined(m) && a.Get(m) != b.Get(m)) return false;
  }
  return true;
}

// Feeds identical seeded closed-loop traffic to a single-shard multiversion
// engine and the reference MvMtkScheduler (with the engine's column
// clocks), `batch` operations per round, one Process call each in order on
// both. The two must agree operation by operation - decisions,
// per-transaction vectors, and the version/read counters.
struct DifferentialRun {
  size_t k = 3;
  bool starvation_fix = false;
  size_t batch = 1;
  uint64_t seed = 1;
  size_t txn_width = 4;     // Concurrent transactions in the closed loop.
  size_t ops_per_txn = 5;
  ItemId items = 8;
  uint32_t target_commits = 120;
  size_t max_restarts = 64;  // Per transaction id, then it is abandoned.
};

void RunDifferential(const DifferentialRun& cfg) {
  EngineOptions eo;
  eo.k = cfg.k;
  eo.num_shards = 1;
  eo.multiversion = true;
  eo.starvation_fix = cfg.starvation_fix;
  ShardedMtkEngine engine(eo);

  MvMtkOptions mo;
  mo.k = cfg.k;
  mo.starvation_fix = cfg.starvation_fix;
  mo.column_clocks = true;
  MvMtkScheduler ref(mo);

  std::mt19937_64 rng(cfg.seed);
  struct Slot {
    TxnId txn = 0;
    size_t done = 0;
    size_t restarts = 0;
  };
  std::vector<Slot> slots(cfg.txn_width);
  TxnId next_txn = 1;
  for (Slot& s : slots) s.txn = next_txn++;

  std::vector<Op> ops;
  std::vector<OpDecision> dec(cfg.batch);
  std::vector<AbortReason> why(cfg.batch);
  uint32_t commits = 0;
  uint64_t rounds = 0;
  while (commits < cfg.target_commits) {
    ASSERT_LT(++rounds, 200000u) << "differential loop starved";
    ops.clear();
    for (size_t b = 0; b < cfg.batch; ++b) {
      const Slot& s = slots[rng() % slots.size()];
      Op op;
      op.txn = s.txn;
      op.type = rng() % 5 < 3 ? OpType::kRead : OpType::kWrite;
      op.item = static_cast<ItemId>(rng() % cfg.items);
      ops.push_back(op);
    }
    for (size_t b = 0; b < ops.size(); ++b) {
      dec[b] = engine.Process(ops[b], &why[b]);
    }
    for (size_t b = 0; b < ops.size(); ++b) {
      const OpDecision rd = ref.Process(ops[b]);
      ASSERT_EQ(dec[b], rd)
          << "decision divergence at round " << rounds << " op " << b
          << " txn T" << ops[b].txn << " item " << ops[b].item << " "
          << (ops[b].type == OpType::kRead ? "read" : "write")
          << " reason " << AbortReasonName(why[b]);
      if (rd == OpDecision::kReject) {
        ASSERT_EQ(why[b], ref.last_reject().reason)
            << "reason divergence at round " << rounds << " op " << b;
      }
    }
    // Terminal handling mirrors in both; vectors must match throughout.
    for (Slot& s : slots) {
      const bool ea = engine.IsAborted(s.txn);
      ASSERT_EQ(ea, ref.IsAborted(s.txn)) << "T" << s.txn;
      ASSERT_TRUE(SameVector(engine.TsSnapshot(s.txn), ref.Ts(s.txn)))
          << "vector divergence on T" << s.txn << ": engine "
          << engine.TsSnapshot(s.txn).ToString() << " ref "
          << ref.Ts(s.txn).ToString();
      if (ea) {
        if (++s.restarts > cfg.max_restarts) {
          s.txn = next_txn++;  // Abandon the starving id.
          s.restarts = 0;
          s.done = 0;
          continue;
        }
        engine.RestartTxn(s.txn);
        ref.RestartTxn(s.txn);
        s.done = 0;
      }
    }
    // Progress accounting: accepted ops per slot come from the decisions.
    size_t cursor = 0;
    for (const Op& op : ops) {
      const OpDecision d = dec[cursor++];
      if (d != OpDecision::kAccept) continue;
      for (Slot& s : slots) {
        if (s.txn != op.txn || engine.IsAborted(s.txn)) continue;
        if (++s.done >= cfg.ops_per_txn) {
          engine.CommitTxn(s.txn);
          ref.CommitTxn(s.txn);
          ++commits;
          s.txn = next_txn++;
          s.done = 0;
          s.restarts = 0;
        }
        break;
      }
    }
  }

  const EngineStats st = engine.stats();
  const MvMtkStats& rs = ref.stats();
  EXPECT_EQ(st.versions_installed, rs.versions_created);
  EXPECT_EQ(st.old_version_reads, rs.old_version_reads);
  EXPECT_EQ(st.read_rejects, rs.read_rejects);
  EXPECT_TRUE(engine.MvAuditChains());
  EXPECT_TRUE(ref.AuditMvsgAcyclic());
}

TEST(EngineMvDifferentialTest, MatchesMvSchedulerPerOp) {
  DifferentialRun cfg;
  cfg.batch = 1;
  cfg.seed = 11;
  RunDifferential(cfg);
}

TEST(EngineMvDifferentialTest, MatchesMvSchedulerAcrossBatchSizes) {
  for (const size_t batch : {2u, 4u, 8u}) {
    DifferentialRun cfg;
    cfg.batch = batch;
    cfg.seed = 100 + batch;
    RunDifferential(cfg);
  }
}

TEST(EngineMvDifferentialTest, MatchesMvSchedulerWithStarvationFix) {
  for (const size_t batch : {1u, 4u}) {
    DifferentialRun cfg;
    cfg.starvation_fix = true;
    cfg.batch = batch;
    cfg.seed = 200 + batch;
    RunDifferential(cfg);
  }
}

TEST(EngineMvDifferentialTest, MatchesMvSchedulerAtOtherVectorSizes) {
  for (const size_t k : {2u, 4u}) {
    DifferentialRun cfg;
    cfg.k = k;
    cfg.batch = 4;
    cfg.seed = 300 + k;
    RunDifferential(cfg);
  }
}

TEST(EngineMvDifferentialTest, HighContentionSingleItem) {
  DifferentialRun cfg;
  cfg.items = 2;
  cfg.batch = 4;
  cfg.starvation_fix = true;
  cfg.seed = 41;
  cfg.target_commits = 80;
  RunDifferential(cfg);
}

// ---------------------------------------------------------------------------
// Basic semantics.

TEST(EngineMvTest, ReadsNeverAbortUnderWriteContention) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);

  // Writers create versions of item 0; interleaved readers must all be
  // served (from some version) without a single read-induced abort.
  TxnId next = 1;
  for (int round = 0; round < 40; ++round) {
    const TxnId w = next++;
    const TxnId r = next++;
    OpDecision dw = engine.Process({w, OpType::kWrite, 0});
    OpDecision dr = engine.Process({r, OpType::kRead, 0});
    EXPECT_EQ(dr, OpDecision::kAccept) << "round " << round;
    engine.CommitTxn(r);
    if (dw == OpDecision::kAccept) {
      engine.CommitTxn(w);
    } else {
      engine.RestartTxn(w);
    }
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.read_rejects, 0u);
  EXPECT_GT(st.versions_installed, 0u);
  EXPECT_TRUE(engine.MvAuditChains());
}

TEST(EngineMvTest, WriteConflictClassifiedAsVersionConflict) {
  EngineOptions eo;
  eo.k = 2;  // Small vectors exhaust encodings quickly.
  eo.num_shards = 1;
  eo.multiversion = true;
  ShardedMtkEngine engine(eo);

  // A reader ordered after a would-be writer blocks the write: the
  // classic reader-blocks-older-writer multiversion conflict.
  ASSERT_EQ(engine.Process({1, OpType::kWrite, 0}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({2, OpType::kRead, 0}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({2, OpType::kWrite, 1}), OpDecision::kAccept);
  engine.CommitTxn(1);
  engine.CommitTxn(2);
  // T3 reads item 1 (ordering it after T2), then tries to write item 0,
  // whose chain tops are T1's version read by T2 - T3 can still place a
  // version after T1's, so drive the conflict through a reader of the
  // NEWEST version: T4 reads item 0 (served by T1's version), T5 must now
  // order after T4 to write item 0... keep writing until a reject shows
  // up and assert its classification instead of scripting the exact state.
  AbortReason why = AbortReason::kNone;
  bool saw_reject = false;
  TxnId t = 3;
  for (; t < 300 && !saw_reject; ++t) {
    const OpDecision dr = engine.Process({t, OpType::kRead, 0}, &why);
    ASSERT_EQ(dr, OpDecision::kAccept);
    const OpDecision dw = engine.Process({t, OpType::kWrite, 0}, &why);
    if (dw == OpDecision::kReject) {
      saw_reject = true;
      EXPECT_EQ(why, AbortReason::kVersionConflict)
          << AbortReasonName(why);
      break;
    }
    engine.CommitTxn(t);
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.reject_reasons.counts[static_cast<size_t>(
                AbortReason::kVersionConflict)],
            st.rejected);
}

TEST(EngineMvTest, ReadAfterSweepIsOrderedPastTheNewestWriter) {
  // W1[c] C1 R2[c] W2[d] C2, an all-committed sweep (d's chain keeps only
  // T2's version), then W3[e] R3[d]. Under Algorithm 1's line 20, T3's first
  // element would come from T0 alone (1), T2 (2) would already be ordered
  // after T3 and the walk would reject with kLexOrder - the paper-rule
  // scheduler still does (MvSchedulerTest.ReadWalkFailureAfterPruneIsLexOrder).
  // The engine's column clock hands T3 an element past every one its shard
  // has seen (3), so R3[d] reads T2's version, the newest.
  constexpr ItemId kC = 0, kD = 1, kE = 2;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 1;
  eo.multiversion = true;
  ShardedMtkEngine engine(eo);
  ASSERT_EQ(engine.Process({1, OpType::kWrite, kC}), OpDecision::kAccept);
  engine.CommitTxn(1);
  ASSERT_EQ(engine.Process({2, OpType::kRead, kC}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({2, OpType::kWrite, kD}), OpDecision::kAccept);
  engine.CommitTxn(2);
  engine.CompactAll();
  ASSERT_EQ(engine.Process({3, OpType::kWrite, kE}), OpDecision::kAccept);
  AbortReason why = AbortReason::kNone;
  EXPECT_EQ(engine.Process({3, OpType::kRead, kD}, &why), OpDecision::kAccept)
      << AbortReasonName(why);
  EXPECT_EQ(Compare(engine.TsSnapshot(2), engine.TsSnapshot(3)).order,
            VectorOrder::kLess);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.read_rejects, 0u);
  EXPECT_EQ(st.old_version_reads, 0u);
  engine.CommitTxn(3);
  EXPECT_TRUE(engine.MvAuditChains());
}

TEST(EngineMvTest, StatsReconcileWithRegistryMirror) {
  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.starvation_fix = true;
  eo.metrics = &reg;
  eo.compact_every = 16;
  ShardedMtkEngine engine(eo);

  std::mt19937_64 rng(7);
  TxnId next = 1;
  for (int round = 0; round < 400; ++round) {
    const TxnId t = next++;
    for (int o = 0; o < 4; ++o) {
      engine.Process({t, rng() % 2 == 0 ? OpType::kRead : OpType::kWrite,
                      static_cast<ItemId>(rng() % 8)});
    }
    if (engine.IsAborted(t)) {
      engine.RestartTxn(t);
    } else {
      engine.CommitTxn(t);
    }
  }
  const EngineStats st = engine.stats();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("engine.accepted"), st.accepted);
  EXPECT_EQ(snap.CounterSum("engine.rejected."), st.rejected);
  EXPECT_EQ(snap.CounterValue("engine.versions_installed"),
            st.versions_installed);
  EXPECT_EQ(snap.CounterValue("engine.versions_gc"), st.versions_gc);
  EXPECT_EQ(snap.CounterValue("engine.lock_contention"), st.lock_contention);
  EXPECT_EQ(snap.CounterValue("engine.commits"), st.commits);
  EXPECT_EQ(snap.CounterValue("engine.compactions"), st.compactions);
  EXPECT_EQ(snap.GaugeValue("engine.live_versions"),
            static_cast<int64_t>(st.live_versions));
  EXPECT_EQ(st.live_versions, st.versions_installed - st.versions_gc);
}

// ---------------------------------------------------------------------------
// Garbage collection.

TEST(EngineMvGcTest, WatermarkReclaimsSupersededVersions) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);

  // 50 committed writer generations on one item, no readers pinning
  // anything: after a sweep with no live transactions, the chain must
  // shrink to the newest committed version.
  for (TxnId t = 1; t <= 50; ++t) {
    ASSERT_EQ(engine.Process({t, OpType::kWrite, 0}), OpDecision::kAccept);
    engine.CommitTxn(t);
  }
  EngineStats st = engine.stats();
  EXPECT_EQ(st.versions_installed, 50u);
  engine.CompactAll();
  st = engine.stats();
  EXPECT_EQ(st.live_versions, 1u) << "chain did not shrink to the newest "
                                     "committed version";
  EXPECT_EQ(st.versions_gc, st.versions_installed - st.live_versions);
  EXPECT_TRUE(engine.MvAuditChains());

  // New transactions still order strictly after the surviving version.
  ASSERT_EQ(engine.Process({51, OpType::kRead, 0}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({51, OpType::kWrite, 0}), OpDecision::kAccept);
  engine.CommitTxn(51);
}

// Aborts `a` through a scripted write conflict on the spare items y and z
// and leaves it aborted, awaiting RestartTxn. `a` and `r` both read y's
// version by `wy` (so both order after wy), `a` reads z and `r` then
// writes z (so a < r). a's write of y now has no slot: after wy's version
// it would precede its reader r, before it it would precede wy. The
// starvation fix seeds a's first element just past r's.
void AbortWithSeed(ShardedMtkEngine& engine, TxnId a, TxnId wy, TxnId r,
                   ItemId y, ItemId z) {
  ASSERT_EQ(engine.Process({wy, OpType::kWrite, y}), OpDecision::kAccept);
  engine.CommitTxn(wy);
  ASSERT_EQ(engine.Process({a, OpType::kRead, y}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({a, OpType::kRead, z}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({r, OpType::kRead, y}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({r, OpType::kWrite, z}), OpDecision::kAccept);
  engine.CommitTxn(r);
  AbortReason why = AbortReason::kNone;
  ASSERT_EQ(engine.Process({a, OpType::kWrite, y}, &why),
            OpDecision::kReject);
  ASSERT_EQ(why, AbortReason::kVersionConflict);
  ASSERT_TRUE(engine.IsAborted(a));
}

TEST(EngineMvGcTest, KeepTailPreservesReadFallbackVersions) {
  // An explicit sweep's floor follows the transaction population: with a
  // live or aborted transaction each chain keeps the kMvKeepTail newest
  // committed versions as read fallbacks; with every created transaction
  // committed it shrinks to the newest one. Superseded versions below the
  // floor still go either way.
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);
  const uint64_t tail = ShardedMtkEngine::kMvKeepTail;

  TxnId t = 1;
  auto write_generations = [&](int n) {
    for (int g = 0; g < n; ++g, ++t) {
      ASSERT_EQ(engine.Process({t, OpType::kWrite, 0}), OpDecision::kAccept);
      engine.CommitTxn(t);
    }
  };

  // Live: a reader that began after every install pins nothing on item 0,
  // yet the sweep keeps the tail.
  write_generations(50);
  const TxnId live = t++;
  ASSERT_EQ(engine.Process({live, OpType::kRead, 1}), OpDecision::kAccept);
  engine.CompactAll();
  EngineStats st = engine.stats();
  EXPECT_EQ(st.live_versions, tail)
      << "a sweep with a live transaction must keep the tail";
  EXPECT_EQ(st.versions_gc, st.versions_installed - st.live_versions);
  EXPECT_TRUE(engine.MvAuditChains());

  // Nothing uncommitted: the next sweep shrinks the chain to one version.
  engine.CommitTxn(live);
  engine.CompactAll();
  st = engine.stats();
  EXPECT_EQ(st.live_versions, 1u)
      << "an all-committed sweep must keep only the newest version";
  EXPECT_TRUE(engine.MvAuditChains());

  // Aborted and awaiting restart: the tail is kept again (items 2 and 3
  // carry the conflict's own version, one of the 1 + tail survivors).
  const TxnId a = t++, wy = t++, r = t++;
  AbortWithSeed(engine, a, wy, r, 2, 3);
  write_generations(40);
  engine.CompactAll();
  st = engine.stats();
  EXPECT_EQ(st.live_versions, tail + 2)
      << "a sweep with an aborted transaction must keep the tail";
  EXPECT_TRUE(engine.MvAuditChains());
}

TEST(EngineMvGcTest, SeededRestartReadsAfterSweep) {
  // A starvation-fix restart keeps the vector its rejection seeded, so it
  // is not free to order before every writer. Here the seed lands past
  // r's elements but below every later writer of item 0; a sweep that cut
  // item 0's chain to its newest version would leave the restarted read
  // nothing to order after.
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 1;
  eo.multiversion = true;
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);

  const TxnId a = 1, wy = 2, r = 3;
  AbortWithSeed(engine, a, wy, r, /*y=*/1, /*z=*/2);
  for (TxnId w = 4; w < 10; ++w) {
    ASSERT_EQ(engine.Process({w, OpType::kWrite, 0}), OpDecision::kAccept);
    engine.CommitTxn(w);
  }
  EXPECT_EQ(Compare(engine.TsSnapshot(a), engine.TsSnapshot(9)).order,
            VectorOrder::kLess)
      << "the seed must already order the restart before the newest writer";
  engine.CompactAll();
  engine.RestartTxn(a);
  AbortReason why = AbortReason::kNone;
  EXPECT_EQ(engine.Process({a, OpType::kRead, 0}, &why), OpDecision::kAccept)
      << AbortReasonName(why);
  EXPECT_EQ(engine.stats().read_rejects, 0u);
  engine.CommitTxn(a);
  EXPECT_TRUE(engine.MvAuditChains());
}

TEST(EngineMvGcTest, PeriodicSweepKeepsFallbacksForFreshReaders) {
  // The compact_every sweep runs mid-traffic, so it keeps the tail even
  // when it finds everything committed: the next transaction's first read
  // pins its vector (here just past item 1's writer), and its read of item
  // 0 must then fall back below item 0's newest writer. Items 0 and 1 live
  // on different shards, and shard 1's column clock has seen none of item
  // 0's writers (elements 1..6): T7 gets 1 there and T8 2, below T6.
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.starvation_fix = true;
  eo.compact_every = 7;  // Fires at the seventh commit below.
  ShardedMtkEngine engine(eo);

  for (TxnId w = 1; w <= 6; ++w) {
    ASSERT_EQ(engine.Process({w, OpType::kWrite, 0}), OpDecision::kAccept);
    engine.CommitTxn(w);
  }
  ASSERT_EQ(engine.Process({7, OpType::kWrite, 1}), OpDecision::kAccept);
  engine.CommitTxn(7);
  EXPECT_EQ(engine.stats().compactions, 1u);
  EXPECT_EQ(engine.stats().live_versions, 7u);

  AbortReason why = AbortReason::kNone;
  ASSERT_EQ(engine.Process({8, OpType::kRead, 1}), OpDecision::kAccept);
  ASSERT_EQ(Compare(engine.TsSnapshot(6), engine.TsSnapshot(8)).order,
            VectorOrder::kGreater)
      << "T8 must already be pinned below item 0's newest writer";
  EXPECT_EQ(engine.Process({8, OpType::kRead, 0}, &why), OpDecision::kAccept)
      << AbortReasonName(why);
  EXPECT_EQ(engine.stats().old_version_reads, 1u);
  engine.CommitTxn(8);
  EXPECT_TRUE(engine.MvAuditChains());
}

TEST(EngineMvGcTest, LiveTransactionPinsItsVisibleVersions) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);

  // A long-running reader begins (first op pins its begin stamp), then
  // writers supersede the version population behind it. The sweep's
  // watermark is the reader's begin stamp, so every version stamped at or
  // after it survives.
  ASSERT_EQ(engine.Process({1, OpType::kRead, 1}), OpDecision::kAccept);
  for (TxnId t = 2; t <= 21; ++t) {
    ASSERT_EQ(engine.Process({t, OpType::kWrite, 0}), OpDecision::kAccept);
    engine.CommitTxn(t);
  }
  engine.CompactAll();
  const EngineStats mid = engine.stats();
  EXPECT_GT(mid.live_versions, 1u)
      << "sweep reclaimed versions the live reader could still reach";

  // The reader finishes; the next sweep passes the whole clock again.
  engine.CommitTxn(1);
  engine.CompactAll();
  const EngineStats fin = engine.stats();
  EXPECT_EQ(fin.live_versions, 1u);
  EXPECT_TRUE(engine.MvAuditChains());
}

TEST(EngineMvGcTest, CommitSidePruningBoundsChainsBetweenSweeps) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.starvation_fix = true;
  eo.compact_every = 25;  // Periodic sweeps refresh the watermark...
  ShardedMtkEngine engine(eo);

  // ...and the commit hook prunes written chains against it in between,
  // so a hot item's chain stays near-constant instead of growing with
  // total history.
  uint64_t peak = 0;
  for (TxnId t = 1; t <= 400; ++t) {
    ASSERT_EQ(engine.Process({t, OpType::kWrite, 0}), OpDecision::kAccept);
    engine.CommitTxn(t);
    peak = std::max(peak, engine.stats().live_versions);
  }
  EXPECT_LE(peak, 60u) << "live versions grew with history instead of "
                          "being bounded by the watermark";
  EXPECT_TRUE(engine.MvAuditChains());
}

// ---------------------------------------------------------------------------
// Concurrency (race-clean under TSan; chain order and reconciliation hold).

uint64_t MvWorker(ShardedMtkEngine& engine, size_t t, size_t stride,
                  uint32_t txns_to_commit, ItemId items, size_t ops_per_txn,
                  uint64_t seed, std::atomic<uint64_t>* read_accepts) {
  std::mt19937_64 rng(seed);
  TxnId txn = static_cast<TxnId>(1 + t);
  uint32_t started = 1;
  uint64_t committed = 0;
  size_t done = 0;
  uint64_t rounds = 0;
  while (committed < txns_to_commit) {
    if (++rounds > 2000000) {
      ADD_FAILURE() << "mv worker " << t << " starved at " << committed;
      break;
    }
    const size_t width = 1 + rng() % 4;
    size_t accepted = 0;
    for (size_t b = 0; b < width; ++b) {
      const Op op{txn, rng() % 5 < 3 ? OpType::kRead : OpType::kWrite,
                  static_cast<ItemId>(rng() % items)};
      if (engine.Process(op) != OpDecision::kAccept) continue;
      ++accepted;
      if (op.type == OpType::kRead) {
        read_accepts->fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (engine.IsAborted(txn)) {
      engine.RestartTxn(txn);
      done = 0;
      continue;
    }
    done += accepted;
    if (done >= ops_per_txn) {
      engine.CommitTxn(txn);
      ++committed;
      txn = static_cast<TxnId>(1 + t + started * stride);
      ++started;
      done = 0;
    }
  }
  return committed;
}

void RunChainAndGcRaces(size_t shards) {
  constexpr size_t kWorkers = 4;
  constexpr uint32_t kTxnsPerWorker = 250;
  constexpr ItemId kItems = 16;
  constexpr size_t kOpsPerTxn = 4;

  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = shards;
  eo.multiversion = true;
  eo.starvation_fix = true;
  eo.metrics = &reg;
  eo.compact_every = 64;
  ShardedMtkEngine engine(eo);

  std::atomic<uint64_t> read_accepts{0};
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // A dedicated antagonist hammers CompactAll and stats() while workers
  // mutate chains - the sweep / decision / commit-prune interleavings are
  // exactly what the suite exists to exercise under TSan.
  std::thread antagonist([&] {
    while (!stop.load(std::memory_order_acquire)) {
      engine.CompactAll();
      (void)engine.stats();
      std::this_thread::yield();
    }
  });
  for (size_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      MvWorker(engine, t, kWorkers, kTxnsPerWorker, kItems, kOpsPerTxn,
               0x9E3779B97F4A7C15ull * (t + 1), &read_accepts);
    });
  }
  for (std::thread& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  antagonist.join();

  EXPECT_TRUE(engine.MvAuditChains());

  const EngineStats st = engine.stats();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("engine.accepted"), st.accepted);
  EXPECT_EQ(snap.CounterSum("engine.rejected."), st.rejected);
  EXPECT_EQ(snap.CounterValue("engine.versions_installed"),
            st.versions_installed);
  EXPECT_EQ(snap.CounterValue("engine.versions_gc"), st.versions_gc);
  EXPECT_EQ(st.live_versions, st.versions_installed - st.versions_gc);

  // Bounded memory: a final sweep with nothing live leaves at most one
  // version per item.
  engine.CompactAll();
  EXPECT_LE(engine.stats().live_versions, static_cast<uint64_t>(kItems));

  // The multiversion payoff held under concurrency: reads were served.
  EXPECT_GT(read_accepts.load(), 0u);
}

TEST(EngineMvConcurrencyTest, ChainAndGcRaces) { RunChainAndGcRaces(4); }

// Above 64 shards: chain coverage, in-place extensions and the every-shard
// locksets of CompactAll and MvAuditChains span several ShardSet words.
TEST(EngineMvConcurrencyTest, ChainAndGcRacesOn128Shards) {
#if defined(__SANITIZE_THREAD__)
  // CompactAll holds all 128 shard mutexes at once, past the 64 locks per
  // thread ThreadSanitizer's deadlock detector can track.
  GTEST_SKIP() << "needs more than 64 mutexes held by one thread";
#endif
  RunChainAndGcRaces(128);
}

TEST(EngineMvConcurrencyTest, ReadsDoNotAbortAcrossThreads) {
  constexpr size_t kWorkers = 3;
  EngineOptions eo;
  eo.k = 4;
  eo.num_shards = 4;
  eo.multiversion = true;
  eo.starvation_fix = true;
  eo.compact_every = 128;
  ShardedMtkEngine engine(eo);

  std::atomic<uint64_t> read_accepts{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      MvWorker(engine, t, kWorkers, 150, 8, 4,
               0xD1B54A32D192ED03ull * (t + 1), &read_accepts);
    });
  }
  for (std::thread& th : threads) th.join();

  // Reads are reject-free except when GC truncation plus exhausted
  // encodings leaves no orderable version (rare by construction): allow
  // at most 1% of accepted reads, against an SV baseline where roughly
  // half of all ops abort at this contention.
  const EngineStats st = engine.stats();
  EXPECT_LE(st.read_rejects * 100, read_accepts.load())
      << "multiversion reads aborted under concurrent write traffic: "
      << st.read_rejects << " rejects / " << read_accepts.load()
      << " accepts";
  EXPECT_TRUE(engine.MvAuditChains());
}

}  // namespace
}  // namespace mdts
