#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/log.h"
#include "core/mtk_scheduler.h"
#include "core/types.h"
#include "obs/abort_reason.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace mdts {
namespace {

// ---------------------------------------------------------------------------
// Single-shard equivalence: with num_shards = 1 the engine must accept
// exactly the logs MtkScheduler accepts with column_clocks on (the element
// rule the engine always runs) and assign the same vectors, since its
// counter encoding value * N + shard degenerates to the scheduler's plain
// counters at N = 1 and its one shard's ColumnClocks to the scheduler's.
// The engine's protocol options are k and the starvation fix; every cell
// of that grid is covered.
// ---------------------------------------------------------------------------

struct EquivConfig {
  size_t k;
  bool starvation_fix;
};

std::vector<EquivConfig> EquivGrid() {
  std::vector<EquivConfig> grid;
  for (const size_t k : {1, 2, 3, 5}) {
    for (const bool fix : {false, true}) grid.push_back({k, fix});
  }
  return grid;
}

std::string EquivName(const EquivConfig& cfg) {
  return "k=" + std::to_string(cfg.k) +
         " fix=" + std::to_string(cfg.starvation_fix);
}

void RunEquivalence(const EquivConfig& cfg, uint64_t seed) {
  MtkOptions mo;
  mo.k = cfg.k;
  mo.starvation_fix = cfg.starvation_fix;
  mo.column_clocks = true;
  MtkScheduler sched(mo);

  EngineOptions eo;
  eo.k = cfg.k;
  eo.num_shards = 1;
  eo.starvation_fix = cfg.starvation_fix;
  ShardedMtkEngine engine(eo);

  std::mt19937_64 rng(seed);
  constexpr ItemId kItems = 12;
  constexpr size_t kLive = 24;
  constexpr size_t kSteps = 4000;

  std::vector<TxnId> live;
  TxnId next_txn = 1;
  for (size_t n = 0; n < kLive; ++n) live.push_back(next_txn++);
  std::vector<TxnId> all_txns = live;

  for (size_t step = 0; step < kSteps; ++step) {
    const TxnId i = live[rng() % live.size()];
    ASSERT_EQ(sched.IsAborted(i), engine.IsAborted(i)) << "step " << step;
    if (sched.IsAborted(i)) {
      if (rng() % 2 == 0) {
        sched.RestartTxn(i);
        engine.RestartTxn(i);
      }
      continue;
    }
    if (rng() % 16 == 0) {
      sched.CommitTxn(i);
      engine.CommitTxn(i);
      // Replace with a fresh transaction so the workload keeps moving.
      auto it = std::find(live.begin(), live.end(), i);
      *it = next_txn;
      all_txns.push_back(next_txn);
      ++next_txn;
      continue;
    }
    Op op;
    op.txn = i;
    op.type = rng() % 8 < 5 ? OpType::kRead : OpType::kWrite;
    op.item = static_cast<ItemId>(rng() % kItems);
    const OpDecision ds = sched.Process(op);
    const OpDecision de = engine.Process(op);
    ASSERT_EQ(ds, de) << "step " << step << " txn " << i << " item "
                      << op.item;
  }

  for (TxnId t : all_txns) {
    ASSERT_EQ(sched.IsAborted(t), engine.IsAborted(t)) << "txn " << t;
    ASSERT_EQ(sched.IsCommitted(t), engine.IsCommitted(t)) << "txn " << t;
    EXPECT_TRUE(sched.Ts(t) == engine.TsSnapshot(t))
        << "txn " << t << ": " << sched.Ts(t).ToString() << " vs "
        << engine.TsSnapshot(t).ToString();
  }
  EXPECT_TRUE(sched.Ts(kVirtualTxn) == engine.TsSnapshot(kVirtualTxn));
}

TEST(EngineEquivalenceTest, SingleShardMatchesSchedulerAcrossConfigs) {
  uint64_t seed = 20260805;
  for (const EquivConfig& cfg : EquivGrid()) {
    SCOPED_TRACE(EquivName(cfg));
    RunEquivalence(cfg, seed++);
  }
}

TEST(EngineEquivalenceTest, SingleShardMatchesSchedulerWithCompaction) {
  // Compaction on both sides must not change any decision.
  MtkOptions mo;
  mo.k = 3;
  mo.starvation_fix = true;
  mo.compact_every = 32;
  mo.column_clocks = true;
  MtkScheduler sched(mo);

  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 1;
  eo.starvation_fix = true;
  eo.compact_every = 32;
  ShardedMtkEngine engine(eo);

  std::mt19937_64 rng(7);
  std::vector<TxnId> live;
  TxnId next_txn = 1;
  for (size_t n = 0; n < 16; ++n) live.push_back(next_txn++);

  for (size_t step = 0; step < 6000; ++step) {
    TxnId& slot = live[rng() % live.size()];
    const TxnId i = slot;
    if (sched.IsAborted(i)) {
      sched.RestartTxn(i);
      engine.RestartTxn(i);
      continue;
    }
    if (rng() % 8 == 0) {
      sched.CommitTxn(i);
      engine.CommitTxn(i);
      slot = next_txn++;
      continue;
    }
    Op op;
    op.txn = i;
    op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
    op.item = static_cast<ItemId>(rng() % 8);
    ASSERT_EQ(sched.Process(op), engine.Process(op)) << "step " << step;
  }
  EXPECT_GT(engine.stats().txns_released, 0u);
  EXPECT_GT(engine.stats().compactions, 0u);
}

// The nine-op reproducer of
// MtkSchedulerTest.CompactionKeepsLiveAccessorsBelowTheTop on the engine:
// compaction must keep T1 below RT(x)'s top T2, so once T2
// aborts W4[x] orders T1 -> T4 and R1[y] (after W4[y]) rejects.
TEST(EngineCompactionTest, CompactionKeepsLiveAccessorsBelowTheTop) {
  constexpr ItemId x = 0, y = 1, z = 2, w = 3;
  auto read = [](TxnId t, ItemId i) { return Op{t, OpType::kRead, i}; };
  auto write = [](TxnId t, ItemId i) { return Op{t, OpType::kWrite, i}; };
  for (const size_t k : {2, 3}) {
    for (const bool compact : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   (compact ? " compacted" : " plain"));
      EngineOptions eo;
      eo.k = k;
      eo.num_shards = 1;
      ShardedMtkEngine engine(eo);
      for (const Op& op :
           {read(1, x), read(2, x), write(2, z), read(3, z), write(3, w)}) {
        ASSERT_EQ(engine.Process(op), OpDecision::kAccept) << OpName(op);
      }
      if (compact) engine.CompactAll();
      EXPECT_EQ(engine.Process(read(2, w)), OpDecision::kReject);
      EXPECT_EQ(engine.Process(write(4, x)), OpDecision::kAccept);
      EXPECT_EQ(engine.Process(write(4, y)), OpDecision::kAccept);
      EXPECT_EQ(engine.Process(read(1, y)), OpDecision::kReject);
    }
  }
}

// MtkSchedulerTest.WriteIsOrderedAfterOldReadersOfAnAbortedTop on the
// engine: W25[x] must order itself after T16, the line-10 reader of x that
// RT(x)'s aborted top T7 covered, and at k = 1 it cannot. With 4 shards the
// write's lockset must also take T16's shard.
TEST(ShardedEngineTest, WriteIsOrderedAfterOldReadersOfAnAbortedTop) {
  const Log log = *Log::Parse(
      "R19[x] R25[z] R16[w] R7[x] R16[x] R8[u] W7[u] W25[x] W25[y] R16[y]");
  const OpDecision a = OpDecision::kAccept, r = OpDecision::kReject;
  const OpDecision want[] = {a, a, a, a, a, a, r, r, r, a};
  for (const size_t shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineOptions eo;
    eo.k = 1;
    eo.num_shards = shards;
    ShardedMtkEngine engine(eo);
    for (size_t n = 0; n < log.size(); ++n) {
      AbortReason why = AbortReason::kNone;
      EXPECT_EQ(engine.Process(log.at(n), &why), want[n]) << OpName(log.at(n));
      if (n == 7) {
        EXPECT_EQ(why, AbortReason::kLexOrder);
        EXPECT_NE(engine.ExplainLastReject().find("blocker T16"),
                  std::string::npos)
            << engine.ExplainLastReject();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Compaction transparency: two instances receive the same closed loop of
// operations; `plain` never compacts and `compacted` compacts after every
// step. They must make identical decisions and assign identical vectors,
// on every cell of the option grid.
// ---------------------------------------------------------------------------

struct TwinConfig {
  size_t k;
  bool starvation_fix;
  bool disable_old_read_path;
  bool thomas_write_rule;
  bool optimized_encoding;
};

std::vector<TwinConfig> TwinGrid() {
  std::vector<TwinConfig> grid;
  for (size_t k = 1; k <= 3; ++k) {
    for (int bits = 0; bits < 16; ++bits) {
      grid.push_back({k, (bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                      (bits & 8) != 0});
    }
  }
  return grid;
}

std::string TwinName(const TwinConfig& c) {
  return "k=" + std::to_string(c.k) +
         " fix=" + std::to_string(c.starvation_fix) +
         " no_old_read=" + std::to_string(c.disable_old_read_path) +
         " thomas=" + std::to_string(c.thomas_write_rule) +
         " optimized=" + std::to_string(c.optimized_encoding);
}

// `ts(sys, txn)` returns a transaction's current vector; `compact(sys)`
// runs the instance's full compaction.
template <typename Sys, typename Ts, typename Compact>
void RunCompactionTwins(Sys& plain, Sys& compacted, Ts ts, Compact compact,
                        uint64_t seed) {
  Rng rng(seed);
  constexpr int64_t kItems = 8;
  constexpr size_t kInFlight = 6;
  constexpr size_t kSteps = 1500;
  std::vector<TxnId> live;
  TxnId next_txn = 1;
  for (size_t n = 0; n < kInFlight; ++n) live.push_back(next_txn++);
  for (size_t step = 0; step < kSteps; ++step) {
    TxnId& slot = live[rng.Uniform(0, kInFlight - 1)];
    const TxnId i = slot;
    ASSERT_EQ(plain.IsAborted(i), compacted.IsAborted(i)) << "step " << step;
    if (plain.IsAborted(i)) {
      plain.RestartTxn(i);
      compacted.RestartTxn(i);
    } else if (rng.Chance(1.0 / 6)) {
      plain.CommitTxn(i);
      compacted.CommitTxn(i);
      slot = next_txn++;
    } else {
      const Op op{i, rng.Chance(0.6) ? OpType::kRead : OpType::kWrite,
                  static_cast<ItemId>(rng.Uniform(0, kItems - 1))};
      ASSERT_EQ(plain.Process(op), compacted.Process(op))
          << "step " << step << " " << OpName(op);
      ASSERT_TRUE(ts(plain, i) == ts(compacted, i))
          << "step " << step << " " << OpName(op) << ": "
          << ts(plain, i).ToString() << " vs " << ts(compacted, i).ToString();
    }
    compact(compacted);
  }
  for (TxnId t : live) {
    EXPECT_TRUE(ts(plain, t) == ts(compacted, t)) << "txn " << t;
  }
}

TEST(CompactionTwinTest, SchedulerCompactCommittedChangesNoDecision) {
  uint64_t seed = 20261017;
  for (const TwinConfig& c : TwinGrid()) {
    SCOPED_TRACE(TwinName(c));
    MtkOptions mo;
    mo.k = c.k;
    mo.starvation_fix = c.starvation_fix;
    mo.disable_old_read_path = c.disable_old_read_path;
    mo.thomas_write_rule = c.thomas_write_rule;
    mo.optimized_encoding = c.optimized_encoding;
    MtkScheduler plain(mo);
    MtkScheduler compacted(mo);
    RunCompactionTwins(
        plain, compacted,
        [](MtkScheduler& s, TxnId t) { return s.Ts(t); },
        [](MtkScheduler& s) { s.CompactCommitted(); }, seed++);
  }
}

TEST(CompactionTwinTest, EngineCompactAllChangesNoDecision) {
  for (const size_t shards : {1, 4}) {
    uint64_t seed = 20261017;
    for (size_t k = 1; k <= 3; ++k) {
      for (const bool fix : {false, true}) {
        SCOPED_TRACE(EquivName({k, fix}) +
                     " shards=" + std::to_string(shards));
        EngineOptions eo;
        eo.k = k;
        eo.num_shards = shards;
        eo.starvation_fix = fix;
        ShardedMtkEngine plain(eo);
        ShardedMtkEngine compacted(eo);
        RunCompactionTwins(
            plain, compacted,
            [](ShardedMtkEngine& e, TxnId t) { return e.TsSnapshot(t); },
            [](ShardedMtkEngine& e) { e.CompactAll(); }, seed++);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, DisjointPartitionsAllCommitWithoutCrossShardLocks) {
  constexpr size_t kThreads = 4;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = kThreads;
  eo.compact_every = 128;
  ShardedMtkEngine engine(eo);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      // Thread t's transactions and items all live on shard t, so every
      // operation should take the single-shard path.
      for (uint32_t n = 0; n < 2000; ++n) {
        const TxnId txn = static_cast<TxnId>((n + 1) * kThreads + t);
        const ItemId item = static_cast<ItemId>((n % 16) * kThreads + t);
        Op r{txn, OpType::kRead, item};
        Op w{txn, OpType::kWrite, item};
        ASSERT_EQ(engine.Process(r), OpDecision::kAccept);
        ASSERT_EQ(engine.Process(w), OpDecision::kAccept);
        engine.CommitTxn(txn);
      }
    });
  }
  for (auto& th : threads) th.join();

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.accepted, kThreads * 2000 * 2);
  EXPECT_EQ(st.cross_shard_ops, 0u);
  EXPECT_EQ(st.single_shard_ops, kThreads * 2000 * 2);
  EXPECT_GT(st.txns_released, 0u);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(engine.IsCommitted(static_cast<TxnId>(kThreads + t)));
  }
}

TEST(ShardedEngineTest, ContendedHammerCommitsEveryTransaction) {
  constexpr size_t kThreads = 4;
  constexpr uint32_t kTxnsPerThread = 1500;
  constexpr ItemId kItems = 64;  // Shared: plenty of cross-shard traffic.
  EngineOptions eo;
  eo.k = 7;
  eo.num_shards = 4;
  eo.starvation_fix = true;
  eo.compact_every = 256;
  ShardedMtkEngine engine(eo);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      std::mt19937_64 rng(1000 + t);
      for (uint32_t n = 0; n < kTxnsPerThread; ++n) {
        const TxnId txn =
            static_cast<TxnId>(1 + t + n * kThreads);  // Globally unique.
        size_t attempts = 0;
        for (;;) {  // Closed loop: retry until the transaction commits.
          ASSERT_LT(++attempts, 100000u) << "txn " << txn << " starved";
          bool ok = true;
          const size_t ops = 1 + rng() % 3;
          for (size_t o = 0; o < ops && ok; ++o) {
            Op op;
            op.txn = txn;
            op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
            op.item = static_cast<ItemId>(rng() % kItems);
            ok = engine.Process(op) != OpDecision::kReject;
          }
          if (ok) {
            engine.CommitTxn(txn);
            break;
          }
          engine.RestartTxn(txn);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const EngineStats st = engine.stats();
  EXPECT_GT(st.accepted, 0u);
  EXPECT_GT(st.compactions, 0u);
  for (size_t t = 0; t < kThreads; ++t) {
    for (uint32_t n = 0; n < kTxnsPerThread; n += 97) {
      const TxnId txn = static_cast<TxnId>(1 + t + n * kThreads);
      EXPECT_TRUE(engine.IsCommitted(txn)) << "txn " << txn;
      EXPECT_FALSE(engine.IsAborted(txn)) << "txn " << txn;
    }
  }
  // Compaction kept storage bounded by live transactions, not history:
  // 6000 committed transactions across 4 shards must not pin 6000 states.
  EXPECT_LE(engine.allocated_txn_states(),
            2 * ShardedMtkEngine::kChunkSize * eo.num_shards);
}

// Regression: with many shards and a handful of hot items, the top
// reader/writer of an item shifts between lock-acquisition rounds, so the
// retry loop sees a different pair of top shards every attempt. The lockset
// must be rebuilt per round (item, issuer, reader, writer - at most four),
// not widened cumulatively: the original widening overflowed the fixed
// lockset array and unlocked mutexes it had never locked.
TEST(ShardedEngineTest, ManyShardsHotItemsKeepLocksetBounded) {
  constexpr size_t kThreads = 4;
  constexpr uint32_t kTxnsPerThread = 800;
  constexpr ItemId kItems = 8;  // Very hot: tops churn constantly.
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 32;  // Far more shards than hot items.
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      std::mt19937_64 rng(7000 + t);
      for (uint32_t n = 0; n < kTxnsPerThread; ++n) {
        const TxnId txn = static_cast<TxnId>(1 + t + n * kThreads);
        size_t attempts = 0;
        for (;;) {
          ASSERT_LT(++attempts, 100000u) << "txn " << txn << " starved";
          bool ok = true;
          const size_t ops = 1 + rng() % 3;
          for (size_t o = 0; o < ops && ok; ++o) {
            Op op;
            op.txn = txn;
            op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
            op.item = static_cast<ItemId>(rng() % kItems);
            ok = engine.Process(op) != OpDecision::kReject;
          }
          if (ok) {
            engine.CommitTxn(txn);
            break;
          }
          engine.RestartTxn(txn);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const EngineStats st = engine.stats();
  // Every decided operation went through exactly one covered lock round
  // (no operations were issued by T0 here, which would skip the count).
  EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected,
            st.single_shard_ops + st.cross_shard_ops);
  for (size_t t = 0; t < kThreads; ++t) {
    const TxnId last = static_cast<TxnId>(1 + t + (kTxnsPerThread - 1) * kThreads);
    EXPECT_TRUE(engine.IsCommitted(last));
  }
}

// Regression: on a large table nearly every op's top reader or writer lives
// on a third shard, outside {shard(x), shard(i)}. Uncontended, the engine
// must take that shard into the held lockset and decide in the same round;
// releasing everything and relocking cost about one extra round per op.
// 256 shards is kMaxShards, the top word of a ShardSet.
TEST(ShardedEngineTest, UncontendedCrossShardOpsDecideInOneRound) {
  constexpr ItemId kItems = 4096;
  constexpr uint32_t kTxns = 2000;
  constexpr size_t kOpsPerTxn = 6;
  for (const size_t shards : {size_t{32}, ShardedMtkEngine::kMaxShards}) {
    SCOPED_TRACE(shards);
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = shards;
    eo.starvation_fix = true;
    ShardedMtkEngine engine(eo);

    std::mt19937_64 rng(14);
    for (TxnId txn = 1; txn <= kTxns; ++txn) {
      for (size_t attempts = 0;; ++attempts) {
        ASSERT_LT(attempts, 1000u) << "txn " << txn << " starved";
        bool ok = true;
        for (size_t o = 0; o < kOpsPerTxn && ok; ++o) {
          Op op;
          op.txn = txn;
          op.type = rng() % 10 < 6 ? OpType::kRead : OpType::kWrite;
          op.item = static_cast<ItemId>(rng() % kItems);
          ok = engine.Process(op) != OpDecision::kReject;
        }
        if (ok) break;
        engine.RestartTxn(txn);
      }
      engine.CommitTxn(txn);
    }

    const EngineStats st = engine.stats();
    EXPECT_EQ(st.lock_retries, 0u);
    EXPECT_EQ(st.full_lock_fallbacks, 0u);
    EXPECT_GT(st.cross_shard_ops, 0u);
    EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected,
              st.single_shard_ops + st.cross_shard_ops);
  }
}

// A multiversion read orders against the chain's writers only, a write
// also against every chain reader. 100 readers of one item on 100 of 128
// shards therefore cost each other nothing, and the writer after them
// extends its lockset in place over all 100 reader shards: every op is
// decided in its first round, with no full lock.
TEST(ShardedEngineTest, MvAccessorsOnManyShardsDecideInOneRound) {
#if defined(__SANITIZE_THREAD__)
  // The writer holds 101 shard mutexes at once (and MvAuditChains all
  // 128), past the 64 locks per thread ThreadSanitizer's deadlock detector
  // can track. The test is single-threaded, so the race detector has
  // nothing to add here.
  GTEST_SKIP() << "needs more than 64 mutexes held by one thread";
#endif
  constexpr size_t kShards = 128;
  constexpr ItemId kHot = 64;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = kShards;
  eo.multiversion = true;
  ShardedMtkEngine engine(eo);

  // Txn t lives on shard t: 100 readers of the hot item on 100 shards.
  for (TxnId t = 1; t <= 100; ++t) {
    ASSERT_EQ(engine.Process(Op{t, OpType::kRead, kHot}), OpDecision::kAccept)
        << "reader T" << t;
  }
  // Txn 192 (shard 64) writes the hot item: its chain readers lie on 100
  // shards, 63 below its own and 36 above.
  ASSERT_EQ(engine.Process(Op{kShards + kHot, OpType::kWrite, kHot}),
            OpDecision::kAccept);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.lock_retries, 0u);
  EXPECT_EQ(st.full_lock_fallbacks, 0u);
  EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected,
            st.single_shard_ops + st.cross_shard_ops);
  EXPECT_TRUE(engine.MvAuditChains());
}

// A ShardSet spans kMaxShards shards; a larger engine is refused up front
// rather than locking a set it cannot represent. (kMaxShards itself runs in
// UncontendedCrossShardOpsDecideInOneRound.) The clamp to one shard stays.
TEST(ShardedEngineTest, ShardCountAboveTheCapThrows) {
  EngineOptions eo;
  eo.num_shards = ShardedMtkEngine::kMaxShards + 1;
  EXPECT_THROW(ShardedMtkEngine{eo}, std::invalid_argument);
  eo.num_shards = 0;
  EXPECT_EQ(ShardedMtkEngine(eo).num_shards(), 1u);
}

// The chunk directory covers every slot a 32-bit TxnId can name, and only
// the chunks that hold a state take memory: a sparse id far past the first
// 2^26 slots of a shard is served like any other, and the walk behind
// allocated_txn_states() finds just its chunk.
TEST(ShardedEngineTest, TxnIdsPastTheOldDirectoryLimit) {
  {
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = 1;
    ShardedMtkEngine engine(eo);
    const TxnId txn = (TxnId{1} << 26) + 5;
    ASSERT_EQ(engine.Process(Op{txn, OpType::kWrite, 7}), OpDecision::kAccept);
    engine.CommitTxn(txn);
    engine.CompactAll();
    EXPECT_TRUE(engine.IsCommitted(txn));
    EXPECT_FALSE(engine.IsAborted(txn));
    EXPECT_EQ(engine.allocated_txn_states(), ShardedMtkEngine::kChunkSize);
  }
  {
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = 32;
    ShardedMtkEngine engine(eo);
    const TxnId txn = std::numeric_limits<TxnId>::max() - 1;
    ASSERT_EQ(engine.Process(Op{txn, OpType::kRead, 3}), OpDecision::kAccept);
    ASSERT_EQ(engine.Process(Op{txn, OpType::kWrite, 4}), OpDecision::kAccept);
    engine.CommitTxn(txn);
    EXPECT_TRUE(engine.IsCommitted(txn));
  }
}

TEST(ShardedEngineTest, CompactionBoundsMemorySingleThreaded) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.compact_every = 64;
  ShardedMtkEngine engine(eo);

  for (TxnId txn = 1; txn <= 20000; ++txn) {
    Op r{txn, OpType::kRead, static_cast<ItemId>(txn % 8)};
    Op w{txn, OpType::kWrite, static_cast<ItemId>(txn % 8)};
    ASSERT_NE(engine.Process(r), OpDecision::kReject);
    ASSERT_NE(engine.Process(w), OpDecision::kReject);
    engine.CommitTxn(txn);
  }
  // 20000 committed states would need 20 chunks per shard uncompacted.
  EXPECT_LE(engine.allocated_txn_states(),
            2 * ShardedMtkEngine::kChunkSize * eo.num_shards);
  EXPECT_GT(engine.stats().txns_released, 15000u);
  // Released ids still answer liveness queries.
  EXPECT_TRUE(engine.IsCommitted(1));
  EXPECT_FALSE(engine.IsAborted(1));
}

TEST(ShardedEngineTest, RejectionMarksAbortedAndRestartRevives) {
  EngineOptions eo;
  eo.k = 1;  // One element: the second conflicting txn order is forced.
  eo.num_shards = 2;
  ShardedMtkEngine engine(eo);

  ASSERT_EQ(engine.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process(Op{2, OpType::kWrite, 0}), OpDecision::kAccept);
  // T1 now tries to write after T2 took the later position: with k = 1 the
  // order TS(1) < TS(2) is fully determined, so this write must reject.
  ASSERT_EQ(engine.Process(Op{1, OpType::kWrite, 0}), OpDecision::kReject);
  EXPECT_TRUE(engine.IsAborted(1));
  // Operations of an aborted transaction reject outright.
  EXPECT_EQ(engine.Process(Op{1, OpType::kRead, 1}), OpDecision::kReject);
  engine.RestartTxn(1);
  EXPECT_FALSE(engine.IsAborted(1));
  EXPECT_EQ(engine.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
}

TEST(ShardedEngineTest, VirtualTransactionIsProtectedAndImmutable) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 4;
  ShardedMtkEngine engine(eo);
  EXPECT_EQ(engine.Process(Op{kVirtualTxn, OpType::kRead, 0}),
            OpDecision::kReject);
  EXPECT_TRUE(engine.IsCommitted(kVirtualTxn));
  EXPECT_FALSE(engine.IsAborted(kVirtualTxn));
  const TimestampVector t0 = engine.TsSnapshot(kVirtualTxn);
  EXPECT_TRUE(t0 == TimestampVector::Virtual(3));
  for (TxnId t = 1; t <= 100; ++t) {
    engine.Process(Op{t, OpType::kRead, t % 5});
    engine.Process(Op{t, OpType::kWrite, t % 5});
  }
  EXPECT_TRUE(engine.TsSnapshot(kVirtualTxn) == t0);
}

// Rejects must land in EngineStats.reject_reasons, in the registry's
// collected counters and in the flight recorder: per-reason equality,
// total() == rejected, and one flight record per commit and per reject of
// any reason. Single-version and multiversion mode alike.
TEST(ShardedEngineTest, BatchRejectsReconcileWithStatsAndRegistry) {
  for (const bool multiversion : {false, true}) {
    SCOPED_TRACE(multiversion ? "multiversion" : "single-version");
    MetricsRegistry reg;
    FlightRecorderOptions fo;
    fo.rings = 1;
    fo.capacity = 16384;  // More than the run records: nothing overwritten.
    fo.k = 2;
    FlightRecorder flight(fo);
    EngineOptions eo;
    eo.k = 2;  // Small vectors: plenty of lex-order / exhausted rejects.
    eo.num_shards = 4;
    eo.multiversion = multiversion;
    eo.metrics = &reg;
    eo.flight = &flight;
    ShardedMtkEngine engine(eo);

    std::mt19937_64 rng(20260805);
    constexpr ItemId kItems = 4;
    constexpr size_t kRounds = 400;
    constexpr size_t kOpsPerRound = 16;
    std::vector<TxnId> live;
    TxnId next_txn = 1;
    for (size_t n = 0; n < 12; ++n) live.push_back(next_txn++);

    uint64_t commits = 0;
    uint64_t ops = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t q = 0; q < kOpsPerRound; ++q) {
        // Mix in T0 submissions (kInvalidOp) and operations of transactions
        // aborted earlier in the run or earlier in this very round
        // (kStaleTxn) alongside ordinary conflicting traffic.
        Op op;
        op.txn = rng() % 32 == 0 ? kVirtualTxn : live[rng() % live.size()];
        op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
        op.item = static_cast<ItemId>(rng() % kItems);
        AbortReason why = AbortReason::kStaleTxn;
        const OpDecision d = engine.Process(op, &why);
        EXPECT_EQ(d == OpDecision::kReject, why != AbortReason::kNone);
        ++ops;
      }
      for (TxnId& slot : live) {
        if (engine.IsAborted(slot)) {
          if (rng() % 2 == 0) engine.RestartTxn(slot);
        } else if (rng() % 8 == 0) {
          engine.CommitTxn(slot);
          ++commits;
          slot = next_txn++;
        }
      }
    }

    const EngineStats st = engine.stats();
    EXPECT_GT(st.rejected, 0u);
    EXPECT_EQ(st.reject_reasons.total(), st.rejected);
    EXPECT_GT(st.reject_reasons[multiversion ? AbortReason::kVersionConflict
                                             : AbortReason::kLexOrder],
              0u);
    EXPECT_GT(st.reject_reasons[AbortReason::kStaleTxn], 0u);
    EXPECT_GT(st.reject_reasons[AbortReason::kInvalidOp], 0u);
    EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected, ops);

    const auto snap = reg.Snapshot();
    EXPECT_EQ(snap.CounterValue("engine.accepted"), st.accepted);
    EXPECT_EQ(snap.CounterSum("engine.rejected."), st.rejected);
    for (size_t r = 1; r < kNumAbortReasons; ++r) {
      const AbortReason reason = static_cast<AbortReason>(r);
      EXPECT_EQ(snap.CounterValue(std::string("engine.rejected.") +
                                  AbortReasonName(reason)),
                st.reject_reasons[reason])
          << AbortReasonName(reason);
    }

    // Every reject reaches the flight recorder - stale and invalid
    // operations included - and every record survived the oversized ring.
    const AbortReasonCounts fr = flight.abort_reasons();
    for (size_t r = 0; r < kNumAbortReasons; ++r) {
      EXPECT_EQ(fr.counts[r], st.reject_reasons.counts[r])
          << AbortReasonName(static_cast<AbortReason>(r));
    }
    EXPECT_EQ(st.commits, commits);
    EXPECT_EQ(flight.Drain().size(), commits + st.rejected);
  }
}

// ---------------------------------------------------------------------------
// ExplainLastReject: per-reason rendering.
// ---------------------------------------------------------------------------

TEST(ExplainLastRejectTest, FreshEngineHasNothingToExplain) {
  EngineOptions eo;
  eo.k = 2;
  ShardedMtkEngine engine(eo);
  EXPECT_EQ(engine.ExplainLastReject(), "no rejection yet");
}

TEST(ExplainLastRejectTest, LexOrderRejectNamesReasonAndBlocker) {
  // MT(1) degenerates to timestamp ordering: once T2 has taken the later
  // write position on x, T1's attempt to write x again has no legal
  // position and rejects with T2 as the blocking transaction.
  EngineOptions eo;
  eo.k = 1;
  eo.num_shards = 1;
  ShardedMtkEngine engine(eo);
  EXPECT_EQ(engine.Process({1, OpType::kWrite, 7}), OpDecision::kAccept);
  EXPECT_EQ(engine.Process({2, OpType::kWrite, 7}), OpDecision::kAccept);
  ASSERT_EQ(engine.Process({1, OpType::kWrite, 7}), OpDecision::kReject);
  const std::string out = engine.ExplainLastReject();
  EXPECT_NE(out.find("W1[i7]"), std::string::npos) << out;
  EXPECT_NE(out.find("rejected: "), std::string::npos) << out;
  EXPECT_NE(out.find("blocker T2"), std::string::npos) << out;
}

TEST(ExplainLastRejectTest, InvalidOpRendersWithoutBlocker) {
  EngineOptions eo;
  eo.k = 2;
  eo.num_shards = 2;
  ShardedMtkEngine engine(eo);
  Op bad;
  bad.txn = kVirtualTxn;  // The reserved id is not admissible traffic.
  bad.type = OpType::kWrite;
  bad.item = 3;
  ASSERT_EQ(engine.Process(bad), OpDecision::kReject);
  const std::string out = engine.ExplainLastReject();
  EXPECT_NE(out.find("invalid_op"), std::string::npos) << out;
  EXPECT_EQ(out.find("blocker"), std::string::npos) << out;
}

}  // namespace
}  // namespace mdts
