// Engine concurrency suite: Process / CommitTxn / RestartTxn / CompactAll
// traffic and liveness queries from several threads must be race-clean
// (the suite is labeled engine-concurrency so ctest --preset tsan -L
// engine-concurrency runs exactly this binary under ThreadSanitizer) and
// must reconcile its counters afterwards. Also the closed-loop client's
// pinned counts on the engine.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/metrics.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

// One worker keeping `width` transactions open, one Process call per
// transaction per round in slot order - the closed-loop shape of
// InterleavedLoop. Returns the number of transactions committed.
uint64_t InterleavedWorker(ShardedMtkEngine& engine, size_t t, size_t stride,
                           size_t width, uint32_t txns_to_commit,
                           ItemId items, size_t ops_per_txn, uint64_t seed) {
  std::mt19937_64 rng(seed);
  struct Slot {
    TxnId txn = 0;
    size_t done = 0;  // Accepted operations so far.
  };
  std::vector<Slot> slots(width);
  uint32_t started = 0;
  uint64_t committed = 0;
  for (Slot& s : slots) {
    s.txn = static_cast<TxnId>(1 + t + started * stride);
    ++started;
  }
  std::vector<OpDecision> dec(width);
  uint64_t rounds = 0;
  while (committed < txns_to_commit) {
    if (++rounds > 2000000) {
      ADD_FAILURE() << "interleaved worker " << t << " starved at "
                    << committed << "/" << txns_to_commit;
      break;
    }
    for (size_t b = 0; b < width; ++b) {
      Op op;
      op.txn = slots[b].txn;
      op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
      op.item = static_cast<ItemId>(rng() % items);
      dec[b] = engine.Process(op);
    }
    for (size_t b = 0; b < width; ++b) {
      Slot& s = slots[b];
      if (dec[b] == OpDecision::kReject) {
        engine.RestartTxn(s.txn);
        s.done = 0;
        continue;
      }
      if (++s.done < ops_per_txn) continue;
      engine.CommitTxn(s.txn);
      ++committed;
      s.txn = static_cast<TxnId>(1 + t + started * stride);
      ++started;
      s.done = 0;
    }
  }
  return committed;
}

TEST(EngineBatchConcurrencyTest, MixedBatchPerOpAndCompactionTraffic) {
  constexpr size_t kInterleavedWorkers = 2;
  constexpr size_t kPerOpWorkers = 1;
  constexpr size_t kStride = kInterleavedWorkers + kPerOpWorkers;
  constexpr uint32_t kTxnsPerWorker = 400;
  constexpr ItemId kItems = 32;
  constexpr size_t kOpsPerTxn = 4;

  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 7;
  eo.num_shards = 8;
  eo.starvation_fix = true;
  eo.metrics = &reg;
  ShardedMtkEngine engine(eo);

  std::atomic<uint64_t> committed{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kInterleavedWorkers; ++t) {
    threads.emplace_back([&engine, &committed, t] {
      committed += InterleavedWorker(engine, t, kStride, /*width=*/8,
                                     kTxnsPerWorker, kItems, kOpsPerTxn,
                                     900 + t);
    });
  }
  for (size_t t = kInterleavedWorkers; t < kStride; ++t) {
    threads.emplace_back([&engine, &committed, t] {
      // Per-op closed loop sharing the same items and shard set.
      std::mt19937_64 rng(900 + t);
      for (uint32_t n = 0; n < kTxnsPerWorker; ++n) {
        const TxnId txn = static_cast<TxnId>(1 + t + n * kStride);
        size_t attempts = 0;
        for (;;) {
          // Generous bound: on a loaded single-core machine one per-op
          // transaction can lose many scheduling rounds to the 16
          // concurrent interleaved transactions before making progress.
          ASSERT_LT(++attempts, 2000000u) << "txn " << txn << " starved";
          bool ok = true;
          for (size_t o = 0; o < kOpsPerTxn && ok; ++o) {
            Op op;
            op.txn = txn;
            op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
            op.item = static_cast<ItemId>(rng() % kItems);
            ok = engine.Process(op) != OpDecision::kReject;
          }
          if (ok) {
            engine.CommitTxn(txn);
            ++committed;
            break;
          }
          engine.RestartTxn(txn);
        }
      }
    });
  }
  // Churn worker: stop-the-world compactions, stats merges and vector
  // snapshots racing the admission traffic.
  threads.emplace_back([&engine, &done] {
    uint64_t spins = 0;
    while (!done.load(std::memory_order_acquire)) {
      engine.CompactAll();
      (void)engine.stats();
      (void)engine.TsSnapshot(kVirtualTxn);
      (void)engine.IsCommitted(1 + (spins % 64));
      ++spins;
      std::this_thread::yield();
    }
  });
  for (size_t t = 0; t < kStride; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();
  // The churn thread may never get scheduled on a loaded single-core
  // machine before the workers finish; compact once so the stats
  // assertions below are deterministic.
  engine.CompactAll();

  // Interleaved workers check their quota once per round, so the last
  // round can commit up to width - 1 extra transactions.
  EXPECT_GE(committed.load(), kStride * kTxnsPerWorker);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.reject_reasons.total(), st.rejected);
  EXPECT_EQ(st.commits, committed.load());
  EXPECT_GT(st.compactions, 0u);
  // Every decided operation took exactly one covered lock round.
  EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected,
            st.single_shard_ops + st.cross_shard_ops);
  // The registry's collected counters must agree with the shard stats.
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("engine.accepted"), st.accepted);
  EXPECT_EQ(snap.CounterValue("engine.commits"), st.commits);
  EXPECT_EQ(snap.CounterSum("engine.rejected."), st.rejected);
}

TEST(EngineBatchConcurrencyTest, ConcurrentBatchesOnDisjointPartitions) {
  constexpr size_t kThreads = 4;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = kThreads;
  eo.compact_every = 128;
  ShardedMtkEngine engine(eo);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      // Thread t's transactions and items all map to shard t, so every
      // op should stay on the single-shard lockset.
      for (uint32_t n = 0; n < 500; ++n) {
        const TxnId txn = static_cast<TxnId>((n + 1) * kThreads + t);
        for (uint32_t o = 0; o < 8; ++o) {
          const ItemId item =
              static_cast<ItemId>(((n * 8 + o) % 16) * kThreads + t);
          const Op op{txn, o % 2 == 0 ? OpType::kRead : OpType::kWrite,
                      item};
          ASSERT_EQ(engine.Process(op), OpDecision::kAccept);
        }
        engine.CommitTxn(txn);
      }
    });
  }
  for (auto& th : threads) th.join();

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.accepted, kThreads * 500 * 8);
  EXPECT_EQ(st.cross_shard_ops, 0u);
  EXPECT_EQ(st.single_shard_ops, kThreads * 500 * 8);
  EXPECT_EQ(st.commits, kThreads * 500);
}

// CompactAll frees a released chunk and nulls its directory entry before it
// advances the shard's base slot. A liveness query racing it must read every
// committed id as committed - never a freed chunk, never the null entry.
TEST(EngineConcurrencyTest, CommittedIdsStayCommittedUnderCompaction) {
  constexpr TxnId kTxns = 20000;
  constexpr TxnId kWindow = 4096;  // Two chunks per shard below the front.
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.compact_every = 64;
  ShardedMtkEngine engine(eo);

  std::atomic<TxnId> front{0};  // Every id <= front is committed.
  std::atomic<bool> done{false};
  std::thread committer([&engine, &front, &done] {
    // A serial client: nothing it issues is rejected.
    for (TxnId txn = 1; txn <= kTxns; ++txn) {
      const ItemId x = static_cast<ItemId>(txn % 8);
      if (engine.Process(Op{txn, OpType::kRead, x}) == OpDecision::kReject ||
          engine.Process(Op{txn, OpType::kWrite, x}) == OpDecision::kReject) {
        ADD_FAILURE() << "serial txn " << txn << " rejected";
        break;
      }
      engine.CommitTxn(txn);
      front.store(txn, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });
  // Cycle over the ids just behind the front, where compaction releases.
  uint64_t misses = 0;
  for (TxnId cursor = 1; !done.load(std::memory_order_acquire); ++cursor) {
    const TxnId hi = front.load(std::memory_order_acquire);
    if (hi == 0) continue;
    if (cursor > hi || cursor + kWindow < hi) {
      cursor = hi > kWindow ? hi - kWindow : 1;
    }
    if (!engine.IsCommitted(cursor)) ++misses;
  }
  committer.join();
  EXPECT_EQ(misses, 0u);
  EXPECT_GT(engine.stats().txns_released, kTxns / 2);
}

// The closed-loop client on the engine: k=3, starvation fix, one worker,
// seed 42, stopped by the predicate at 20,000 transactions. Under the
// column clocks (core/encoding.h) a serial client on one shard aborts
// nothing; on 32 shards the aborts left come from per-shard clocks that
// lag each other, which the receive rule narrows but does not close on a
// 64-item table (two items a shard).
struct DriverCounts {
  size_t shards;
  uint32_t items;
  uint64_t committed, abandoned, aborts, ops_accepted;
};

EngineOptions DriverEngine(size_t shards) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = shards;
  eo.starvation_fix = true;
  return eo;
}

bool TwentyThousand(const LoopResult& r) { return r.txns() >= 20000; }

TEST(ClosedLoopEngineTest, PerOpCountsOnOneAndThirtyTwoShards) {
  for (const DriverCounts& e :
       {DriverCounts{1, 64, 20000, 0, 0, 120000},
        DriverCounts{32, 64, 20000, 0, 7332, 138018},
        DriverCounts{1, 65536, 20000, 0, 0, 120000},
        DriverCounts{32, 65536, 20000, 0, 17, 120049}}) {
    ShardedMtkEngine engine(DriverEngine(e.shards));
    const Workload w = MakeWorkload(1, e.items, 6, 0.6, 42);
    const LoopResult r = RunClosedLoop(engine, w, 1, 600.0, /*in_flight=*/0,
                                       /*work_ns=*/0, TwentyThousand);
    EXPECT_EQ(r.committed, e.committed) << e.shards << "/" << e.items;
    EXPECT_EQ(r.abandoned, e.abandoned) << e.shards << "/" << e.items;
    EXPECT_EQ(r.aborts, e.aborts) << e.shards << "/" << e.items;
    EXPECT_EQ(r.ops_accepted, e.ops_accepted) << e.shards << "/" << e.items;
    EXPECT_EQ(engine.stats().commits, r.committed);
  }
}

// Eight transactions in flight, one Process each per round. On 32 shards
// over 64 items the client aborts more than on one shard: the per-shard
// column clocks lag each other (see above), and nothing serializes the
// eight slots when every round aborts some of them.
TEST(ClosedLoopEngineTest, InterleavedCountsAtWidthEight) {
  for (const DriverCounts& e :
       {DriverCounts{1, 64, 20000, 0, 13843, 167813},
        DriverCounts{32, 64, 19965, 35, 37022, 251682},
        DriverCounts{1, 65536, 20000, 0, 16, 120080},
        DriverCounts{32, 65536, 20000, 0, 20, 120084}}) {
    ShardedMtkEngine engine(DriverEngine(e.shards));
    const Workload w = MakeWorkload(1, e.items, 6, 0.6, 42);
    const LoopResult r = RunClosedLoop(engine, w, 1, 600.0, /*in_flight=*/8,
                                       /*work_ns=*/0, TwentyThousand);
    EXPECT_EQ(r.committed, e.committed) << e.shards << "/" << e.items;
    EXPECT_EQ(r.abandoned, e.abandoned) << e.shards << "/" << e.items;
    EXPECT_EQ(r.aborts, e.aborts) << e.shards << "/" << e.items;
    EXPECT_EQ(r.ops_accepted, e.ops_accepted) << e.shards << "/" << e.items;
  }
}

// A strictly serial history (one client, one transaction at a time) is DSR
// and in TO(1), yet Algorithm 1's line 20 aborts about half its attempts at
// k >= 2. Under the column clocks the engine aborts none of them on one
// shard and at most 5% on 32.
TEST(ClosedLoopEngineTest, SerialClientBarelyAbortsUnderColumnClocks) {
  for (const uint32_t items : {4096u, 65536u}) {
    for (const size_t k : {2u, 3u, 7u}) {
      for (const size_t shards : {1u, 32u}) {
        SCOPED_TRACE("items=" + std::to_string(items) +
                     " k=" + std::to_string(k) +
                     " shards=" + std::to_string(shards));
        EngineOptions eo = DriverEngine(shards);
        eo.k = k;
        ShardedMtkEngine engine(eo);
        const Workload w = MakeWorkload(1, items, 6, 0.6, 42);
        const LoopResult r = RunClosedLoop(
            engine, w, 1, 600.0, /*in_flight=*/0, /*work_ns=*/0,
            [](const LoopResult& res) { return res.txns() >= 10000; });
        EXPECT_EQ(r.committed, 10000u);
        if (shards == 1) {
          EXPECT_EQ(r.abort_rate(), 0.0);
        } else {
          EXPECT_LE(r.abort_rate(), 0.05);
        }
      }
    }
  }
}

// Forwards to the engine and records, per worker thread, the distinct
// transaction ids it issued, in issue order.
struct IdRecorder {
  ShardedMtkEngine& engine;
  std::mutex mu;
  std::map<std::thread::id, std::vector<TxnId>> issued;

  OpDecision Process(const Op& op) {
    {
      std::lock_guard<std::mutex> lock(mu);
      std::vector<TxnId>& ids = issued[std::this_thread::get_id()];
      if (ids.empty() || ids.back() != op.txn) ids.push_back(op.txn);
    }
    return engine.Process(op);
  }
  void CommitTxn(TxnId txn) { engine.CommitTxn(txn); }
  void RestartTxn(TxnId txn) { engine.RestartTxn(txn); }
};

TEST(ClosedLoopEngineTest, FourWorkersStripeIdsAndCountEveryCommit) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kTxnsPerWorker = 1500;
  ShardedMtkEngine engine(DriverEngine(32));
  IdRecorder target{engine, {}, {}};
  const Workload w = MakeWorkload(kThreads, 4096, 6, 0.6, 42);
  const LoopResult r = RunClosedLoop(
      target, w, kThreads, 600.0, /*in_flight=*/0, /*work_ns=*/0,
      [](const LoopResult& res) { return res.txns() >= kTxnsPerWorker; });
  EXPECT_EQ(r.txns(), kThreads * kTxnsPerWorker);
  EXPECT_EQ(r.committed, engine.stats().commits);
  ASSERT_EQ(target.issued.size(), kThreads);
  std::vector<bool> worker_seen(kThreads, false);
  for (const auto& [thread, ids] : target.issued) {
    ASSERT_EQ(ids.size(), kTxnsPerWorker);
    const size_t t = ids[0] - 1;
    ASSERT_LT(t, kThreads);
    EXPECT_FALSE(worker_seen[t]) << "two threads issued worker " << t;
    worker_seen[t] = true;
    for (size_t n = 0; n < ids.size(); ++n) {
      ASSERT_EQ(ids[n], 1 + t + n * kThreads) << "worker " << t << " txn " << n;
    }
  }
}

}  // namespace
}  // namespace mdts
