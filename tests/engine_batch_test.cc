// Suite for the batched admission pipeline. Concurrency: mixed
// Process / ProcessBatch / CommitTxn / RestartTxn / CompactAll traffic from
// several threads must be race-clean (the suite is labeled engine-batch so
// ctest --preset tsan -L engine-batch can run exactly this binary under
// ThreadSanitizer) and must reconcile its counters afterwards. Ordering:
// single-threaded, a multi-shard batch must decide exactly like one
// Process call per operation.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/metrics.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

// One worker driving `width` concurrent transactions, one operation per
// transaction per ProcessBatch call — the closed-loop shape the benchmark
// uses. Returns the number of transactions committed.
uint64_t BatchWorker(ShardedMtkEngine& engine, size_t t, size_t stride,
                     size_t width, uint32_t txns_to_commit, ItemId items,
                     size_t ops_per_txn, uint64_t seed) {
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
  std::vector<Op> batch(width);
  std::vector<OpDecision> dec(width);
  uint64_t rounds = 0;
  while (committed < txns_to_commit) {
    if (++rounds > 2000000) {
      ADD_FAILURE() << "batch worker " << t << " starved at " << committed
                    << "/" << txns_to_commit;
      break;
    }
    for (size_t b = 0; b < width; ++b) {
      batch[b].txn = slots[b].txn;
      batch[b].type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
      batch[b].item = static_cast<ItemId>(rng() % items);
    }
    engine.ProcessBatch(std::span<const Op>(batch.data(), width), dec.data());
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
  constexpr size_t kBatchWorkers = 2;
  constexpr size_t kPerOpWorkers = 1;
  constexpr size_t kStride = kBatchWorkers + kPerOpWorkers;
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
  for (size_t t = 0; t < kBatchWorkers; ++t) {
    threads.emplace_back([&engine, &committed, t] {
      committed += BatchWorker(engine, t, kStride, /*width=*/8,
                               kTxnsPerWorker, kItems, kOpsPerTxn, 900 + t);
    });
  }
  for (size_t t = kBatchWorkers; t < kStride; ++t) {
    threads.emplace_back([&engine, &committed, t] {
      // Per-op closed loop sharing the same items and shard set.
      std::mt19937_64 rng(900 + t);
      for (uint32_t n = 0; n < kTxnsPerWorker; ++n) {
        const TxnId txn = static_cast<TxnId>(1 + t + n * kStride);
        size_t attempts = 0;
        for (;;) {
          // Generous bound: on a loaded single-core machine one per-op
          // transaction can lose many scheduling rounds to the 16
          // concurrent batch transactions before making progress.
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

  // Batch workers check their quota once per round, so the last round can
  // commit up to width - 1 extra transactions.
  EXPECT_GE(committed.load(), kStride * kTxnsPerWorker);
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.reject_reasons.total(), st.rejected);
  EXPECT_GT(st.batches, 0u);
  EXPECT_GT(st.batch_ops, st.batches);  // Batch workers used width 8.
  EXPECT_GT(st.compactions, 0u);
  // Every decided operation took exactly one covered lock round.
  EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected,
            st.single_shard_ops + st.cross_shard_ops);
  // The registry's collected counters must agree with the shard stats.
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("engine.accepted"), st.accepted);
  EXPECT_EQ(snap.CounterValue("engine.batches"), st.batches);
  EXPECT_EQ(snap.CounterValue("engine.batch_ops"), st.batch_ops);
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
      // Thread t's transactions and items all map to shard t, so each batch
      // should stay on the single-shard lockset.
      std::vector<Op> batch;
      std::vector<OpDecision> dec(8);
      for (uint32_t n = 0; n < 500; ++n) {
        const TxnId txn = static_cast<TxnId>((n + 1) * kThreads + t);
        batch.clear();
        for (uint32_t o = 0; o < 8; ++o) {
          const ItemId item =
              static_cast<ItemId>(((n * 8 + o) % 16) * kThreads + t);
          batch.push_back(Op{txn, o % 2 == 0 ? OpType::kRead : OpType::kWrite,
                             item});
        }
        const size_t acc = engine.ProcessBatch(
            std::span<const Op>(batch.data(), batch.size()), dec.data());
        ASSERT_EQ(acc, batch.size());
        engine.CommitTxn(txn);
      }
    });
  }
  for (auto& th : threads) th.join();

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.accepted, kThreads * 500 * 8);
  EXPECT_EQ(st.cross_shard_ops, 0u);
  EXPECT_EQ(st.batches, kThreads * 500);
  EXPECT_EQ(st.batch_ops, kThreads * 500 * 8);
}

// Uncontended, a multi-shard batch extends its lockset in place for every
// top outside it, so nothing is deferred and the batch decides in array
// order at up to 64 shards: a twin engine fed the same operations through
// one Process call each must reach identical decisions, reasons and
// vectors.
TEST(EngineBatchOrderTest, MultiShardBatchMatchesSequentialProcess) {
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 32;
  eo.starvation_fix = true;
  ShardedMtkEngine batched(eo);
  ShardedMtkEngine sequential(eo);

  std::mt19937_64 rng(20261017);
  constexpr ItemId kItems = 256;
  constexpr size_t kLive = 24;
  constexpr size_t kRounds = 2000;
  std::vector<TxnId> live;
  TxnId next_txn = 1;
  for (size_t n = 0; n < kLive; ++n) live.push_back(next_txn++);
  std::vector<TxnId> all_txns = live;

  std::vector<Op> batch;
  std::vector<OpDecision> got(8);
  std::vector<AbortReason> why(8);
  uint64_t total_ops = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    const size_t size = 2 + round % 7;  // Batch sizes 2..8.
    batch.resize(size);
    for (Op& op : batch) {
      op.txn = live[rng() % live.size()];
      op.type = rng() % 8 < 5 ? OpType::kRead : OpType::kWrite;
      op.item = static_cast<ItemId>(rng() % kItems);
    }
    total_ops += size;
    batched.ProcessBatch(std::span<const Op>(batch), got.data(), why.data());
    for (size_t b = 0; b < size; ++b) {
      AbortReason want_why = AbortReason::kNone;
      const OpDecision want = sequential.Process(batch[b], &want_why);
      ASSERT_EQ(want, got[b]) << "round " << round << " pos " << b;
      ASSERT_EQ(want_why, why[b]) << "round " << round << " pos " << b;
    }
    for (TxnId& slot : live) {
      const TxnId t = slot;
      ASSERT_EQ(sequential.IsAborted(t), batched.IsAborted(t)) << "txn " << t;
      if (batched.IsAborted(t)) {
        batched.RestartTxn(t);
        sequential.RestartTxn(t);
      } else if (rng() % 6 == 0) {
        batched.CommitTxn(t);
        sequential.CommitTxn(t);
        slot = next_txn++;
        all_txns.push_back(slot);
      }
    }
  }

  for (TxnId t : all_txns) {
    EXPECT_TRUE(sequential.TsSnapshot(t) == batched.TsSnapshot(t))
        << "txn " << t << ": " << sequential.TsSnapshot(t).ToString()
        << " vs " << batched.TsSnapshot(t).ToString();
  }
  const EngineStats st = batched.stats();
  EXPECT_EQ(st.batch_ops, total_ops);
  EXPECT_GT(st.cross_shard_ops, 0u);
  EXPECT_EQ(st.lock_retries, 0u);
  EXPECT_EQ(st.full_lock_fallbacks, 0u);
  EXPECT_EQ(st.batch_fallbacks, 0u);
}

// Regression test for the batched-admission livelock collapse: a single
// write-heavy closed loop at batch width 32 over 64 items used to spin
// forever with every round aborting every transaction. The guardrail must
// detect the commit-free streak, serialize admission behind a champion
// (counted in engine.batch_fallbacks, rejects tagged kBatchThrottled) and
// restore forward progress, without breaking the op-accounting invariant.
TEST(EngineBatchConcurrencyTest, LivelockGuardrailRestoresForwardProgress) {
  constexpr size_t kWidth = 32;
  constexpr ItemId kItems = 64;
  // Long all-write transactions: a commit needs 32 consecutive accepted
  // rounds for one slot, so the streak of commit-free batches that used to
  // spin forever actually forms.
  constexpr size_t kOpsPerTxn = 32;
  constexpr uint32_t kTarget = 30;

  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 4;
  eo.starvation_fix = true;
  eo.metrics = &reg;
  ShardedMtkEngine engine(eo);

  std::mt19937_64 rng(4242);
  struct Slot {
    TxnId txn = 0;
    size_t done = 0;
  };
  std::vector<Slot> slots(kWidth);
  uint32_t started = 0;
  for (Slot& s : slots) s.txn = static_cast<TxnId>(++started);
  std::vector<Op> batch(kWidth);
  std::vector<OpDecision> dec(kWidth);
  uint64_t committed = 0;
  uint64_t rounds = 0;
  while (committed < kTarget) {
    ASSERT_LT(++rounds, 2000000u)
        << "livelocked: " << committed << "/" << kTarget << " commits";
    for (size_t b = 0; b < kWidth; ++b) {
      batch[b].txn = slots[b].txn;
      batch[b].type = OpType::kWrite;  // All-write: the collapse shape.
      batch[b].item = static_cast<ItemId>(rng() % kItems);
    }
    engine.ProcessBatch(std::span<const Op>(batch.data(), kWidth),
                        dec.data());
    for (size_t b = 0; b < kWidth; ++b) {
      Slot& s = slots[b];
      if (dec[b] == OpDecision::kReject) {
        engine.RestartTxn(s.txn);
        s.done = 0;
        continue;
      }
      if (++s.done < kOpsPerTxn) continue;
      engine.CommitTxn(s.txn);
      ++committed;
      s.txn = static_cast<TxnId>(++started);
      s.done = 0;
    }
  }

  const EngineStats st = engine.stats();
  EXPECT_GT(st.batch_fallbacks, 0u) << "the guardrail never engaged";
  EXPECT_GT(st.reject_reasons[AbortReason::kBatchThrottled], 0u);
  EXPECT_EQ(st.reject_reasons.total(), st.rejected);
  // Throttled operations still count as decided admission traffic.
  EXPECT_EQ(st.accepted + st.ignored_writes + st.rejected,
            st.single_shard_ops + st.cross_shard_ops);
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("engine.batch_fallbacks"), st.batch_fallbacks);
  EXPECT_EQ(snap.CounterValue("engine.rejected.batch_throttled"),
            st.reject_reasons[AbortReason::kBatchThrottled]);
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
    const LoopResult r = RunClosedLoop(engine, w, 1, 600.0, /*batch=*/0,
                                       /*work_ns=*/0, TwentyThousand);
    EXPECT_EQ(r.committed, e.committed) << e.shards << "/" << e.items;
    EXPECT_EQ(r.abandoned, e.abandoned) << e.shards << "/" << e.items;
    EXPECT_EQ(r.aborts, e.aborts) << e.shards << "/" << e.items;
    EXPECT_EQ(r.ops_accepted, e.ops_accepted) << e.shards << "/" << e.items;
    EXPECT_EQ(engine.stats().commits, r.committed);
  }
}

TEST(ClosedLoopEngineTest, BatchedCountsAtWidthEight) {
  for (const DriverCounts& e :
       {DriverCounts{1, 64, 20000, 0, 13843, 167813},
        DriverCounts{32, 64, 19998, 2, 22094, 191522},
        DriverCounts{1, 65536, 20000, 0, 16, 120080},
        DriverCounts{32, 65536, 20000, 0, 20, 120084}}) {
    ShardedMtkEngine engine(DriverEngine(e.shards));
    const Workload w = MakeWorkload(1, e.items, 6, 0.6, 42);
    const LoopResult r = RunClosedLoop(engine, w, 1, 600.0, /*batch=*/8,
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
            engine, w, 1, 600.0, /*batch=*/0, /*work_ns=*/0,
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
      target, w, kThreads, 600.0, /*batch=*/0, /*work_ns=*/0,
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
