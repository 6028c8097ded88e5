#include "obs/metrics.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mtk_scheduler.h"
#include "dist/dmt_system.h"
#include "engine/sharded_engine.h"
#include "gtest/gtest.h"
#include "mvcc/mv_online.h"
#include "obs/abort_reason.h"
#include "obs/trace.h"
#include "sched/interval_scheduler.h"
#include "sched/mtk_online.h"
#include "sched/occ_scheduler.h"
#include "sched/to1_scheduler.h"
#include "sched/two_pl_scheduler.h"

namespace mdts {
namespace {

// ===========================================================================
// Counter / Histogram under concurrent writers (exactness; run under tsan
// via ctest --preset tsan -L obs).
// ===========================================================================

TEST(CounterTest, ConcurrentWritersLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(CounterTest, MoreThreadsThanSlotsStillExact) {
  // More writers than cores, all on the one relaxed word: the total must
  // stay exact.
  Counter c;
  constexpr int kThreads = 24;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(3);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread * 3);
}

TEST(HistogramTest, ConcurrentWritersExactMoments) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kMax = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h] {
      for (uint64_t v = 1; v <= kMax; ++v) h.Record(v);
    });
  }
  for (auto& th : pool) th.join();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kMax);
  EXPECT_EQ(s.sum, kThreads * (kMax * (kMax + 1) / 2));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kMax);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(HistogramTest, LogBucketPlacementAndPercentiles) {
  Histogram h;
  h.Record(0);    // bucket 0
  h.Record(1);    // bucket 1
  h.Record(2);    // bucket 2
  h.Record(3);    // bucket 2
  h.Record(100);  // bucket 7 (64 <= 100 < 128)
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[7], 1u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 100u);
  // p50 falls in bucket 2 (upper bound 3); p99's bucket upper bound is
  // clamped to the observed max.
  EXPECT_EQ(s.Percentile(50), 3u);
  EXPECT_EQ(s.Percentile(99), 100u);
}

// ===========================================================================
// Registry snapshots: determinism and lookups.
// ===========================================================================

TEST(MetricsRegistryTest, SnapshotIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry a, b;
  a.GetCounter("zeta")->Add(7);
  a.GetCounter("alpha")->Add(3);
  a.GetHistogram("lat")->Record(5);
  b.GetHistogram("lat")->Record(5);
  b.GetCounter("alpha")->Add(3);
  b.GetCounter("zeta")->Add(7);
  EXPECT_EQ(a.Snapshot().ToText(), b.Snapshot().ToText());
  EXPECT_EQ(a.Snapshot().ToJson(), b.Snapshot().ToJson());
}

TEST(MetricsRegistryTest, StablePointersAndLookups) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x.accepted");
  EXPECT_EQ(reg.GetCounter("x.accepted"), c);  // Register-once.
  c->Add(4);
  reg.GetCounter("x.rejected.lex_order")->Add(2);
  reg.GetCounter("x.rejected.stale_txn")->Add(1);
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.CounterValue("x.accepted"), 4u);
  EXPECT_EQ(s.CounterValue("absent"), 0u);
  EXPECT_EQ(s.CounterSum("x.rejected."), 3u);
}

// ===========================================================================
// Collectors: pull sources merged into snapshots.
// ===========================================================================

TEST(MetricsRegistryTest, CollectorsSumDuplicateNamesInSortedOrder) {
  int owner1 = 0;
  int owner2 = 0;
  auto first = [](MetricsSnapshot& out) {
    out.counters.emplace_back("zeta", 5);
    out.counters.emplace_back("alpha", 1);
    out.gauges.emplace_back("level", 2);
  };
  auto second = [](MetricsSnapshot& out) {
    out.counters.emplace_back("alpha", 10);
    out.gauges.emplace_back("level", 3);
  };
  // Equal states reached in different registration orders.
  MetricsRegistry a, b;
  a.AddCollector(&owner1, first);
  a.AddCollector(&owner2, second);
  a.GetCounter("alpha")->Add(100);
  a.GetCounter("mid")->Add(7);
  b.GetCounter("mid")->Add(7);
  b.GetCounter("alpha")->Add(100);
  b.AddCollector(&owner2, second);
  b.AddCollector(&owner1, first);
  const MetricsSnapshot s = a.Snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0], (std::pair<std::string, uint64_t>("alpha", 111)));
  EXPECT_EQ(s.counters[1], (std::pair<std::string, uint64_t>("mid", 7)));
  EXPECT_EQ(s.counters[2], (std::pair<std::string, uint64_t>("zeta", 5)));
  EXPECT_EQ(s.GaugeValue("level"), 5);
  EXPECT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.ToJson(), b.Snapshot().ToJson());
  EXPECT_EQ(s.ToText(), a.Snapshot().ToText());
}

TEST(MetricsRegistryTest, RemoveCollectorFoldsLastValues) {
  MetricsRegistry reg;
  uint64_t events = 0;
  int owner1 = 0;
  int owner2 = 0;
  auto publish = [&events](MetricsSnapshot& out) {
    out.counters.emplace_back("src.events", events);
    out.gauges.emplace_back("src.level", 9);
  };
  reg.AddCollector(&owner1, publish);
  events = 40;
  EXPECT_EQ(reg.Snapshot().CounterValue("src.events"), 40u);
  events = 42;  // Not yet observed by any snapshot.
  reg.RemoveCollector(&owner1);
  reg.RemoveCollector(&owner1);  // Unknown owner now: no-op.
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.CounterValue("src.events"), 42u);
  // The gauge was the owner's level: its name stays, its value does not.
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].first, "src.level");
  EXPECT_EQ(s.gauges[0].second, 0);

  // A successor with the same names continues from the folded value.
  events = 0;
  reg.AddCollector(&owner2, publish);
  EXPECT_EQ(reg.Snapshot().CounterValue("src.events"), 42u);
  events = 8;
  s = reg.Snapshot();
  EXPECT_EQ(s.CounterValue("src.events"), 50u);
  EXPECT_EQ(s.GaugeValue("src.level"), 9);
  reg.RemoveCollector(&owner2);
  EXPECT_EQ(reg.Snapshot().CounterValue("src.events"), 50u);
}

// Snapshots racing collector removal (run under tsan): a snapshot sees
// either the live collector or its folded value, never both or neither,
// and never calls a collector whose owner is gone.
TEST(MetricsRegistryTest, SnapshotRacesRemoveCollector) {
  MetricsRegistry reg;
  constexpr int kRounds = 300;
  constexpr uint64_t kEventsPerRound = 10;
  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int round = 0; round < kRounds; ++round) {
      auto source = std::make_unique<std::atomic<uint64_t>>(0);
      std::atomic<uint64_t>* p = source.get();
      reg.AddCollector(p, [p](MetricsSnapshot& out) {
        out.counters.emplace_back("churn.events",
                                  p->load(std::memory_order_relaxed));
      });
      for (uint64_t n = 0; n < kEventsPerRound; ++n) {
        p->fetch_add(1, std::memory_order_relaxed);
      }
      reg.RemoveCollector(p);
    }  // Each source is freed right after its removal.
    done.store(true, std::memory_order_release);
  });
  bool monotone = true;
  auto watch = [&] {
    uint64_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t v = reg.Snapshot().CounterValue("churn.events");
      if (v < prev) monotone = false;
      prev = v;
    }
  };
  std::thread watcher(watch);
  watch();
  churn.join();
  watcher.join();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(reg.Snapshot().CounterValue("churn.events"),
            kRounds * kEventsPerRound);
}

// ===========================================================================
// Abort-reason taxonomy.
// ===========================================================================

TEST(AbortReasonTest, NamesAndDescriptionsCoverEveryValue) {
  std::vector<std::string> seen;
  for (size_t r = 0; r < kNumAbortReasons; ++r) {
    const AbortReason reason = static_cast<AbortReason>(r);
    const std::string name = AbortReasonName(reason);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
    EXPECT_FALSE(std::string(AbortReasonDescription(reason)).empty());
    for (const std::string& prev : seen) EXPECT_NE(prev, name);
    seen.push_back(name);
  }
}

TEST(AbortReasonTest, CountsTotalExcludesUnclassified) {
  AbortReasonCounts c;
  c.Add(AbortReason::kNone);
  c.Add(AbortReason::kLexOrder, 2);
  c.Add(AbortReason::kLeaseExpired);
  EXPECT_EQ(c.total(), 3u);
  EXPECT_EQ(c.unclassified(), 1u);
  EXPECT_EQ(c[AbortReason::kLexOrder], 2u);
  AbortReasonCounts d;
  d.Add(AbortReason::kLexOrder);
  d += c;
  EXPECT_EQ(d[AbortReason::kLexOrder], 3u);
  // ToJson lists nonzero reasons only.
  const std::string json = c.ToJson();
  EXPECT_NE(json.find("\"lex_order\": 2"), std::string::npos) << json;
  EXPECT_EQ(json.find("down_site"), std::string::npos) << json;
}

TEST(AbortReasonTest, FormatRejectMentionsOpReasonAndBlocker) {
  const std::string s =
      FormatReject("W3[x]", AbortReason::kLexOrder, 2);
  EXPECT_NE(s.find("W3[x]"), std::string::npos) << s;
  EXPECT_NE(s.find("lex_order"), std::string::npos) << s;
  EXPECT_NE(s.find("2"), std::string::npos) << s;
}

// ===========================================================================
// Reconciliation: every rejected operation carries a classified reason and
// the per-reason tallies sum to the layer's reject/abort count.
// ===========================================================================

TEST(ReconciliationTest, MtkSchedulerRejectsAreClassified) {
  MtkOptions options;
  options.k = 1;
  MtkScheduler s(options);
  EXPECT_EQ(s.ExplainLastReject(), "no rejection yet");
  // MT(1): R2[x] after W1[x] fixes 1 < 2; R1[y] after W2[y] then needs
  // 2 < 1 - the opposite scalar order is already fixed.
  EXPECT_EQ(s.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{2, OpType::kRead, 0}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{2, OpType::kWrite, 1}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{1, OpType::kRead, 1}), OpDecision::kReject);
  EXPECT_EQ(s.last_reject().reason, AbortReason::kLexOrder);
  EXPECT_EQ(s.LastBlocker(), 2u);
  EXPECT_NE(s.ExplainLastReject().find("lex_order"), std::string::npos)
      << s.ExplainLastReject();
  // A stale resubmission is classified too.
  EXPECT_EQ(s.Process(Op{1, OpType::kRead, 1}), OpDecision::kReject);
  EXPECT_EQ(s.last_reject().reason, AbortReason::kStaleTxn);
  const MtkStats& st = s.stats();
  EXPECT_EQ(st.rejected, st.reject_reasons.total());
  EXPECT_EQ(st.reject_reasons.unclassified(), 0u);
}

TEST(ReconciliationTest, FiveProtocolsShareTheTaxonomy) {
  // One minimal conflict per protocol; each must classify its abort and
  // keep abort_reasons().total() equal to its abort count.
  To1Scheduler to1;
  to1.OnBegin(1);
  to1.OnBegin(2);
  EXPECT_EQ(to1.OnOperation(Op{2, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(to1.OnOperation(Op{1, OpType::kRead, 0}),
            SchedOutcome::kAborted);
  EXPECT_EQ(to1.last_abort_reason(), AbortReason::kLexOrder);

  TwoPlScheduler tpl;
  EXPECT_EQ(tpl.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(tpl.OnOperation(Op{2, OpType::kWrite, 1}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(tpl.OnOperation(Op{1, OpType::kWrite, 1}),
            SchedOutcome::kBlocked);
  EXPECT_EQ(tpl.OnOperation(Op{2, OpType::kWrite, 0}),
            SchedOutcome::kAborted);
  EXPECT_EQ(tpl.last_abort_reason(), AbortReason::kDeadlockAvoidance);

  OccScheduler occ;
  occ.OnBegin(1);
  occ.OnBegin(2);
  EXPECT_EQ(occ.OnOperation(Op{1, OpType::kRead, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(occ.OnOperation(Op{2, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(occ.OnCommit(2), SchedOutcome::kAccepted);
  EXPECT_EQ(occ.OnCommit(1), SchedOutcome::kAborted);
  EXPECT_EQ(occ.last_abort_reason(), AbortReason::kValidationFailure);

  IntervalScheduler iv;
  EXPECT_EQ(iv.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(iv.OnOperation(Op{2, OpType::kRead, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(iv.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAborted);
  EXPECT_EQ(iv.last_abort_reason(), AbortReason::kLexOrder);

  MtkOptions mo;
  mo.k = 1;
  MtkOnline mtk(mo);
  EXPECT_EQ(mtk.OnOperation(Op{1, OpType::kWrite, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(mtk.OnOperation(Op{2, OpType::kRead, 0}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(mtk.OnOperation(Op{2, OpType::kWrite, 1}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(mtk.OnOperation(Op{1, OpType::kRead, 1}),
            SchedOutcome::kAborted);
  EXPECT_EQ(mtk.last_abort_reason(), AbortReason::kLexOrder);

  // W1[y] R2[y] R2[x] W1[x]: T2 read x's only version and is ordered after
  // T1, so T1 has no slot to place a version in.
  MvMtkOptions mvo;
  mvo.k = 1;
  MvOnline mv(mvo);
  EXPECT_EQ(mv.OnOperation(Op{1, OpType::kWrite, 1}),
            SchedOutcome::kAccepted);
  EXPECT_EQ(mv.OnOperation(Op{2, OpType::kRead, 1}), SchedOutcome::kAccepted);
  EXPECT_EQ(mv.OnOperation(Op{2, OpType::kRead, 0}), SchedOutcome::kAccepted);
  EXPECT_EQ(mv.OnOperation(Op{1, OpType::kWrite, 0}), SchedOutcome::kAborted);
  EXPECT_EQ(mv.last_abort_reason(), AbortReason::kVersionConflict);

  for (const Scheduler* s :
       {static_cast<const Scheduler*>(&to1),
        static_cast<const Scheduler*>(&tpl),
        static_cast<const Scheduler*>(&occ),
        static_cast<const Scheduler*>(&iv),
        static_cast<const Scheduler*>(&mtk),
        static_cast<const Scheduler*>(&mv)}) {
    EXPECT_EQ(s->abort_reasons().total(), 1u) << s->name();
    EXPECT_EQ(s->abort_reasons().unclassified(), 0u) << s->name();
  }
}

// Hot-set closed-loop traffic from several threads: every transaction
// either commits or is restarted (same id) after its first reject.
void RunHotTraffic(ShardedMtkEngine& engine, uint64_t seed) {
  constexpr int kThreads = 4;
  constexpr uint64_t kTxnsPerThread = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&engine, seed, t] {
      uint64_t x = seed + t;
      for (uint64_t n = 0; n < kTxnsPerThread; ++n) {
        const TxnId txn = 1 + t + n * kThreads;
        bool ok = true;
        for (int o = 0; o < 4 && ok; ++o) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          Op op;
          op.txn = txn;
          op.type = (x & 1) ? OpType::kRead : OpType::kWrite;
          op.item = static_cast<ItemId>((x >> 8) % 8);  // Hot: conflicts.
          AbortReason reason = AbortReason::kNone;
          ok = engine.Process(op, &reason) != OpDecision::kReject;
          if (!ok) {
            // Every rejection must carry a classified reason.
            EXPECT_NE(reason, AbortReason::kNone);
          }
        }
        if (ok) {
          engine.CommitTxn(txn);
        } else {
          engine.RestartTxn(txn);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
}

TEST(ReconciliationTest, EngineStatsMatchMirroredRegistry) {
  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 2;
  eo.num_shards = 4;
  eo.compact_every = 512;
  eo.metrics = &reg;
  ShardedMtkEngine engine(eo);
  RunHotTraffic(engine, 88172645463325252ull);
  // The snapshot comes first: the registry reads EngineStats itself, so no
  // stats() call is needed to make it exact.
  const MetricsSnapshot snap = reg.Snapshot();
  const EngineStats st = engine.stats();
  EXPECT_GT(st.rejected, 0u);  // The hot item set guarantees conflicts.
  EXPECT_GT(st.commits, 0u);
  EXPECT_GT(st.compactions, 0u);
  EXPECT_EQ(st.rejected, st.reject_reasons.total());
  EXPECT_EQ(st.reject_reasons.unclassified(), 0u);
  EXPECT_EQ(snap.CounterValue("engine.accepted"), st.accepted);
  EXPECT_EQ(snap.CounterValue("engine.ignored_writes"), st.ignored_writes);
  EXPECT_EQ(snap.CounterSum("engine.rejected."), st.rejected);
  for (size_t r = 1; r < kNumAbortReasons; ++r) {
    const AbortReason reason = static_cast<AbortReason>(r);
    EXPECT_EQ(snap.CounterValue(std::string("engine.rejected.") +
                                AbortReasonName(reason)),
              st.reject_reasons[reason])
        << AbortReasonName(reason);
  }
  EXPECT_EQ(snap.CounterValue("engine.lock_contention"), st.lock_contention);
  EXPECT_EQ(snap.CounterValue("engine.lock_retries"), st.lock_retries);
  EXPECT_EQ(snap.CounterValue("engine.full_lock_fallbacks"),
            st.full_lock_fallbacks);
  EXPECT_EQ(snap.CounterValue("engine.compactions"), st.compactions);
  EXPECT_EQ(snap.CounterValue("engine.versions_installed"),
            st.versions_installed);
  EXPECT_EQ(snap.CounterValue("engine.versions_gc"), st.versions_gc);
  EXPECT_EQ(snap.CounterValue("engine.commits"), st.commits);
  EXPECT_EQ(snap.GaugeValue("engine.live_versions"),
            static_cast<int64_t>(st.live_versions));
}

// Engines created and destroyed in turn on one registry: the registry
// folds each engine's final counts in, so cumulative counters never step
// back and end at the sum over both engines.
TEST(ReconciliationTest, CountersStayMonotoneAcrossSequentialEngines) {
  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 2;
  eo.num_shards = 4;
  eo.metrics = &reg;
  uint64_t accepted = 0;
  uint64_t commits = 0;
  uint64_t prev_accepted = 0;
  uint64_t prev_commits = 0;
  auto check = [&](const char* when) {
    const MetricsSnapshot s = reg.Snapshot();
    const uint64_t a = s.CounterValue("engine.accepted");
    const uint64_t c = s.CounterValue("engine.commits");
    EXPECT_GE(a, prev_accepted) << when;
    EXPECT_GE(c, prev_commits) << when;
    prev_accepted = a;
    prev_commits = c;
  };
  for (uint64_t seed : {11ull, 29ull}) {
    auto engine = std::make_unique<ShardedMtkEngine>(eo);
    check("after construction");
    RunHotTraffic(*engine, seed);
    check("after traffic");
    const EngineStats st = engine->stats();
    accepted += st.accepted;
    commits += st.commits;
    engine.reset();
    check("after destruction");
  }
  EXPECT_EQ(prev_accepted, accepted);
  EXPECT_EQ(prev_commits, commits);
  EXPECT_GT(commits, 0u);
}

TEST(ReconciliationTest, DmtAbortsMatchReasonsAndRegistry) {
  MetricsRegistry reg;
  DmtOptions options;
  options.k = 2;
  options.num_sites = 4;
  options.num_txns = 60;
  options.concurrency = 8;
  options.message_latency = 0.5;
  options.seed = 11;
  options.workload.num_items = 12;
  options.workload.min_ops = 2;
  options.workload.max_ops = 4;
  options.workload.read_fraction = 0.5;
  options.fault.drop_rate = 0.2;
  options.fault.jitter = 0.2;
  options.fault.crashes.push_back({1, 40.0, 90.0});
  options.metrics = &reg;
  const DmtResult r = RunDmtSimulation(options);
  EXPECT_GT(r.aborts, 0u);  // Faults guarantee aborts at this loss rate.
  EXPECT_EQ(r.aborts, r.abort_reasons.total());
  EXPECT_EQ(r.abort_reasons.unclassified(), 0u);
  // End-of-run publication: registry deltas equal the result fields.
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("dmt.committed"), r.committed);
  EXPECT_EQ(snap.CounterSum("dmt.aborts."), r.aborts);
  EXPECT_EQ(snap.CounterValue("dmt.aborts.lease_expired"),
            r.abort_reasons[AbortReason::kLeaseExpired]);
  EXPECT_EQ(snap.CounterValue("dmt.lease_reclaims"), r.lease_reclaims);
}

TEST(ReconciliationTest, DmtCountersScrapedMidRunOnlyGrow) {
  // A scraper thread snapshots the registry while the simulation runs, as
  // a live exporter does: the run's collector reads its in-progress result
  // under the run's lock, and its removal folds the final values in, so
  // every scrape is a prefix of the final count.
  MetricsRegistry reg;
  DmtOptions options;
  options.k = 2;
  options.num_sites = 4;
  options.num_txns = 400;
  options.concurrency = 8;
  options.seed = 5;
  options.workload.num_items = 12;
  options.fault.drop_rate = 0.1;
  options.metrics = &reg;
  std::atomic<bool> done{false};
  std::vector<uint64_t> seen;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      seen.push_back(reg.Snapshot().CounterValue("dmt.committed"));
    }
  });
  const DmtResult r = RunDmtSimulation(options);
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(reg.Snapshot().CounterValue("dmt.committed"), r.committed);
  for (size_t q = 1; q < seen.size(); ++q) {
    ASSERT_LE(seen[q - 1], seen[q]) << "scrape " << q;
  }
  if (!seen.empty()) {
    EXPECT_LE(seen.back(), r.committed);
  }
}

// ===========================================================================
// Tracer: disabled-by-default, ring wrap, Chrome trace JSON schema.
// ===========================================================================

class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Reset();
  }
};

TEST_F(TracerTest, DisabledMacrosEmitNothing) {
  ASSERT_FALSE(Tracer::Enabled());
  MDTS_TRACE_INSTANT("noop");
  MDTS_TRACE_AT("noop", 'i', 2, 0, 17);
  { MDTS_TRACE_SPAN("noop"); }
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
}

TEST_F(TracerTest, RingKeepsNewestEventsAfterWrap) {
  Tracer::Get().Enable(/*events_per_thread=*/16);  // 16 = the minimum ring.
  for (uint64_t i = 0; i < 100; ++i) {
    MDTS_TRACE_AT_ARG("tick", 'i', 2, 0, i, "n", i);
  }
  Tracer::Get().Disable();
  EXPECT_EQ(Tracer::Get().event_count(), 16u);
  const std::string json = Tracer::Get().ToJson();
  EXPECT_NE(json.find("\"ts\":99"), std::string::npos);   // Newest kept.
  EXPECT_EQ(json.find("\"ts\":50,"), std::string::npos);  // Oldest dropped.
}

TEST_F(TracerTest, JsonSchemaAndLaneOrdering) {
  Tracer::Get().Enable();
  // Same (pid, tid) lane, timestamps emitted out of order: export must
  // sort the lane.
  MDTS_TRACE_AT("later", 'i', 2, 3, 500);
  MDTS_TRACE_AT("earlier", 'i', 2, 3, 100);
  MDTS_TRACE_AT_ARG("argued", 'i', 2, 4, 250, "txn", 42);
  { MDTS_TRACE_SPAN("span"); }  // Real-time lane: 'X' with dur.
  Tracer::Get().Disable();
  const std::string json = Tracer::Get().ToJson();

  // Chrome trace_event envelope, loadable by Perfetto.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  const std::string tail = "],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
  // Metadata names both timeline groups.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("mdts-sim"), std::string::npos);
  // Every emitted event carries the required keys.
  for (const char* key : {"\"name\"", "\"ph\"", "\"pid\"", "\"tid\"",
                          "\"ts\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Lane (2, 3) is sorted by ts regardless of emission order.
  EXPECT_LT(json.find("\"earlier\""), json.find("\"later\""));
  // The argument rides along under "args".
  EXPECT_NE(json.find("\"args\":{\"txn\":42}"), std::string::npos);
  // The span exported as a complete event with a duration.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST_F(TracerTest, ConcurrentEmittersGetPrivateLanes) {
  Tracer::Get().Enable();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        MDTS_TRACE_INSTANT("evt");
      }
    });
  }
  for (auto& th : pool) th.join();
  Tracer::Get().Disable();
  EXPECT_EQ(Tracer::Get().event_count(), kThreads * kPerThread);
}

TEST_F(TracerTest, ToJsonWhileEmittingIsWellFormed) {
  // Export runs concurrently with emitters on small, constantly wrapping
  // rings: every exported event must be one whole emitted event (its arg
  // is a function of its ts), and every lane stays ordered.
  Tracer::Get().Enable(/*events_per_thread=*/64);
  constexpr uint32_t kThreads = 3;
  std::atomic<uint32_t> warm{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (uint32_t t = 1; t <= kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (uint64_t ts = 1; !stop.load(std::memory_order_relaxed); ++ts) {
        MDTS_TRACE_AT_ARG("tick", 'i', 2, t, ts, "n", ts * 3 + t);
        if (ts == 64) warm.fetch_add(1);  // This thread's ring is full.
      }
    });
  }
  while (warm.load() < kThreads) std::this_thread::yield();
  const std::string head = "{\"traceEvents\":[\n";
  const std::string tail = "\n],\"displayTimeUnit\":\"ms\"}\n";
  size_t events = 0;
  for (int round = 0; round < 100; ++round) {
    const std::string json = Tracer::Get().ToJson();
    ASSERT_EQ(json.rfind(head, 0), 0u);
    ASSERT_GE(json.size(), head.size() + tail.size());
    ASSERT_EQ(json.substr(json.size() - tail.size()), tail);
    uint64_t last_ts[kThreads + 1] = {};
    std::istringstream lines(
        json.substr(head.size(), json.size() - head.size() - tail.size()));
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("\"process_name\"") != std::string::npos) continue;
      unsigned tid = 0;
      uint64_t ts = 0, n = 0;
      ASSERT_EQ(std::sscanf(line.c_str(),
                            "{\"name\":\"tick\",\"ph\":\"i\",\"pid\":2,"
                            "\"tid\":%u,\"ts\":%" SCNu64
                            ",\"s\":\"t\",\"args\":{\"n\":%" SCNu64 "}}",
                            &tid, &ts, &n),
                3)
          << line;
      ASSERT_GE(tid, 1u);
      ASSERT_LE(tid, kThreads);
      ASSERT_EQ(n, ts * 3 + tid) << line;
      ASSERT_GE(ts, last_ts[tid]) << line;
      last_ts[tid] = ts;
      ++events;
    }
  }
  stop.store(true);
  for (auto& th : pool) th.join();
  Tracer::Get().Disable();
  EXPECT_GT(events, 0u);
  EXPECT_EQ(Tracer::Get().event_count(), kThreads * 64u);
}

}  // namespace
}  // namespace mdts
