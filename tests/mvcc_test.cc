#include "mvcc/mv_scheduler.h"

#include <memory>

#include "core/log.h"
#include "gtest/gtest.h"
#include "mvcc/mv_online.h"
#include "sched/mtk_online.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace mdts {
namespace {

MvMtkScheduler Make(size_t k = 3) {
  MvMtkOptions options;
  options.k = k;
  return MvMtkScheduler(options);
}

std::vector<OpDecision> RunOps(MvMtkScheduler* s, const Log& log) {
  std::vector<OpDecision> out;
  for (const Op& op : log.ops()) out.push_back(s->Process(op));
  return out;
}

TEST(MvSchedulerTest, EveryItemStartsWithInitialVersion) {
  auto s = Make();
  EXPECT_EQ(s.VersionCount(0), 1u);
  EXPECT_EQ(s.Process(Op{1, OpType::kRead, 0}), OpDecision::kAccept);
}

TEST(MvSchedulerTest, WritesCreateVersions) {
  auto s = Make();
  EXPECT_EQ(s.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{2, OpType::kWrite, 0}), OpDecision::kAccept);
  EXPECT_EQ(s.VersionCount(0), 3u);  // Initial + two writes.
  EXPECT_EQ(s.stats().versions_created, 2u);
}

TEST(MvSchedulerTest, OldReadServedByOldVersion) {
  // The flagship multiversion win: the read that single-version MT(k)
  // line-9-rejects is served by an older version here.
  //   W1[x] R2[x] R3[y] W2[y]: T3 < T2 and RT(x) = T2.
  //   R3[x]: single-version MT(3) rejects (see mtk_scheduler_test);
  //   multiversion serves T3 from a version it can order after.
  auto s = Make();
  const Log log = *Log::Parse("W1[x] R2[x] R3[y] W2[y]");
  for (auto d : RunOps(&s, log)) ASSERT_EQ(d, OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{3, OpType::kRead, 0}), OpDecision::kAccept);
  EXPECT_FALSE(s.IsAborted(3));
  EXPECT_TRUE(s.AuditMvsgAcyclic());
}

TEST(MvSchedulerTest, ReadsNeverAbortOnRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    WorkloadOptions w;
    w.num_txns = 8;
    w.num_items = 4;
    w.min_ops = 2;
    w.max_ops = 4;
    w.read_fraction = 0.6;
    w.seed = seed + 900;
    Log log = GenerateLog(w);
    auto s = Make();
    for (const Op& op : log.ops()) {
      if (s.IsAborted(op.txn)) continue;
      const OpDecision d = s.Process(op);
      if (op.type == OpType::kRead) {
        EXPECT_EQ(d, OpDecision::kAccept)
            << "read rejected: " << OpName(op) << " in " << log.ToString();
      }
    }
    EXPECT_EQ(s.stats().read_rejects, 0u);
  }
}

TEST(MvSchedulerTest, WriteFindsOlderSlotWhenNewestIsBlocked) {
  auto s = Make();
  // T1 writes x; T2 reads that version; T3 < T2 is fixed via y. T3 then
  // writes x: the newest slot (after T1's version) is blocked by reader
  // T2 (T3 < T2 already holds, but the rule needs T2 < T3 there), so the
  // two-phase placement slots T3's version BEFORE T1's instead - the
  // write is accepted with T3 < T1.
  ASSERT_EQ(s.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{2, OpType::kRead, 0}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{3, OpType::kRead, 1}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{2, OpType::kWrite, 1}), OpDecision::kAccept);
  ASSERT_TRUE(VectorLess(s.Ts(3), s.Ts(2)));
  EXPECT_EQ(s.Process(Op{3, OpType::kWrite, 0}), OpDecision::kAccept);
  EXPECT_TRUE(VectorLess(s.Ts(3), s.Ts(1)))
      << "T3's version must have been placed before T1's";
  EXPECT_EQ(s.VersionCount(0), 3u);
  EXPECT_TRUE(s.AuditMvsgAcyclic());
}

TEST(MvSchedulerTest, WriteRejectedWhenReaderOfInitialVersionIsAfter) {
  auto s = Make();
  // T4 reads the initial version of x; T5 < T4 is then fixed via z. T5
  // writing x has no feasible slot: every slot lies at or above the
  // initial version, whose reader T4 is already ordered after T5.
  ASSERT_EQ(s.Process(Op{4, OpType::kRead, 0}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{5, OpType::kRead, 2}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{4, OpType::kWrite, 2}), OpDecision::kAccept);
  ASSERT_TRUE(VectorLess(s.Ts(5), s.Ts(4)));
  EXPECT_EQ(s.Process(Op{5, OpType::kWrite, 0}), OpDecision::kReject);
  EXPECT_TRUE(s.IsAborted(5));
  EXPECT_GT(s.stats().write_rejects, 0u);
}

TEST(MvSchedulerTest, MvsgAuditAcyclicOnRandomWorkloads) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    WorkloadOptions w;
    w.num_txns = 8;
    w.num_items = 4;
    w.min_ops = 1;
    w.max_ops = 4;
    w.read_fraction = 0.5;
    w.seed = seed + 700;
    Log log = GenerateLog(w);
    auto s = Make((seed % 3) + 1);
    for (const Op& op : log.ops()) {
      if (!s.IsAborted(op.txn)) s.Process(op);
    }
    for (TxnId t = 1; t <= log.num_txns(); ++t) {
      if (!s.IsAborted(t)) s.CommitTxn(t);
    }
    EXPECT_TRUE(s.AuditMvsgAcyclic()) << "seed " << seed;
  }
}

TEST(MvSchedulerTest, RestartInvalidatesVersionsAndReads) {
  auto s = Make();
  ASSERT_EQ(s.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
  EXPECT_EQ(s.VersionCount(0), 2u);
  // Force-abort T1 through a rejected write.
  ASSERT_EQ(s.Process(Op{2, OpType::kRead, 0}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{3, OpType::kRead, 1}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{1, OpType::kWrite, 1}), OpDecision::kAccept);
  // T3 < T1 now holds; make T1 conflict so it aborts:
  // simplest: directly mark via a failing write is hard here; instead use
  // RestartTxn on an aborted txn path: reject write of T4 after ordering.
  // For this test just exercise RestartTxn's invalidation semantics:
  ASSERT_EQ(s.Process(Op{4, OpType::kRead, 2}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{5, OpType::kRead, 3}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{4, OpType::kWrite, 3}), OpDecision::kAccept);
  ASSERT_TRUE(VectorLess(s.Ts(5), s.Ts(4)));
  ASSERT_EQ(s.Process(Op{5, OpType::kWrite, 2}), OpDecision::kReject);
  ASSERT_TRUE(s.IsAborted(5));
  s.RestartTxn(5);
  EXPECT_FALSE(s.IsAborted(5));
  EXPECT_EQ(s.Process(Op{5, OpType::kRead, 0}), OpDecision::kAccept);
}

TEST(MvSchedulerTest, PruneReclaimsUnreadOldVersions) {
  auto s = Make();
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_EQ(s.Process(Op{t, OpType::kWrite, 0}), OpDecision::kAccept);
    s.CommitTxn(t);
  }
  EXPECT_EQ(s.VersionCount(0), 6u);
  s.PruneVersions();
  // Only the newest committed version (and nothing older, since no one
  // read the older ones) survives.
  EXPECT_EQ(s.VersionCount(0), 1u);
}

TEST(MvSchedulerTest, PruneKeepsVersionsWithLiveReaders) {
  auto s = Make();
  ASSERT_EQ(s.Process(Op{1, OpType::kWrite, 0}), OpDecision::kAccept);
  s.CommitTxn(1);
  ASSERT_EQ(s.Process(Op{2, OpType::kRead, 0}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{3, OpType::kWrite, 0}), OpDecision::kAccept);
  s.CommitTxn(3);
  s.PruneVersions();
  // T1's version still has live reader T2; the initial version is
  // reclaimable (no readers).
  EXPECT_EQ(s.VersionCount(0), 2u);
}

TEST(MvSchedulerTest, ReadWalkFailureAfterPruneIsLexOrder) {
  // W1[c] C1 R2[c] W2[d] C2, a prune (d's chain keeps only T2's version),
  // then W3[e] R3[d]: under Algorithm 1's line 20, T3's first element comes
  // from T0, so T2 is already ordered after T3 and the walk has no version
  // left to take. The reject carries the refusing Set's cause. The column
  // clocks accept R3[d] instead (the next test, and the engine's
  // EngineMvTest.ReadAfterSweepIsOrderedPastTheNewestWriter).
  constexpr ItemId kC = 0, kD = 1, kE = 2;
  auto s = Make(3);
  ASSERT_EQ(s.Process(Op{1, OpType::kWrite, kC}), OpDecision::kAccept);
  s.CommitTxn(1);
  ASSERT_EQ(s.Process(Op{2, OpType::kRead, kC}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{2, OpType::kWrite, kD}), OpDecision::kAccept);
  s.CommitTxn(2);
  s.PruneVersions();
  ASSERT_EQ(s.VersionCount(kD), 1u);
  ASSERT_EQ(s.Process(Op{3, OpType::kWrite, kE}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{3, OpType::kRead, kD}), OpDecision::kReject);
  EXPECT_EQ(s.last_reject().reason, AbortReason::kLexOrder)
      << AbortReasonName(s.last_reject().reason);
  EXPECT_EQ(s.stats().read_rejects, 1u);
}

TEST(MvSchedulerTest, ColumnClocksOrderReadAfterPrunePastTheNewestWriter) {
  // The same history under MvMtkOptions::column_clocks: T3's first element
  // comes from the column clock, past T2's, so R3[d] reads T2's version.
  constexpr ItemId kC = 0, kD = 1, kE = 2;
  MvMtkOptions options;
  options.k = 3;
  options.column_clocks = true;
  MvMtkScheduler s(options);
  ASSERT_EQ(s.Process(Op{1, OpType::kWrite, kC}), OpDecision::kAccept);
  s.CommitTxn(1);
  ASSERT_EQ(s.Process(Op{2, OpType::kRead, kC}), OpDecision::kAccept);
  ASSERT_EQ(s.Process(Op{2, OpType::kWrite, kD}), OpDecision::kAccept);
  s.CommitTxn(2);
  s.PruneVersions();
  ASSERT_EQ(s.VersionCount(kD), 1u);
  ASSERT_EQ(s.Process(Op{3, OpType::kWrite, kE}), OpDecision::kAccept);
  EXPECT_EQ(s.Process(Op{3, OpType::kRead, kD}), OpDecision::kAccept);
  EXPECT_EQ(Compare(s.Ts(2), s.Ts(3)).order, VectorOrder::kLess);
  EXPECT_EQ(s.stats().read_rejects, 0u);
  EXPECT_EQ(s.stats().old_version_reads, 0u);
  s.CommitTxn(3);
  EXPECT_TRUE(s.AuditMvsgAcyclic());
}

TEST(MvSchedulerTest, DumpVersionsListsChain) {
  auto s = Make();
  s.Process(Op{1, OpType::kWrite, 0});
  s.Process(Op{2, OpType::kRead, 0});
  std::string dump = s.DumpVersions(0);
  EXPECT_NE(dump.find("T1"), std::string::npos);
  EXPECT_NE(dump.find("readers: T2"), std::string::npos);
}

TEST(MvOnlineTest, SimulationCompletesAndAuditsClean) {
  MvMtkOptions options;
  options.k = 3;
  MvOnline s(options);
  SimOptions sim;
  sim.num_txns = 80;
  sim.concurrency = 8;
  sim.seed = 31;
  sim.workload.num_items = 6;
  sim.workload.min_ops = 2;
  sim.workload.max_ops = 4;
  sim.workload.read_fraction = 0.6;
  SimResult r = RunSimulation(&s, sim);
  EXPECT_EQ(r.committed + r.gave_up, 80u);
  EXPECT_GT(r.committed, 60u);
  // The one-copy-serializability audit over everything that committed.
  EXPECT_TRUE(s.inner().AuditMvsgAcyclic());
  EXPECT_EQ(s.inner().stats().read_rejects, 0u);
}

TEST(MvOnlineTest, FewerAbortsThanSingleVersionUnderReadHeavyLoad) {
  SimOptions sim;
  sim.num_txns = 150;
  sim.concurrency = 10;
  sim.seed = 17;
  sim.workload.num_items = 6;
  sim.workload.min_ops = 2;
  sim.workload.max_ops = 4;
  sim.workload.read_fraction = 0.8;  // Read-heavy: MVCC's sweet spot.

  MtkOptions so;
  so.k = 3;
  so.starvation_fix = true;
  MtkOnline single(so);
  SimResult rs = RunSimulation(&single, sim);

  MvMtkOptions mo;
  mo.k = 3;
  mo.starvation_fix = true;
  MvOnline multi(mo);
  SimResult rm = RunSimulation(&multi, sim);

  EXPECT_EQ(rm.committed, 150u);
  EXPECT_EQ(rm.gave_up, 0u);
  EXPECT_LT(rm.aborts, rs.aborts)
      << "multiversion should abort less under read-heavy contention "
      << "(single: " << rs.aborts << ", multi: " << rm.aborts << ")";
  EXPECT_TRUE(multi.inner().AuditMvsgAcyclic());
}

TEST(MvOnlineTest, WriterStarvationWithoutSeedFix) {
  // Without Section III-D-4 seeding, continuously arriving readers keep
  // floating later than a blocked writer's anchored vector and can starve
  // it; the seeded variant drives everything to commit. (This is the
  // multiversion analogue of MVTO's write-rejection weakness.)
  SimOptions sim;
  sim.num_txns = 150;
  sim.concurrency = 10;
  sim.seed = 17;
  sim.workload.num_items = 6;
  sim.workload.min_ops = 2;
  sim.workload.max_ops = 4;
  sim.workload.read_fraction = 0.8;

  MvMtkOptions unfixed;
  unfixed.k = 3;
  MvOnline without(unfixed);
  SimResult r_without = RunSimulation(&without, sim);

  MvMtkOptions fixed = unfixed;
  fixed.starvation_fix = true;
  MvOnline with(fixed);
  SimResult r_with = RunSimulation(&with, sim);

  EXPECT_EQ(r_with.gave_up, 0u);
  EXPECT_LT(r_with.aborts, r_without.aborts / 4)
      << "seeding should collapse the write-starvation abort count "
      << "(without: " << r_without.aborts << ", with: " << r_with.aborts
      << ")";
}

}  // namespace
}  // namespace mdts
