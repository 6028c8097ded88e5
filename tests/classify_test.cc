#include "classify/classes.h"

#include "classify/dependency_graph.h"
#include "classify/hierarchy.h"
#include "core/log.h"
#include "core/recognizer.h"
#include "gtest/gtest.h"
#include "workload/generator.h"

namespace mdts {
namespace {

Log L(const char* text) {
  auto r = Log::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

// --- Dependency graph / DSR ---

TEST(DependencyGraphTest, BuildsConflictEdges) {
  DependencyGraph g = DependencyGraph::FromLog(L("W1[x] R2[x] W3[y] R1[y]"));
  EXPECT_TRUE(g.HasEdge(1, 2));   // W1[x] before R2[x].
  EXPECT_TRUE(g.HasEdge(3, 1));   // W3[y] before R1[y].
  EXPECT_FALSE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasCycle());
}

TEST(DependencyGraphTest, ReadsDoNotConflict) {
  DependencyGraph g = DependencyGraph::FromLog(L("R1[x] R2[x] R3[x]"));
  EXPECT_TRUE(g.edges().empty());
}

TEST(DependencyGraphTest, DetectsCycle) {
  // R1[x] < W2[x] gives 1->2; W2[y] < W1[y] gives 2->1.
  DependencyGraph g = DependencyGraph::FromLog(L("R1[x] W2[x] W2[y] W1[y]"));
  EXPECT_TRUE(g.HasCycle());
  EXPECT_TRUE(g.TopologicalOrder().empty());
}

TEST(DependencyGraphTest, TopologicalOrderIsAWitness) {
  Log log = L("R2[y] R1[x] W1[y] R3[z] W2[z]");
  DependencyGraph g = DependencyGraph::FromLog(log);
  auto order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  // Edges 2->1 (y) and 3->2 (z) force 3, 2, 1.
  EXPECT_EQ(order, (std::vector<TxnId>{3, 2, 1}));
}

TEST(DependencyGraphTest, DotRenderingMentionsAllEdges) {
  DependencyGraph g = DependencyGraph::FromLog(L("W1[x] R2[x]"));
  std::string dot = g.ToDot("g");
  EXPECT_NE(dot.find("T1 -> T2"), std::string::npos);
}

TEST(DsrTest, PaperExample1IsDsr) {
  EXPECT_TRUE(IsDsr(L("W1[x] W1[y] R3[x] R2[y] W3[y]")));
}

TEST(DsrTest, CyclicLogIsNotDsr) {
  EXPECT_FALSE(IsDsr(L("R1[x] W2[x] W2[y] W1[y]")));
}

// IsDsr checks a sparser digraph than the full conflict graph; both must
// agree on every log, cyclic or not.
TEST(DsrTest, MatchesTheFullConflictGraph) {
  size_t dsr = 0;
  size_t non_dsr = 0;
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    WorkloadOptions w;
    w.num_txns = 2 + static_cast<uint32_t>(seed % 6);
    w.num_items = 1 + static_cast<uint32_t>(seed % 4);
    w.min_ops = 1;
    w.max_ops = 5;
    w.distinct_items_per_txn = seed % 2 == 0;
    w.seed = seed;
    const Log log = GenerateLog(w);
    const bool want = !DependencyGraph::FromLog(log).HasCycle();
    ASSERT_EQ(IsDsr(log), want) << log.ToString();
    ++(want ? dsr : non_dsr);
  }
  EXPECT_GT(dsr, 100u);
  EXPECT_GT(non_dsr, 100u);
}

TEST(DsrTest, SerialOrderEmptyForNonDsr) {
  EXPECT_TRUE(DsrSerialOrder(L("R1[x] W2[x] W2[y] W1[y]")).empty());
}

// --- TO(1) by Definition 4 vs the MT(1) recognizer ---

TEST(To1Test, SerialLogSatisfiesDefinition4) {
  EXPECT_TRUE(IsTo1ByDefinition(L("R1[x] W1[x] R2[x] W2[x]")));
}

TEST(To1Test, ReadReadConditionIvEnforced) {
  // R2[y] then R1[y] with s_1 < s_2 violates condition iv even though reads
  // do not conflict.
  EXPECT_FALSE(IsTo1ByDefinition(L("R1[x] R2[y] R1[y]")));
  // MT(1) accepts it through Algorithm 1's line 9: the class TO(1) is
  // slightly larger than the Definition-4 necessary condition.
  EXPECT_TRUE(IsToK(L("R1[x] R2[y] R1[y]"), 1));
}

TEST(To1Test, Definition4ImpliesMt1AcceptanceOnRandomLogs) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    WorkloadOptions options;
    options.num_txns = 5;
    options.num_items = 4;
    options.min_ops = 1;
    options.max_ops = 3;
    options.seed = seed;
    Log log = GenerateLog(options);
    if (IsTo1ByDefinition(log)) {
      EXPECT_TRUE(IsToK(log, 1)) << log.ToString();
    }
  }
}

// --- View / final-state serializability ---

TEST(SerializabilityTest, ViewButNotConflictSerializable) {
  // Blind-write log: not DSR (cycle between T1 and T2 on x) but
  // view-equivalent to T1 T2 T3.
  Log log = L("R1[x] W2[x] W1[x] W3[x]");
  EXPECT_FALSE(IsDsr(log));
  auto vsr = IsViewSerializable(log);
  ASSERT_TRUE(vsr.ok());
  EXPECT_TRUE(*vsr);
}

TEST(SerializabilityTest, NonSerializableLog) {
  // Lost update: both read the initial x then both write it.
  Log log = L("R1[x] R2[x] W1[x] W2[x]");
  auto vsr = IsViewSerializable(log);
  ASSERT_TRUE(vsr.ok());
  EXPECT_FALSE(*vsr);
  auto fsr = IsFinalStateSerializable(log);
  ASSERT_TRUE(fsr.ok());
  EXPECT_FALSE(*fsr);
}

TEST(SerializabilityTest, DeadReadMakesFinalStateStrictlyWeaker) {
  // T2 only reads; its reads never influence the final state, so the
  // final-state test ignores them while the view test does not.
  // R2 reads x between W1[x] and W3[x]: view-wise R2 must read from W1,
  // forcing 1 < 2 < 3; that is still achievable, so pick the variant where
  // it is not: R2 reads x before any write but after T1 started writing y.
  Log log = L("W1[y] R2[x] W1[x] R2[y]");
  // View: R2[x] reads initial, R2[y] reads from W1[y]: serial T1 T2 gives
  // R2[x] reading W1[x] instead -> not view-serializable; T2 T1 gives R2[y]
  // reading initial -> not view-equivalent either.
  auto vsr = IsViewSerializable(log);
  ASSERT_TRUE(vsr.ok());
  EXPECT_FALSE(*vsr);
  // Final state: T2 writes nothing, so both serial orders produce the same
  // final state as the log.
  auto fsr = IsFinalStateSerializable(log);
  ASSERT_TRUE(fsr.ok());
  EXPECT_TRUE(*fsr);
}

TEST(SerializabilityTest, ConflictSerializableImpliesViewAndFinalState) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    WorkloadOptions options;
    options.num_txns = 4;
    options.num_items = 3;
    options.min_ops = 1;
    options.max_ops = 3;
    options.read_fraction = 0.5;
    options.seed = seed;
    Log log = GenerateLog(options);
    auto vsr = IsViewSerializable(log);
    auto fsr = IsFinalStateSerializable(log);
    ASSERT_TRUE(vsr.ok() && fsr.ok());
    if (IsDsr(log)) {
      EXPECT_TRUE(*vsr) << log.ToString();
    }
    if (*vsr) {
      EXPECT_TRUE(*fsr) << log.ToString();
    }
  }
}

TEST(SerializabilityTest, BruteForceGuardsAgainstLargeLogs) {
  WorkloadOptions options;
  options.num_txns = kMaxBruteForceTxns + 1;
  options.num_items = 4;
  Log log = GenerateLog(options);
  EXPECT_FALSE(IsViewSerializable(log).ok());
  EXPECT_FALSE(IsSsr(log).ok());
}

// --- Strict serializability ---

TEST(SsrTest, SerialLogIsStrictlySerializable) {
  auto ssr = IsSsr(L("R1[x] W1[x] R2[x] W2[x]"));
  ASSERT_TRUE(ssr.ok());
  EXPECT_TRUE(*ssr);
  EXPECT_TRUE(IsSsrConflict(L("R1[x] W1[x] R2[x] W2[x]")));
}

TEST(SsrTest, SerializableButNotStrict) {
  // Serialization is forced to T3 T2 T1 (conflicts 3->2 on z, 2->1 on y),
  // but T1 completes before T3 starts. T3 writes w so its read of z is
  // visible to final-state equivalence.
  Log log = L("R2[y] R1[x] W1[y] R3[z] W2[z] W3[w]");
  EXPECT_TRUE(IsDsr(log));
  auto sr = IsFinalStateSerializable(log);
  ASSERT_TRUE(sr.ok());
  EXPECT_TRUE(*sr);
  auto ssr = IsSsr(log);
  ASSERT_TRUE(ssr.ok());
  EXPECT_FALSE(*ssr);
  EXPECT_FALSE(IsSsrConflict(log));
}

TEST(SsrTest, ConflictTestImpliesBruteForceTest) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    WorkloadOptions options;
    options.num_txns = 4;
    options.num_items = 3;
    options.min_ops = 1;
    options.max_ops = 3;
    options.seed = seed;
    Log log = GenerateLog(options);
    if (IsSsrConflict(log)) {
      auto ssr = IsSsr(log);
      ASSERT_TRUE(ssr.ok());
      EXPECT_TRUE(*ssr) << log.ToString();
    }
  }
}

// --- 2PL class membership ---

TEST(TwoPlTest, SerialLogIsTwoPl) {
  EXPECT_TRUE(IsTwoPl(L("R1[x] W1[y] R2[x] W2[y]")));
}

TEST(TwoPlTest, DisjointInterleavingIsTwoPl) {
  EXPECT_TRUE(IsTwoPl(L("R1[x] R2[y] W1[x] W2[y]")));
}

TEST(TwoPlTest, EarlyAcquisitionCaseIsTwoPl) {
  // T1 can predeclare (lock x and y up front), release x after reading it,
  // and still write y later: the interleaving is 2PL-producible.
  EXPECT_TRUE(IsTwoPl(L("R1[x] W2[x] W1[y] W2[y]")));
}

TEST(TwoPlTest, LockUpgradePatternIsNotTwoPl) {
  // T2 reads x inside T1's read-write span on x: with one continuous lock
  // window per (transaction, item), T1's window must cover both its ops,
  // excluding T2's read between them.
  EXPECT_FALSE(IsTwoPl(L("R1[x] R2[x] W1[x]")));
}

TEST(TwoPlTest, DsrButNotTwoPl) {
  // T1 must release x before W2[x] (so T1's lock point is early), yet T3
  // writes y before T1's own y-write: T3's window on y cannot fit before
  // T1's early-acquired y lock. DSR holds (edges 1->2, 3->1, acyclic).
  Log log = L("R1[x] W2[x] W3[y] W1[y]");
  EXPECT_TRUE(IsDsr(log));
  EXPECT_FALSE(IsTwoPl(log));
}

TEST(TwoPlTest, NonDsrIsNeverTwoPl) {
  EXPECT_FALSE(IsTwoPl(L("R1[x] W2[x] W2[y] W1[y]")));
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    WorkloadOptions options;
    options.num_txns = 4;
    options.num_items = 3;
    options.min_ops = 1;
    options.max_ops = 3;
    options.seed = seed;
    Log log = GenerateLog(options);
    if (IsTwoPl(log)) {
      EXPECT_TRUE(IsDsr(log)) << log.ToString();
    }
  }
}

// --- Hierarchy bundle ---

TEST(HierarchyTest, SerialLogIsInEveryClass) {
  auto m = ClassifyLog(L("R1[x] W1[x] R2[x] W2[x]"));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->sr);
  EXPECT_TRUE(m->dsr);
  EXPECT_TRUE(m->ssr);
  EXPECT_TRUE(m->two_pl);
  EXPECT_TRUE(m->to1);
  EXPECT_TRUE(m->to2);
  EXPECT_TRUE(m->to3);
  EXPECT_EQ(Fig4Region(*m), 1);
}

TEST(HierarchyTest, SignatureIsReadable) {
  ClassMembership m;
  m.sr = m.dsr = true;
  EXPECT_EQ(MembershipSignature(m), "+SR+DSR-SSR-2PL-TO1-TO2-TO3");
}

TEST(HierarchyTest, RegionZeroForInconsistentMembership) {
  ClassMembership m;
  m.two_pl = true;  // 2PL without DSR/SR is impossible.
  EXPECT_EQ(Fig4Region(m), 0);
}

TEST(HierarchyTest, ClassifiedRandomLogsAreAlwaysConsistent) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    WorkloadOptions options;
    options.num_txns = 3;
    options.num_items = 3;
    options.min_ops = 1;
    options.max_ops = 3;
    options.seed = seed;
    Log log = GenerateLog(options);
    auto m = ClassifyLog(log);
    ASSERT_TRUE(m.ok());
    EXPECT_NE(Fig4Region(*m), 0) << log.ToString() << " "
                                 << MembershipSignature(*m);
  }
}

}  // namespace
}  // namespace mdts
