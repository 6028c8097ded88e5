#include "dist/dmt_system.h"

#include "classify/classes.h"
#include "gtest/gtest.h"

namespace mdts {
namespace {

DmtOptions BaseOptions(uint64_t seed) {
  DmtOptions options;
  options.k = 3;
  options.num_sites = 3;
  options.num_txns = 40;
  options.concurrency = 6;
  options.message_latency = 0.5;
  options.mean_think_time = 1.0;
  options.restart_delay = 3.0;
  options.seed = seed;
  options.workload.num_items = 9;
  options.workload.min_ops = 2;
  options.workload.max_ops = 3;
  options.workload.read_fraction = 0.6;
  return options;
}

TEST(DmtTest, CompletesAllTransactions) {
  DmtResult r = RunDmtSimulation(BaseOptions(1));
  EXPECT_EQ(r.committed + r.gave_up, 40u);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(DmtTest, DeterministicGivenSeed) {
  DmtResult a = RunDmtSimulation(BaseOptions(5));
  DmtResult b = RunDmtSimulation(BaseOptions(5));
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.committed_history.ToString(), b.committed_history.ToString());
}

TEST(DmtTest, GlobalHistoryIsSerializable) {
  // The decentralized protocol must still only commit DSR histories, for
  // every seed and site count.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (uint32_t sites : {1u, 2u, 4u}) {
      DmtOptions options = BaseOptions(seed * 31);
      options.num_sites = sites;
      options.workload.num_items = 6;  // Contention.
      DmtResult r = RunDmtSimulation(options);
      EXPECT_GT(r.committed, 0u);
      EXPECT_TRUE(IsDsr(r.committed_history))
          << "sites=" << sites << " seed=" << seed << "\n"
          << r.committed_history.ToString();
    }
  }
  // At k=2 the last column carries most dependencies, so per-site counters
  // that ignored the bound they must exceed used to commit non-DSR
  // histories (e.g. seed 38 * 31 with 3 sites, 46 * 31 with 2 sites). At
  // k=1 and k=3 a write ordered only after RT(x)'s top, not after the
  // line-10 readers an aborted top had covered, did (3 and 1 of these 900
  // runs).
  for (const size_t k : {1, 2, 3}) {
    for (uint64_t seed = 1; seed <= 300; ++seed) {
      for (uint32_t sites : {2u, 3u, 4u}) {
        DmtOptions options = BaseOptions(seed * 31);
        options.k = k;
        options.num_sites = sites;
        options.workload.num_items = 6;
        DmtResult r = RunDmtSimulation(options);
        EXPECT_TRUE(IsDsr(r.committed_history))
            << "k=" << k << " sites=" << sites << " seed=" << seed
            << " * 31\n"
            << r.committed_history.ToString();
      }
    }
  }
}

TEST(DmtTest, VectorCompactionBoundsStorage) {
  // With many transactions flowing through, finished vectors must be
  // released: the table left at the end is bounded by the live span, not
  // by num_txns, and reclamation never compromises serializability.
  DmtOptions options = BaseOptions(3);
  options.num_txns = 400;
  options.concurrency = 8;
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.committed + r.gave_up, 400u);
  EXPECT_GT(r.vectors_released, 300u);
  EXPECT_LT(r.final_live_vectors, 100u);
  EXPECT_TRUE(IsDsr(r.committed_history));
}

TEST(DmtTest, SingleSiteSendsNoMessages) {
  DmtOptions options = BaseOptions(9);
  options.num_sites = 1;
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.messages_sent, 0u);
  EXPECT_EQ(r.committed + r.gave_up, 40u);
}

TEST(DmtTest, MoreSitesMoreMessages) {
  DmtOptions options = BaseOptions(13);
  options.num_sites = 2;
  const uint64_t m2 = RunDmtSimulation(options).messages_sent;
  options.num_sites = 6;
  const uint64_t m6 = RunDmtSimulation(options).messages_sent;
  EXPECT_GT(m6, m2);
}

TEST(DmtTest, MessageCountBoundedPerOperation) {
  // The paper: "the message overhead tends to be proportionate"; each
  // operation locks at most 4 objects, each costing at most 3 messages
  // (request, grant, combined writeback/release).
  DmtOptions options = BaseOptions(17);
  options.num_sites = 4;
  DmtResult r = RunDmtSimulation(options);
  ASSERT_GT(r.ops_scheduled, 0u);
  EXPECT_LE(r.messages_sent, 12 * r.ops_scheduled);
}

TEST(DmtTest, DeadlockFreedomUnderHighContention) {
  // Ordered locking means the run always terminates with all transactions
  // resolved, even with many sites and tiny item space.
  DmtOptions options = BaseOptions(21);
  options.num_sites = 5;
  options.num_txns = 60;
  options.concurrency = 12;
  options.workload.num_items = 5;
  options.workload.read_fraction = 0.4;
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.committed + r.gave_up, 60u);
  EXPECT_TRUE(IsDsr(r.committed_history));
}

TEST(DmtTest, OpsPerSiteCoversAllSites) {
  DmtOptions options = BaseOptions(25);
  options.num_sites = 3;
  options.workload.num_items = 9;  // 3 items per site.
  DmtResult r = RunDmtSimulation(options);
  ASSERT_EQ(r.ops_per_site.size(), 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_GT(r.ops_per_site[s], 0u) << "site " << s;
  }
}

TEST(DmtTest, CounterSyncKeepsRunsSerializable) {
  DmtOptions options = BaseOptions(29);
  options.counter_sync_interval = 5.0;
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.committed + r.gave_up, 40u);
  EXPECT_TRUE(IsDsr(r.committed_history));
}

TEST(DmtTest, HigherLatencyStretchesMakespan) {
  DmtOptions options = BaseOptions(33);
  options.message_latency = 0.1;
  const double fast = RunDmtSimulation(options).makespan;
  options.message_latency = 5.0;
  const double slow = RunDmtSimulation(options).makespan;
  EXPECT_GT(slow, fast);
}

TEST(DmtTest, CleanRunReportsNoFaultActivity) {
  DmtResult r = RunDmtSimulation(BaseOptions(37));
  EXPECT_EQ(r.messages_dropped, 0u);
  EXPECT_EQ(r.messages_duplicated, 0u);
  EXPECT_EQ(r.lock_retries, 0u);
  EXPECT_EQ(r.timeout_give_ups, 0u);
  EXPECT_EQ(r.lease_reclaims, 0u);
  EXPECT_EQ(r.down_site_aborts, 0u);
  EXPECT_GE(r.p99_response_time, r.avg_response_time);
}

TEST(DmtTest, MaxConsecutiveAbortsTracksStarvation) {
  DmtOptions options = BaseOptions(41);
  options.workload.num_items = 4;  // Heavy contention forces re-aborts.
  options.workload.read_fraction = 0.2;
  DmtResult r = RunDmtSimulation(options);
  EXPECT_GT(r.aborts, 0u);
  EXPECT_GE(r.aborts, r.max_consecutive_aborts);
  EXPECT_GT(r.max_consecutive_aborts, 0u);
}

// --- Fault injection & recovery ---

DmtOptions FaultyOptions(uint64_t seed) {
  DmtOptions options = BaseOptions(seed);
  options.fault.drop_rate = 0.1;
  options.fault.duplicate_rate = 0.05;
  options.fault.jitter = 0.25;
  return options;
}

TEST(DmtFaultTest, FaultyRunDeterministicGivenSeed) {
  DmtOptions options = FaultyOptions(3);
  options.fault.crashes.push_back({1, 40.0, 80.0});
  DmtResult a = RunDmtSimulation(options);
  DmtResult b = RunDmtSimulation(options);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.lock_retries, b.lock_retries);
  EXPECT_EQ(a.lease_reclaims, b.lease_reclaims);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.committed_history.ToString(), b.committed_history.ToString());
}

TEST(DmtFaultTest, MessageLossRetriesAndStaysSerializable) {
  DmtOptions options = FaultyOptions(7);
  options.fault.drop_rate = 0.2;
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.committed + r.gave_up, 40u);  // Nothing wedges.
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_GT(r.lock_retries, 0u);
  EXPECT_TRUE(IsDsr(r.committed_history)) << r.committed_history.ToString();
}

// The ISSUE acceptance scenario: up to 20% message loss plus a mid-run
// crash and recovery, for a fixed seed, must terminate with commits and a
// DSR history.
TEST(DmtFaultTest, LossPlusMidRunCrashRecoversAndCommits) {
  DmtOptions options = BaseOptions(19);
  options.fault.drop_rate = 0.2;
  options.fault.crashes.push_back({1, 60.0, 160.0});
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.committed + r.gave_up, 40u);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.down_site_aborts, 0u);
  EXPECT_TRUE(IsDsr(r.committed_history)) << r.committed_history.ToString();
}

TEST(DmtFaultTest, CrashWithoutRecoveryDegradesGracefully) {
  DmtOptions options = BaseOptions(23);
  options.max_attempts = 20;  // Bound futile retries against the dead site.
  options.fault.crashes.push_back({2, 50.0});  // Never recovers.
  DmtResult r = RunDmtSimulation(options);
  // Transactions touching the dead site abort-and-retry until they give
  // up; everything else commits, and the run still terminates.
  EXPECT_EQ(r.committed + r.gave_up, 40u);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.down_site_aborts, 0u);
  EXPECT_TRUE(IsDsr(r.committed_history)) << r.committed_history.ToString();
}

TEST(DmtFaultTest, LeasesReclaimLocksFromCrashedCoordinators) {
  DmtOptions options = BaseOptions(29);
  options.num_sites = 4;
  options.fault.drop_rate = 0.25;  // Lost releases leave orphaned locks.
  options.fault.crashes.push_back({0, 30.0, 90.0});
  options.fault.crashes.push_back({3, 120.0, 170.0});
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.committed + r.gave_up, 40u);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.lease_reclaims, 0u);
  EXPECT_TRUE(IsDsr(r.committed_history)) << r.committed_history.ToString();
}

TEST(DmtFaultTest, DuplicatedMessagesAreIdempotent) {
  DmtOptions options = BaseOptions(31);
  options.fault.duplicate_rate = 0.5;
  options.fault.jitter = 0.5;
  DmtResult r = RunDmtSimulation(options);
  EXPECT_EQ(r.committed + r.gave_up, 40u);
  EXPECT_GT(r.messages_duplicated, 0u);
  EXPECT_TRUE(IsDsr(r.committed_history)) << r.committed_history.ToString();
}

// Seed-sweep property test: the safety claim (Theorem 2 - only DSR
// histories commit) must survive every fault mix, counter-sync setting and
// site count, for >= 50 random seeds.
TEST(DmtFaultTest, SeedSweepHistoriesAlwaysDsr) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    DmtOptions options = BaseOptions(seed * 17 + 1);
    options.num_txns = 24;
    options.num_sites = 2 + seed % 3;
    options.workload.num_items = 6;  // Contention.
    if (seed % 3 == 0) options.counter_sync_interval = 4.0;
    if (seed % 2 == 0) {
      options.fault.drop_rate = 0.05 + 0.15 * static_cast<double>(seed % 4) / 3.0;
      options.fault.jitter = 0.3;
    }
    if (seed % 4 == 1) options.fault.duplicate_rate = 0.1;
    if (seed % 5 == 0) {
      options.fault.crashes.push_back(
          {static_cast<uint32_t>(seed % options.num_sites), 30.0,
           30.0 + 10.0 * static_cast<double>(seed % 7)});
    }
    DmtResult r = RunDmtSimulation(options);
    EXPECT_EQ(r.committed + r.gave_up, 24u) << "seed=" << seed;
    EXPECT_GT(r.committed, 0u) << "seed=" << seed;
    EXPECT_TRUE(IsDsr(r.committed_history))
        << "seed=" << seed << " sites=" << options.num_sites << "\n"
        << r.committed_history.ToString();
  }
}

}  // namespace
}  // namespace mdts
