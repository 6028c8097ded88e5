#include "workload/generator.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/mtk_scheduler.h"
#include "gtest/gtest.h"
#include "workload/closed_loop.h"
#include "workload/enumerate.h"

namespace mdts {
namespace {

TEST(GeneratorTest, DeterministicForSameSeed) {
  WorkloadOptions options;
  options.seed = 99;
  EXPECT_EQ(GenerateLog(options).ToString(), GenerateLog(options).ToString());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  WorkloadOptions a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(GenerateLog(a).ToString(), GenerateLog(b).ToString());
}

TEST(GeneratorTest, RespectsOpsPerTxnBounds) {
  WorkloadOptions options;
  options.num_txns = 20;
  options.num_items = 50;
  options.min_ops = 2;
  options.max_ops = 5;
  options.seed = 7;
  Log log = GenerateLog(options);
  for (TxnId t = 1; t <= options.num_txns; ++t) {
    EXPECT_GE(log.OpsOfTxn(t), 2u);
    EXPECT_LE(log.OpsOfTxn(t), 5u);
  }
}

TEST(GeneratorTest, TwoStepFlagProducesTwoStepLogs) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    WorkloadOptions options;
    options.two_step = true;
    options.seed = seed;
    EXPECT_TRUE(GenerateLog(options).IsTwoStep());
  }
}

TEST(GeneratorTest, DistinctItemsPerTxnHolds) {
  WorkloadOptions options;
  options.num_txns = 10;
  options.num_items = 6;
  options.min_ops = 4;
  options.max_ops = 6;
  options.distinct_items_per_txn = true;
  options.seed = 3;
  Log log = GenerateLog(options);
  for (TxnId t = 1; t <= options.num_txns; ++t) {
    std::set<ItemId> items;
    size_t count = 0;
    for (const Op& op : log.ops()) {
      if (op.txn == t) {
        items.insert(op.item);
        ++count;
      }
    }
    EXPECT_EQ(items.size(), count) << "txn " << t;
  }
}

TEST(GeneratorTest, ReadFractionExtremes) {
  WorkloadOptions options;
  options.read_fraction = 1.0;
  options.seed = 5;
  const Log all_reads = GenerateLog(options);
  for (const Op& op : all_reads.ops()) {
    EXPECT_EQ(op.type, OpType::kRead);
  }
  options.read_fraction = 0.0;
  const Log all_writes = GenerateLog(options);
  for (const Op& op : all_writes.ops()) {
    EXPECT_EQ(op.type, OpType::kWrite);
  }
}

TEST(GeneratorTest, ZipfSkewConcentratesAccesses) {
  WorkloadOptions options;
  options.num_txns = 200;
  options.num_items = 20;
  options.min_ops = options.max_ops = 2;
  options.distinct_items_per_txn = false;
  options.seed = 11;

  auto hottest_share = [&](double theta) {
    options.zipf_theta = theta;
    std::map<ItemId, size_t> counts;
    Log log = GenerateLog(options);
    for (const Op& op : log.ops()) ++counts[op.item];
    size_t hottest = 0;
    for (const auto& [item, c] : counts) hottest = std::max(hottest, c);
    return static_cast<double>(hottest) / static_cast<double>(log.size());
  };

  EXPECT_LT(hottest_share(0.0), 0.15);
  EXPECT_GT(hottest_share(1.2), 0.25);
}

TEST(GeneratorTest, ProgramsAndInterleavePreserveOrder) {
  WorkloadOptions options;
  options.num_txns = 5;
  options.seed = 13;
  Rng rng(options.seed);
  auto programs = GenerateTxnPrograms(options, &rng);
  Log log = InterleavePrograms(programs, &rng);
  // Per-transaction op order must be preserved in the interleaving.
  std::vector<size_t> next(programs.size(), 0);
  for (const Op& op : log.ops()) {
    const size_t t = op.txn - 1;
    ASSERT_LT(next[t], programs[t].size());
    EXPECT_EQ(op, programs[t][next[t]]);
    ++next[t];
  }
}

// --- Enumeration ---

TEST(EnumerateTest, CountInterleavingsMatchesMultinomial) {
  EXPECT_EQ(CountInterleavings({2, 2}), 6u);
  EXPECT_EQ(CountInterleavings({2, 2, 2}), 90u);
  EXPECT_EQ(CountInterleavings({1, 1, 1, 1}), 24u);
  EXPECT_EQ(CountInterleavings({3}), 1u);
  EXPECT_EQ(CountInterleavings({}), 1u);
}

TEST(EnumerateTest, ForEachInterleavingVisitsExactlyAllInterleavings) {
  std::vector<std::vector<Op>> programs = {
      {Op{1, OpType::kRead, 0}, Op{1, OpType::kWrite, 0}},
      {Op{2, OpType::kRead, 1}, Op{2, OpType::kWrite, 1}},
  };
  std::set<std::string> seen;
  ForEachInterleaving(programs, [&](const Log& log) {
    EXPECT_TRUE(seen.insert(log.ToString()).second) << "duplicate";
    return true;
  });
  EXPECT_EQ(seen.size(), 6u);
}

TEST(EnumerateTest, EarlyStopPropagates) {
  std::vector<std::vector<Op>> programs = {
      {Op{1, OpType::kRead, 0}},
      {Op{2, OpType::kRead, 0}},
  };
  int visits = 0;
  bool completed = ForEachInterleaving(programs, [&](const Log&) {
    ++visits;
    return false;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visits, 1);
}

TEST(EnumerateTest, TwoStepUniverseSizeIsExact) {
  // 2 transactions over 2 items: 2^(2*2) item choices x 6 interleavings.
  size_t count = 0;
  ForEachTwoStepLog(2, 2, [&](const Log& log) {
    EXPECT_EQ(log.size(), 4u);
    EXPECT_TRUE(log.IsTwoStep());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 16u * 6u);
}

TEST(EnumerateTest, ThreeTxnUniverseSize) {
  size_t count = 0;
  ForEachTwoStepLog(3, 2, [&](const Log&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 64u * 90u);
}

// FNV-1a over every (item, is_read) of every worker's stream.
uint64_t StreamHash(const Workload& w) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const std::vector<StreamOp>& stream : w.ops) {
    for (const StreamOp& op : stream) {
      mix(op.item);
      mix(op.is_read);
    }
  }
  return h;
}

// The benches' recorded cells were measured on these exact programs.
TEST(ClosedLoopTest, MakeWorkloadStreamsArePinned) {
  const Workload one = MakeWorkload(1, 64, 6, 0.6, 42);
  ASSERT_EQ(one.ops.size(), 1u);
  EXPECT_EQ(one.ops[0].size(), (1u << 15) * 6u);
  EXPECT_EQ(StreamHash(one), 0x6300e6ed86c65cbaULL);
  EXPECT_EQ(StreamHash(MakeWorkload(4, 65536, 6, 0.6, 42)),
            0x627d8b5f325fbee5ULL);
  // Worker t's stream does not depend on how many workers there are.
  const Workload three = MakeWorkload(3, 64, 6, 0.6, 42);
  EXPECT_EQ(one.ops[0].size(), three.ops[0].size());
  EXPECT_TRUE(std::equal(one.ops[0].begin(), one.ops[0].end(),
                         three.ops[0].begin(),
                         [](const StreamOp& a, const StreamOp& b) {
                           return a.item == b.item && a.is_read == b.is_read;
                         }));
}

// The per-op loop on MtkScheduler: k=3, starvation fix, one worker, seed
// 42, stopped by the predicate at 20,000 transactions. The counts are the
// ones the loop gave before it moved into this header.
TEST(ClosedLoopTest, PerOpCountsOnTheScheduler) {
  struct Expected {
    uint32_t items;
    uint64_t aborts, ops_accepted;
  };
  for (const Expected& e : {Expected{64, 12942, 148880},
                            Expected{65536, 11214, 149209}}) {
    MtkOptions mo;
    mo.k = 3;
    mo.starvation_fix = true;
    MtkScheduler sched(mo);
    const Workload w = MakeWorkload(1, e.items, 6, 0.6, 42);
    const LoopResult r =
        PerOpLoop(sched, w, 0, 1, /*seconds=*/600.0, /*work_ns=*/0,
                  [](const LoopResult& res) { return res.txns() >= 20000; });
    EXPECT_EQ(r.committed, 20000u) << e.items;
    EXPECT_EQ(r.abandoned, 0u) << e.items;
    EXPECT_EQ(r.aborts, e.aborts) << e.items;
    EXPECT_EQ(r.ops_accepted, e.ops_accepted) << e.items;
    EXPECT_EQ(r.latencies_ns.size(), 2500u) << "every 8th txn is sampled";
    EXPECT_EQ(r.ack_ns.size(), 2500u);
    EXPECT_TRUE(sched.IsCommitted(20000));
  }
}

}  // namespace
}  // namespace mdts
