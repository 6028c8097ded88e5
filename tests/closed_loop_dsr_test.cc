// Theorem 2 under aborts: a closed loop of transactions that restart on
// reject must commit only D-serializable histories. The loop interleaves
// several in-flight transactions at random, so tops of RT(x)/WT(x) abort
// under the readers that Algorithm 1 line 10 accepted below them - the
// case the old-reader list (core/access_history.h, ReadHistory) covers.
// Both element rules are audited at k = 1..3: MtkScheduler with the
// paper's and with the column clocks (core/encoding.h ColumnClocks), and
// the engine, which always runs the clocks, on 1 and 4 shards (sequential
// calls).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "classify/classes.h"
#include "common/rng.h"
#include "core/log.h"
#include "core/mtk_scheduler.h"
#include "core/types.h"
#include "engine/sharded_engine.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

constexpr ItemId kItems = 16;
constexpr size_t kInFlight = 6;
constexpr size_t kOpsPerTxn = 6;
constexpr size_t kCommits = 2000;
constexpr uint64_t kSeeds = 40;

// Runs the closed loop on `sys` until kCommits transactions committed and
// returns the committed projection: the accepted operations of committed
// incarnations, in decision order. Each step issues the next operation of
// a random in-flight transaction (60% reads, uniform items). A reject
// restarts the transaction, which replays its operations from the first;
// after kMaxTries rejects it is abandoned and a new one takes its place.
template <typename Sys>
Log CommittedProjection(Sys& sys, uint64_t seed) {
  struct Slot {
    TxnId txn = kVirtualTxn;
    std::vector<Op> ops;
    size_t next = 0;
    uint32_t tries = 0;
  };
  struct Accepted {
    Op op;
    uint32_t incarnation;
  };
  Rng rng(seed);
  TxnId next_txn = 1;
  auto fresh = [&](Slot& s) {
    s.txn = next_txn++;
    s.ops.clear();
    for (size_t n = 0; n < kOpsPerTxn; ++n) {
      s.ops.push_back({s.txn, rng.Chance(0.6) ? OpType::kRead : OpType::kWrite,
                       static_cast<ItemId>(rng.Uniform(0, kItems - 1))});
    }
    s.next = 0;
    s.tries = 0;
  };
  std::vector<Slot> slots(kInFlight);
  for (Slot& s : slots) fresh(s);
  // Current incarnation and committed incarnation (or -1) per txn id.
  std::vector<uint32_t> incarnation(1, 0);
  std::vector<int64_t> committed(1, -1);
  std::vector<Accepted> accepted;
  size_t commits = 0;
  while (commits < kCommits) {
    Slot& s = slots[rng.Uniform(0, kInFlight - 1)];
    if (incarnation.size() <= s.txn) {
      incarnation.resize(s.txn + 1, 0);
      committed.resize(s.txn + 1, -1);
    }
    const Op& op = s.ops[s.next];
    const OpDecision d = sys.Process(op);
    if (d == OpDecision::kReject) {
      if (++s.tries >= kMaxTries) {
        fresh(s);
        continue;
      }
      sys.RestartTxn(s.txn);
      ++incarnation[s.txn];
      s.next = 0;
      continue;
    }
    if (d == OpDecision::kAccept) {
      accepted.push_back({op, incarnation[s.txn]});
    }
    if (++s.next < s.ops.size()) continue;
    sys.CommitTxn(s.txn);
    committed[s.txn] = incarnation[s.txn];
    ++commits;
    fresh(s);
  }
  Log log;
  for (const Accepted& a : accepted) {
    if (committed[a.op.txn] == static_cast<int64_t>(a.incarnation)) {
      log.Append(a.op);
    }
  }
  return log;
}

// Audits kSeeds closed loops at each k on instances `make(k)` builds, and
// names the non-DSR seeds.
template <typename Make>
void ExpectOnlyDsrCommits(Make make) {
  for (size_t k = 1; k <= 3; ++k) {
    std::string bad;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      auto sys = make(k);
      if (!IsDsr(CommittedProjection(*sys, seed))) {
        bad += " " + std::to_string(seed);
      }
    }
    EXPECT_TRUE(bad.empty()) << "k=" << k << ": non-DSR committed projection"
                             << " for seeds" << bad;
  }
}

TEST(ClosedLoopDsrTest, SchedulerCommitsOnlyDsrHistories) {
  ExpectOnlyDsrCommits([](size_t k) {
    MtkOptions mo;
    mo.k = k;
    mo.starvation_fix = true;
    return std::make_unique<MtkScheduler>(mo);
  });
}

TEST(ClosedLoopDsrTest, SchedulerWithColumnClocksCommitsOnlyDsrHistories) {
  ExpectOnlyDsrCommits([](size_t k) {
    MtkOptions mo;
    mo.k = k;
    mo.starvation_fix = true;
    mo.column_clocks = true;
    return std::make_unique<MtkScheduler>(mo);
  });
}

TEST(ClosedLoopDsrTest, SingleShardEngineCommitsOnlyDsrHistories) {
  ExpectOnlyDsrCommits([](size_t k) {
    EngineOptions eo;
    eo.k = k;
    eo.num_shards = 1;
    eo.starvation_fix = true;
    return std::make_unique<ShardedMtkEngine>(eo);
  });
}

// Four shards: every shard draws from its own clocks and counter stripe,
// so the receive rule, not one shared clock, keeps their elements apart.
TEST(ClosedLoopDsrTest, FourShardEngineCommitsOnlyDsrHistories) {
  ExpectOnlyDsrCommits([](size_t k) {
    EngineOptions eo;
    eo.k = k;
    eo.num_shards = 4;
    eo.starvation_fix = true;
    return std::make_unique<ShardedMtkEngine>(eo);
  });
}

}  // namespace
}  // namespace mdts
