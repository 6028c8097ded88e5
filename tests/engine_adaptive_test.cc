// Adaptive admission suite: the AdmissionController's deterministic
// decision state machine (AIMD batch sizing with hysteresis/cool-down,
// MT(k+) runtime k switching), its wiring into the sharded engine
// (SetActiveK, the starvation watchdog's EmergencyShrink path, flight
// recorder control events), ExplainLastReject rendering per reject
// reason, and race-cleanliness of controller ticking concurrent with
// ProcessBatch traffic (the TSan target of the engine-adaptive label).

#include "control/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/mtk_scheduler.h"
#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/abort_reason.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace mdts {
namespace {

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
  OpDecision dec = OpDecision::kAccept;
  engine.ProcessBatch(std::span<const Op>(&bad, 1), &dec);
  ASSERT_EQ(dec, OpDecision::kReject);
  const std::string out = engine.ExplainLastReject();
  EXPECT_NE(out.find("invalid_op"), std::string::npos) << out;
  EXPECT_EQ(out.find("blocker"), std::string::npos) << out;
}

TEST(ExplainLastRejectTest, BatchThrottledNamesChampionAndFallbackRound) {
  // Reuse the livelock-guardrail recipe: all-write width-32 batches over
  // 64 items form a commit-free streak, the guardrail elects a champion,
  // and every other batched operation rejects as kBatchThrottled. The
  // explain line must then carry the champion id and the fallback round.
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 4;
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);

  constexpr size_t kWidth = 32;
  constexpr ItemId kItems = 64;
  std::mt19937_64 rng(4242);
  std::vector<TxnId> txns(kWidth);
  uint32_t started = 0;
  for (TxnId& t : txns) t = static_cast<TxnId>(++started);
  std::vector<Op> batch(kWidth);
  std::vector<OpDecision> dec(kWidth);
  bool saw_throttled = false;
  for (size_t round = 0; round < 5000 && !saw_throttled; ++round) {
    for (size_t b = 0; b < kWidth; ++b) {
      batch[b].txn = txns[b];
      batch[b].type = OpType::kWrite;
      batch[b].item = static_cast<ItemId>(rng() % kItems);
    }
    engine.ProcessBatch(std::span<const Op>(batch.data(), kWidth),
                        dec.data());
    for (size_t b = 0; b < kWidth; ++b) {
      if (dec[b] == OpDecision::kReject) {
        engine.RestartTxn(txns[b]);
      }
    }
    saw_throttled =
        engine.stats().reject_reasons[AbortReason::kBatchThrottled] > 0;
  }
  ASSERT_TRUE(saw_throttled) << "guardrail never engaged";
  // The throttled rejects were the most recent ones of the last round
  // (the champion's own operations are not throttled, but at width 32
  // over 64 items the round always contains non-champion rejects).
  const std::string out = engine.ExplainLastReject();
  EXPECT_NE(out.find("batch_throttled"), std::string::npos) << out;
  EXPECT_NE(out.find("champion T"), std::string::npos) << out;
  EXPECT_NE(out.find("fallback round "), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// Controller state machine on synthetic sensor traffic (no engine):
// deterministic, window-exact.
// ---------------------------------------------------------------------------

struct SyntheticFeed {
  MetricsRegistry reg;
  Counter* commits;
  Counter* lex;
  Counter* stale;
  Counter* fallbacks;
  Counter* contention;

  SyntheticFeed() {
    commits = reg.GetCounter("engine.commits");
    lex = reg.GetCounter("engine.rejected.lex_order");
    stale = reg.GetCounter("engine.rejected.stale_txn");
    fallbacks = reg.GetCounter("engine.batch_fallbacks");
    contention = reg.GetCounter("engine.lock_contention");
  }
};

TEST(AdmissionControllerTest, ShrinkOnPressureGrowAfterQuietDwell) {
  SyntheticFeed f;
  AdmissionControlOptions ao;
  ao.registry = &f.reg;
  ao.max_k = 3;  // No engine: k is tracked internally.
  AdmissionController ctl(ao);
  ASSERT_EQ(ctl.batch_size(), 32u);  // Optimistic start at kMaxBatch.

  uint64_t seq = 0;
  double now = 0.0;
  auto tick = [&] { ctl.TickOnce(++seq, now += 0.1); };

  // Pressured window (abort rate 0.9): multiplicative shrink, then a
  // 2-window cool-down in which further pressure must NOT re-shrink.
  f.commits->Add(5);
  f.lex->Add(45);
  tick();
  EXPECT_EQ(ctl.batch_size(), 16u);
  EXPECT_EQ(ctl.shrinks(), 1u);
  f.commits->Add(5);
  f.lex->Add(45);
  tick();  // Cool-down window 1: no actuation.
  EXPECT_EQ(ctl.batch_size(), 16u);
  f.commits->Add(5);
  f.lex->Add(45);
  tick();  // Cool-down expired: shrink again.
  EXPECT_EQ(ctl.batch_size(), 8u);
  EXPECT_EQ(ctl.shrinks(), 2u);

  // Middle band (abort rate 0.3): hysteresis - no action either way.
  f.commits->Add(70);
  f.lex->Add(30);
  tick();
  f.commits->Add(70);
  f.lex->Add(30);
  tick();
  EXPECT_EQ(ctl.batch_size(), 8u);
  EXPECT_EQ(ctl.grows(), 0u);

  // Quiet windows: additive grow after the 2-window dwell, +4 each.
  for (int i = 0; i < 20 && ctl.batch_size() < 32u; ++i) {
    f.commits->Add(100);
    tick();
  }
  EXPECT_EQ(ctl.batch_size(), 32u);
  EXPECT_GE(ctl.grows(), 6u);

  // Published registry state tracks the actuators.
  const MetricsSnapshot snap = f.reg.Snapshot();
  EXPECT_EQ(snap.GaugeValue("engine.adaptive.batch_size"), 32);
  EXPECT_EQ(snap.CounterValue("engine.adaptive.shrinks"), ctl.shrinks());
  EXPECT_EQ(snap.CounterValue("engine.adaptive.grows"), ctl.grows());
}

TEST(AdmissionControllerTest, TinyWindowsCarryNoSignal) {
  SyntheticFeed f;
  AdmissionControlOptions ao;
  ao.registry = &f.reg;
  ao.max_k = 3;
  AdmissionController ctl(ao);
  // 15 ops < kMinWindowOps = 16: even at abort rate 1.0, no shrink.
  f.lex->Add(15);
  ctl.TickOnce(1, 0.1);
  EXPECT_EQ(ctl.batch_size(), 32u);
  EXPECT_EQ(ctl.shrinks(), 0u);
  // 16 ops is a window: the same abort rate now shrinks.
  f.lex->Add(16);
  ctl.TickOnce(2, 0.2);
  EXPECT_EQ(ctl.batch_size(), 16u);
  EXPECT_EQ(ctl.shrinks(), 1u);
}

TEST(AdmissionControllerTest, ContentionAboveTwoPerOpShrinks) {
  SyntheticFeed f;
  AdmissionControlOptions ao;
  ao.registry = &f.reg;
  ao.max_k = 3;
  AdmissionController ctl(ao);
  // No rejects, kMinWindowOps ops, exactly kContentionPerOpShrink = 2.0
  // contended acquisitions per op: not pressured, no shrink.
  f.commits->Add(AdmissionController::kMinWindowOps);
  f.contention->Add(2 * AdmissionController::kMinWindowOps);
  ctl.TickOnce(1, 0.1);
  EXPECT_EQ(ctl.batch_size(), 32u);
  EXPECT_EQ(ctl.shrinks(), 0u);
  // One contended acquisition more: just above 2.0 per op, shrink.
  f.commits->Add(AdmissionController::kMinWindowOps);
  f.contention->Add(2 * AdmissionController::kMinWindowOps + 1);
  ctl.TickOnce(2, 0.2);
  EXPECT_EQ(ctl.batch_size(), 16u);
  EXPECT_EQ(ctl.shrinks(), 1u);
}

TEST(AdmissionControllerTest, WidensAndNarrowsKThroughEngine) {
  SyntheticFeed f;
  EngineOptions eo;
  eo.k = 5;
  eo.num_shards = 2;
  ShardedMtkEngine engine(eo);
  engine.SetActiveK(3);

  AdmissionControlOptions ao;
  ao.registry = &f.reg;
  ao.engine = &engine;
  ao.min_k = 3;
  AdmissionController ctl(ao);
  ASSERT_EQ(ctl.active_k(), 3u);

  uint64_t seq = 0;
  double now = 0.0;
  auto tick = [&] { ctl.TickOnce(++seq, now += 0.1); };

  // Vector-capacity-dominated pressure: widen by one per kWidenDwell(=2)
  // consecutive windows, through the engine, up to its physical k.
  for (int i = 0; i < 4; ++i) {
    f.commits->Add(10);
    f.lex->Add(90);  // vector_frac = 1.0, abort rate 0.9.
    tick();
  }
  EXPECT_EQ(ctl.active_k(), 5u);
  EXPECT_EQ(engine.active_k(), 5u);
  EXPECT_EQ(ctl.k_switches(), 2u);

  // Staleness-dominated pressure must NOT widen: the extra dimensions
  // buy encoding room, not freshness.
  for (int i = 0; i < 4; ++i) {
    f.commits->Add(10);
    f.stale->Add(90);
    tick();
  }
  EXPECT_EQ(ctl.active_k(), 5u);

  // Sustained quiet: narrow back after kNarrowDwell(=8), floored at
  // min_k.
  for (int i = 0; i < 30; ++i) {
    f.commits->Add(100);
    tick();
  }
  EXPECT_EQ(ctl.active_k(), 3u);
  EXPECT_EQ(engine.active_k(), 3u);
  const MetricsSnapshot snap = f.reg.Snapshot();
  EXPECT_EQ(snap.GaugeValue("engine.adaptive.k"), 3);
}

TEST(AdmissionControllerTest, DeterministicTraceIsBitIdentical) {
  // Two independent controllers fed the identical seeded window schedule
  // must produce byte-identical decision traces: the controller reads
  // only its sensors and its own state, never a clock.
  auto run = [] {
    SyntheticFeed f;
    FlightRecorder flight{FlightRecorderOptions{}};
    AdmissionControlOptions ao;
    ao.registry = &f.reg;
    ao.flight = &flight;
    ao.max_k = 4;
    ao.min_k = 2;
    AdmissionController ctl(ao);
    std::mt19937_64 rng(777);
    uint64_t seq = 0;
    double now = 0.0;
    for (int w = 0; w < 400; ++w) {
      const uint64_t commits = rng() % 200;
      const uint64_t lex = rng() % 150;
      const uint64_t stale = rng() % 40;
      f.commits->Add(commits);
      f.lex->Add(lex);
      f.stale->Add(stale);
      if (rng() % 17 == 0) f.fallbacks->Add(1);
      if (rng() % 11 == 0) ctl.EmergencyShrink(seq, now);
      ctl.TickOnce(++seq, now += 0.05);
    }
    // The flight recorder saw one control event per decision, in order.
    EXPECT_EQ(flight.ControlEvents().size(), ctl.decisions().size());
    // Pinned to the schedule's known outcome, so a changed controller
    // constant (step, factor, dwell, window floor) fails here.
    EXPECT_EQ(ctl.decisions().size(), 10u);
    EXPECT_EQ(ctl.grows(), 3u);
    EXPECT_EQ(ctl.shrinks(), 7u);
    EXPECT_EQ(ctl.k_switches(), 0u);
    return ctl.TraceString();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  const std::string head =
      "seq=0 t=0 action=emergency_shrink batch=1 k=4 abort_rate=0 "
      "vector_frac=0 commits=0 rejects=0 fallbacks=0\n"
      "seq=22 t=1.1 action=grow batch=5 k=4 abort_rate=0.168142 "
      "vector_frac=0.315789 commits=94 rejects=19 fallbacks=0\n"
      "seq=23 t=1.15 action=shrink batch=2 k=4 abort_rate=0.654088 "
      "vector_frac=0.730769 commits=55 rejects=104 fallbacks=0\n"
      "seq=27 t=1.35 action=shrink batch=1 k=4 abort_rate=0.723005 "
      "vector_frac=0.818182 commits=59 rejects=154 fallbacks=0\n"
      "seq=127 t=6.35 action=grow batch=5 k=4 abort_rate=0.0892857 "
      "vector_frac=0.2 commits=153 rejects=15 fallbacks=0\n";
  EXPECT_EQ(a.substr(0, head.size()), head);
}

// ---------------------------------------------------------------------------
// Watchdog wiring: a starvation alert collapses admission immediately.
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, WatchdogAlertTriggersEmergencyShrink) {
  SyntheticFeed f;
  FlightRecorder flight{FlightRecorderOptions{}};
  AdmissionControlOptions ao;
  ao.registry = &f.reg;
  ao.flight = &flight;
  ao.max_k = 3;
  AdmissionController ctl(ao);
  ASSERT_EQ(ctl.batch_size(), 32u);

  SamplerOptions so;
  so.registry = &f.reg;
  Sampler sampler(so);
  StarvationWatchdogOptions wo;
  wo.source_gauge = "engine.max_consecutive_aborts";
  wo.on_alert = [&ctl](const WatchdogAlert& a) {
    ctl.EmergencyShrink(a.last_seq, a.last_time);
  };
  sampler.AddStarvationWatchdog(wo);
  sampler.AddTickHook(
      [&ctl](uint64_t seq, double now) { ctl.TickOnce(seq, now); });

  Gauge* consec = f.reg.GetGauge("engine.max_consecutive_aborts");
  // Two consecutive windows above the threshold raise the alert; its
  // on_alert runs before the tick hook, so the same tick's TickOnce sees
  // the post-shrink batch and the cool-down already armed.
  consec->SetMax(50);
  sampler.TickOnce(0.1);
  EXPECT_EQ(ctl.batch_size(), 32u) << "one window must not alert";
  consec->SetMax(50);
  sampler.TickOnce(0.2);
  EXPECT_EQ(ctl.batch_size(), 1u);
  ASSERT_FALSE(ctl.decisions().empty());
  EXPECT_EQ(ctl.decisions().back().action,
            AdmissionAction::kEmergencyShrink);
  ASSERT_EQ(flight.ControlEvents().size(), 1u);
  EXPECT_EQ(flight.ControlEvents()[0].action, "emergency_shrink");
}

// ---------------------------------------------------------------------------
// Closed loop against the real engine.
// ---------------------------------------------------------------------------

// Drives the benched livelock shape (all-write width-32 batches over 64
// items) with the controller in the admission loop, ticking on simulated
// time every 32 rounds. Returns the decision trace.
std::string RunAdaptiveLivelockEscape(uint64_t* committed_out) {
  MetricsRegistry reg;
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 4;
  eo.starvation_fix = true;
  eo.metrics = &reg;
  ShardedMtkEngine engine(eo);

  SamplerOptions so;
  so.registry = &reg;
  Sampler sampler(so);
  AdmissionControlOptions ao;
  ao.registry = &reg;
  ao.engine = &engine;
  AdmissionController ctl(ao);
  StarvationWatchdogOptions wo;
  wo.source_gauge = "engine.max_consecutive_aborts";
  wo.on_alert = [&ctl](const WatchdogAlert& a) {
    ctl.EmergencyShrink(a.last_seq, a.last_time);
  };
  sampler.AddStarvationWatchdog(wo);
  sampler.AddTickHook(
      [&ctl](uint64_t seq, double now) { ctl.TickOnce(seq, now); });

  constexpr size_t kWidth = 32;
  constexpr ItemId kItems = 64;
  constexpr size_t kOpsPerTxn = 8;
  constexpr uint64_t kTarget = 200;
  std::mt19937_64 rng(99);
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
  double sim_time = 0.0;
  for (uint64_t round = 0; committed < kTarget; ++round) {
    // Bounded: with the controller in the loop this converges in a few
    // thousand rounds; the static width-32 loop needs the engine's own
    // guardrail and an order of magnitude more.
    EXPECT_LT(round, 500000u) << "livelocked despite the controller";
    if (round >= 500000u) break;
    if (round % 32 == 0) sampler.TickOnce(sim_time += 0.01);
    const size_t live = ctl.batch_size();
    for (size_t b = 0; b < live; ++b) {
      batch[b].txn = slots[b].txn;
      batch[b].type = OpType::kWrite;
      batch[b].item = static_cast<ItemId>(rng() % kItems);
    }
    engine.ProcessBatch(std::span<const Op>(batch.data(), live), dec.data());
    for (size_t b = 0; b < live; ++b) {
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
  EXPECT_GT(ctl.shrinks(), 0u) << "controller never reacted";
  EXPECT_LT(ctl.batch_size(), 32u);
  if (committed_out != nullptr) *committed_out = committed;
  return ctl.TraceString();
}

TEST(AdaptiveEngineTest, ControllerEscapesBatchLivelock) {
  uint64_t committed = 0;
  const std::string trace = RunAdaptiveLivelockEscape(&committed);
  EXPECT_GE(committed, 200u);
  EXPECT_FALSE(trace.empty());
}

TEST(AdaptiveEngineTest, SimTimeReplayProducesIdenticalTrace) {
  // The whole closed loop is deterministic - seeded workload, sim-time
  // ticks at fixed round counts - so two runs must produce bit-identical
  // decision traces.
  const std::string a = RunAdaptiveLivelockEscape(nullptr);
  const std::string b = RunAdaptiveLivelockEscape(nullptr);
  EXPECT_EQ(a, b);
}

// Effective-k soundness (the MT(k+) switch): an engine with physical
// k = 5 narrowed to active_k = 3 must make exactly the decisions of a
// k = 3 scheduler - the extra two elements hold constants every narrower
// encoding fixes, so Compare over the full vectors agrees. The scheduler
// runs the engine's column clocks; the engine's clocks for columns 3-4 are
// never consulted at width 3.
TEST(AdaptiveEngineTest, NarrowedActiveKMatchesNarrowScheduler) {
  MtkOptions mo;
  mo.k = 3;
  mo.starvation_fix = true;
  mo.column_clocks = true;
  MtkScheduler sched(mo);

  EngineOptions eo;
  eo.k = 5;
  eo.num_shards = 1;
  eo.starvation_fix = true;
  ShardedMtkEngine engine(eo);
  engine.SetActiveK(3);

  std::mt19937_64 rng(2024);
  constexpr ItemId kItems = 12;
  std::vector<TxnId> live;
  TxnId next_txn = 1;
  for (size_t n = 0; n < 24; ++n) live.push_back(next_txn++);
  for (size_t step = 0; step < 4000; ++step) {
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
      *std::find(live.begin(), live.end(), i) = next_txn++;
      continue;
    }
    Op op;
    op.txn = i;
    op.type = rng() % 8 < 5 ? OpType::kRead : OpType::kWrite;
    op.item = static_cast<ItemId>(rng() % kItems);
    ASSERT_EQ(sched.Process(op), engine.Process(op))
        << "step " << step << " txn " << i << " item " << op.item;
  }
}

// ---------------------------------------------------------------------------
// Race cleanliness (the TSan target): controller ticking, emergency
// shrinks and runtime k switches concurrent with batched admission.
// ---------------------------------------------------------------------------

TEST(AdaptiveEngineTest, ConcurrentTicksAndBatchesAreRaceClean) {
  MetricsRegistry reg;
  FlightRecorder flight{FlightRecorderOptions{}};
  EngineOptions eo;
  eo.k = 4;
  eo.num_shards = 4;
  eo.starvation_fix = true;
  eo.metrics = &reg;
  ShardedMtkEngine engine(eo);

  AdmissionControlOptions ao;
  ao.registry = &reg;
  ao.engine = &engine;
  ao.flight = &flight;
  AdmissionController ctl(ao);

  constexpr size_t kWidth = 16;
  constexpr ItemId kItems = 256;
  std::atomic<bool> done{false};

  std::thread admission([&] {
    std::mt19937_64 rng(7);
    struct Slot {
      TxnId txn = 0;
      size_t done_ops = 0;
    };
    std::vector<Slot> slots(kWidth);
    uint32_t started = 0;
    for (Slot& s : slots) s.txn = static_cast<TxnId>(++started);
    std::vector<Op> batch(kWidth);
    std::vector<OpDecision> dec(kWidth);
    for (int round = 0; round < 3000; ++round) {
      size_t live = ctl.batch_size();
      if (live > kWidth) live = kWidth;
      for (size_t b = 0; b < live; ++b) {
        batch[b].txn = slots[b].txn;
        batch[b].type = rng() % 2 ? OpType::kRead : OpType::kWrite;
        batch[b].item = static_cast<ItemId>(rng() % kItems);
      }
      engine.ProcessBatch(std::span<const Op>(batch.data(), live),
                          dec.data());
      for (size_t b = 0; b < live; ++b) {
        Slot& s = slots[b];
        if (dec[b] == OpDecision::kReject) {
          engine.RestartTxn(s.txn);
          s.done_ops = 0;
          continue;
        }
        if (++s.done_ops < 6) continue;
        engine.CommitTxn(s.txn);
        s.txn = static_cast<TxnId>(++started);
        s.done_ops = 0;
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::thread control([&] {
    uint64_t seq = 0;
    double now = 0.0;
    while (!done.load(std::memory_order_acquire)) {
      ctl.TickOnce(++seq, now += 0.001);
      if (seq % 7 == 0) ctl.EmergencyShrink(seq, now);
      if (seq % 5 == 0) {
        engine.SetActiveK(1 + seq % 4);
        (void)engine.ExplainLastReject();
      }
      std::this_thread::yield();
    }
  });

  admission.join();
  control.join();
  // Sanity: the registry's adaptive gauges reflect the last actuation.
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(static_cast<uint32_t>(
                snap.GaugeValue("engine.adaptive.batch_size")),
            ctl.batch_size());
}

}  // namespace
}  // namespace mdts
