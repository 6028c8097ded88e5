// Flight recorder + latency attribution suite (labeled `obs-flight` so
// `ctest --preset asan|tsan -L obs-flight` runs exactly this binary under
// the sanitizers):
//   - FlightRecorder unit coverage: seqlock ring round trips, overwrite
//     semantics, capacity rounding, write-set truncation, JSON/dump shape;
//   - SeqlockRing (the ring behind the recorder, SpanRing and the Tracer):
//     concurrent writers + drain never yield a torn slot, and partially
//     rewritten slots decode only the new record's words;
//   - engine integration: commit/reject records reconcile exactly with
//     EngineStats, commit records carry the committed vector and write set
//     (the same write set whether a WAL or multiversion mode is attached),
//     and phase_sample_shift = 0 deterministically populates every
//     "engine.phase.*_us" histogram (multiversion + WAL run, so the
//     mv_read / wal_append / fsync phases exist too);
//   - the two auto-dump triggers: StarvationWatchdogOptions::on_alert and
//     WalOptions::on_crash both produce a parseable dump file;
//   - the HTTP surfacing: /phases.json (with exemplars) and /flight.json
//     over a real localhost socket, plus the 400/404 error answers.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <fstream>
#include <atomic>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/timestamp_vector.h"
#include "core/types.h"
#include "engine/sharded_engine.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "obs/flight.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/seqlock_ring.h"
#include "obs/watchdog.h"
#include "wal/wal.h"

namespace mdts {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) / ("mdts_flight_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ===========================================================================
// FlightRecorder unit coverage.
// ===========================================================================

TEST(FlightRecorderTest, CommitRoundTripAllFields) {
  FlightRecorderOptions fo;
  fo.rings = 2;
  fo.capacity = 8;
  fo.k = 3;
  FlightRecorder flight(fo);

  TimestampVector vec(3);
  vec.Set(0, 5);
  vec.Set(2, -7);  // Slot 1 stays undefined.
  const ItemId writes[] = {11, 42};
  uint32_t phase_us[kNumTxnPhases] = {};
  phase_us[static_cast<size_t>(TxnPhase::kLock)] = 3;
  phase_us[static_cast<size_t>(TxnPhase::kAck)] = 9;
  flight.RecordCommit(/*ring=*/1, /*txn=*/7, vec, writes, phase_us,
                      /*time_us=*/1234);

  const std::vector<FlightRecord> records = flight.Drain();
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& r = records[0];
  EXPECT_EQ(r.txn, 7u);
  EXPECT_TRUE(r.commit);
  EXPECT_TRUE(r.phases_sampled);
  EXPECT_EQ(r.ring, 1u);
  EXPECT_EQ(r.time_us, 1234u);
  EXPECT_EQ(r.writes_total, 2u);
  ASSERT_EQ(r.writes.size(), 2u);
  EXPECT_EQ(r.writes[0], 11u);
  EXPECT_EQ(r.writes[1], 42u);
  ASSERT_EQ(r.k, 3u);
  ASSERT_EQ(r.vec.size(), 3u);
  EXPECT_EQ(r.vec[0], 5);
  EXPECT_EQ(r.vec[1], kUndefinedElement);
  EXPECT_EQ(r.vec[2], -7);
  EXPECT_EQ(r.phase_us[static_cast<size_t>(TxnPhase::kLock)], 3u);
  EXPECT_EQ(r.phase_us[static_cast<size_t>(TxnPhase::kAck)], 9u);
  EXPECT_EQ(flight.commits(), 1u);
  EXPECT_EQ(flight.aborts(), 0u);
}

TEST(FlightRecorderTest, AbortRoundTripReasonBlockerOp) {
  FlightRecorderOptions fo;
  fo.k = 2;
  FlightRecorder flight(fo);

  TimestampVector vec(2);
  vec.Set(0, 3);
  const Op op{9, OpType::kWrite, 77};
  flight.RecordAbort(/*ring=*/0, /*txn=*/9, AbortReason::kVersionConflict,
                     /*blocker=*/4, &op, &vec,
                     /*time_us=*/55);
  // A reject with no vector snapshot (DMT aborts mid-flight) is legal too.
  flight.RecordAbort(0, 10, AbortReason::kLexOrder, 0, nullptr, nullptr,
                     56);

  const std::vector<FlightRecord> records = flight.Drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LT(records[0].seq, records[1].seq);
  const FlightRecord& a = records[0];
  EXPECT_FALSE(a.commit);
  EXPECT_FALSE(a.phases_sampled);
  EXPECT_EQ(a.reason, AbortReason::kVersionConflict);
  EXPECT_EQ(a.blocker, 4u);
  ASSERT_TRUE(a.has_op);
  EXPECT_EQ(a.op.type, OpType::kWrite);
  EXPECT_EQ(a.op.item, 77u);
  ASSERT_EQ(a.k, 2u);
  EXPECT_EQ(a.vec[0], 3);
  EXPECT_EQ(a.vec[1], kUndefinedElement);
  const FlightRecord& b = records[1];
  EXPECT_EQ(b.reason, AbortReason::kLexOrder);
  EXPECT_FALSE(b.has_op);
  EXPECT_EQ(b.k, 0u);  // No vector was captured.
  EXPECT_TRUE(b.vec.empty());

  EXPECT_EQ(flight.aborts(), 2u);
  const AbortReasonCounts reasons = flight.abort_reasons();
  EXPECT_EQ(
      reasons.counts[static_cast<size_t>(AbortReason::kVersionConflict)], 1u);
  EXPECT_EQ(reasons.counts[static_cast<size_t>(AbortReason::kLexOrder)], 1u);
}

TEST(FlightRecorderTest, RingOverwritesOldestKeepsNewest) {
  FlightRecorderOptions fo;
  fo.rings = 1;
  fo.capacity = 4;
  fo.k = 1;
  FlightRecorder flight(fo);
  TimestampVector vec(1);
  for (TxnId t = 1; t <= 10; ++t) {
    vec.Set(0, static_cast<TsElement>(t));
    flight.RecordCommit(0, t, vec, {}, nullptr, t);
  }
  const std::vector<FlightRecord> records = flight.Drain();
  ASSERT_EQ(records.size(), 4u);
  // The ring keeps the newest 4 (txns 7..10); lifetime totals keep all 10.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].txn, 7u + i);
    if (i > 0) {
      EXPECT_GT(records[i].seq, records[i - 1].seq);
    }
  }
  EXPECT_EQ(flight.commits(), 10u);
}

TEST(FlightRecorderTest, CapacityRoundsUpAndRingsClamp) {
  FlightRecorderOptions fo;
  fo.rings = 0;    // Clamped to 1.
  fo.capacity = 5;  // Rounded up to 8.
  FlightRecorder flight(fo);
  EXPECT_EQ(flight.rings(), 1u);
  EXPECT_EQ(flight.capacity(), 8u);
}

TEST(FlightRecorderTest, WriteSetTruncationKeepsTotal) {
  FlightRecorderOptions fo;
  fo.k = 1;
  FlightRecorder flight(fo);
  TimestampVector vec(1);
  vec.Set(0, 1);
  const std::vector<ItemId> writes = {1, 2, 3, 4, 5, 6};
  flight.RecordCommit(0, 1, vec, writes, nullptr, 1);
  const std::vector<FlightRecord> records = flight.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].writes.size(), FlightRecorder::kMaxWrites);
  EXPECT_EQ(records[0].writes_total, 6u);
  EXPECT_EQ(records[0].writes[0], 1u);
}

TEST(FlightRecorderTest, JsonAndDumpShape) {
  FlightRecorderOptions fo;
  fo.rings = 1;
  fo.capacity = 4;
  fo.k = 2;
  FlightRecorder flight(fo);
  TimestampVector vec(2);
  vec.Set(0, 9);  // Slot 1 undefined: rendered "*".
  const ItemId writes[] = {5};
  flight.RecordCommit(0, 3, vec, writes, nullptr, 100);
  flight.RecordAbort(0, 4, AbortReason::kStaleTxn, 0, nullptr, &vec, 101);

  const std::string json = flight.ToJson();
  EXPECT_NE(json.find("\"meta\": {\"rings\": 1, \"capacity\": 4, \"k\": 2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"totals\": {\"commits\": 1, \"aborts\": 1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"event\": \"commit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"event\": \"abort\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"reason\": \"stale_txn\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"vec\": [9, \"*\"]"), std::string::npos) << json;

  const std::string path = FreshDir("dump") + "/flight.json";
  ASSERT_TRUE(flight.DumpToFile(path));
  EXPECT_EQ(ReadFile(path), json);
}

// ===========================================================================
// SeqlockRing: the shared ring under concurrent writers and drains.
// ===========================================================================

// Payload word `i` of the record whose word 0 is `v`: every word depends on
// the writer's value, so a slot mixing two records fails the check.
uint64_t DerivedWord(uint64_t v, size_t i) {
  return v ^ (0x9E3779B97F4A7C15ull * (i + 1));
}

constexpr size_t kTestRingWords = 6;
using TestRing = SeqlockRing<kTestRingWords>;

TEST(SeqlockRingTest, MultiWriterConcurrentDrainNeverTears) {
  // Four writers on one ring of capacity 4 lap each other constantly (and
  // a writer preempted mid-record is lapped by the others); a concurrent
  // drain must still return only slots written by one record.
  constexpr int kWriters = 4;
  TestRing ring;
  ring.Init(4);
  ASSERT_EQ(ring.capacity(), 4u);
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      started.fetch_add(1);
      for (uint64_t n = 1; !stop.load(std::memory_order_relaxed); ++n) {
        const uint64_t v = (static_cast<uint64_t>(t) << 40) | n;
        ring.Write([&](const TestRing::Payload& p) {
          for (size_t i = 0; i < kTestRingWords; ++i) {
            p.Put(i, DerivedWord(v, i));
          }
        });
      }
    });
  }
  while (started.load() < kWriters) std::this_thread::yield();
  uint64_t drained = 0;
  for (int round = 0; round < 5000; ++round) {
    ring.ForEach([&](const auto& w) {
      const uint64_t v = DerivedWord(w[0], 0);
      for (size_t i = 1; i < kTestRingWords; ++i) {
        ASSERT_EQ(w[i], DerivedWord(v, i)) << "torn slot, word " << i;
      }
      ++drained;
    });
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  // Quiescent: every slot holds a complete record.
  size_t retained = 0;
  ring.ForEach([&](const auto&) { ++retained; });
  EXPECT_EQ(retained, 4u);
  EXPECT_GT(drained, 0u);
}

TEST(SeqlockRingTest, PartialWritesRoundTrip) {
  // Word 0 says how many payload words follow; a shorter record leaves
  // the previous occupant's tail in place, and decoding must not reach it.
  SeqlockRing<4> ring;
  ring.Init(1);
  auto write = [&](std::vector<uint64_t> words) {
    ring.Write([&](const SeqlockRing<4>::Payload& p) {
      p.Put(0, words.size());
      for (size_t i = 0; i < words.size(); ++i) p.Put(i + 1, words[i]);
    });
  };
  auto drain = [&] {
    std::vector<std::vector<uint64_t>> out;
    ring.ForEach([&](const auto& w) {
      out.emplace_back(w.begin() + 1, w.begin() + 1 + w[0]);
    });
    return out;
  };
  write({11, 12, 13});
  EXPECT_EQ(drain(), (std::vector<std::vector<uint64_t>>{{11, 12, 13}}));
  write({21});  // Same slot (capacity 1): words 2..3 keep 12, 13.
  EXPECT_EQ(drain(), (std::vector<std::vector<uint64_t>>{{21}}));

  // The recorder's dead-words rule on top of it: a small unsampled commit
  // that overwrites a full sampled one decodes no phases, no writes and
  // only its own vector elements.
  FlightRecorderOptions fo;
  fo.rings = 1;
  fo.capacity = 2;
  fo.k = 8;
  FlightRecorder flight(fo);
  TimestampVector big(8);
  for (size_t m = 0; m < 8; ++m) big.Set(m, static_cast<TsElement>(100 + m));
  uint32_t phases[kNumTxnPhases];
  for (size_t p = 0; p < kNumTxnPhases; ++p) phases[p] = 7 + p;
  const std::vector<ItemId> writes = {1, 2, 3, 4};
  flight.RecordCommit(0, 1, big, writes, phases, 1);
  TimestampVector small(1);
  small.Set(0, 5);
  flight.RecordCommit(0, 2, small, {}, nullptr, 2);
  flight.RecordCommit(0, 3, small, {}, nullptr, 3);  // Reuses txn 1's slot.
  const std::vector<FlightRecord> records = flight.Drain();
  ASSERT_EQ(records.size(), 2u);
  const FlightRecord& r = records[1];
  EXPECT_EQ(r.txn, 3u);
  EXPECT_FALSE(r.phases_sampled);
  for (size_t p = 0; p < kNumTxnPhases; ++p) EXPECT_EQ(r.phase_us[p], 0u);
  EXPECT_TRUE(r.writes.empty());
  EXPECT_EQ(r.k, 1u);
  EXPECT_EQ(r.vec, std::vector<TsElement>{5});
}

TEST(FlightRecorderTest, DrainWhileRecordingSeesOnlyWholeRecords) {
  // Writers on every ring (two per ring) while a reader drains: each
  // drained record's vector and write set are functions of its txn.
  FlightRecorderOptions fo;
  fo.rings = 2;
  fo.capacity = 4;
  fo.k = 4;
  FlightRecorder flight(fo);
  constexpr int kWriters = 4;
  constexpr TxnId kPerWriter = 1 << 20;
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> recorded{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      started.fetch_add(1);
      TimestampVector vec(4);
      TxnId n = 1;
      for (; !stop.load(std::memory_order_relaxed); ++n) {
        const TxnId txn = static_cast<TxnId>(t) * kPerWriter + n;
        for (size_t m = 0; m < 4; ++m) {
          vec.Set(m, static_cast<TsElement>(txn * 10 + m));
        }
        const ItemId w[2] = {txn, txn + 1};
        flight.RecordCommit(t, txn, vec, w, nullptr, txn);
      }
      recorded.fetch_add(n - 1);
    });
  }
  while (started.load() < kWriters) std::this_thread::yield();
  for (int round = 0; round < 500; ++round) {
    for (const FlightRecord& r : flight.Drain()) {
      ASSERT_EQ(r.k, 4u);
      for (size_t m = 0; m < 4; ++m) {
        ASSERT_EQ(r.vec[m], static_cast<TsElement>(r.txn * 10 + m));
      }
      ASSERT_EQ(r.writes, (std::vector<ItemId>{r.txn, r.txn + 1}));
      ASSERT_EQ(r.time_us, r.txn);
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(flight.commits(), recorded.load());
  EXPECT_EQ(flight.Drain().size(), 8u);
}

// ===========================================================================
// Engine integration: totals reconcile, records carry protocol state, and
// shift-0 sampling deterministically fills every phase histogram.
// ===========================================================================

struct DriveOutcome {
  uint64_t commits = 0;
  uint64_t rejects = 0;
};

// Seeded single-threaded closed loop with four transactions in flight:
// each step issues the next random op of a random live transaction, which
// commits after ops_per_txn accepted ops and is abandoned at its first
// reject (lazy abort, as MtkScheduler semantics allow); a new transaction
// takes the slot until `txns` have run. The interleaving is what makes
// conflicts: a serial client barely aborts under the engine's column
// clocks.
DriveOutcome Drive(ShardedMtkEngine& engine, uint64_t seed, TxnId txns,
                   ItemId items, size_t ops_per_txn, int read_pct) {
  constexpr size_t kInFlight = 4;
  std::mt19937_64 rng(seed);
  DriveOutcome out;
  struct Live {
    TxnId txn;
    size_t done;
  };
  std::vector<Live> live;
  TxnId next = 1;
  while (live.size() < kInFlight && next <= txns) live.push_back({next++, 0});
  while (!live.empty()) {
    const size_t s = rng() % live.size();
    Live& l = live[s];
    const Op op{l.txn,
                static_cast<int>(rng() % 100) < read_pct ? OpType::kRead
                                                         : OpType::kWrite,
                static_cast<ItemId>(rng() % items)};
    AbortReason why = AbortReason::kNone;
    if (engine.Process(op, &why) == OpDecision::kReject) {
      ++out.rejects;
    } else if (++l.done == ops_per_txn) {
      engine.CommitTxn(l.txn);
      ++out.commits;
    } else {
      continue;
    }
    if (next <= txns) {
      l = {next++, 0};
    } else {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(s));
    }
  }
  return out;
}

uint64_t HistCount(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return h.count;
  }
  return 0;
}

TEST(EngineFlightTest, TotalsReconcileWithEngineStats) {
  FlightRecorderOptions fo;
  fo.rings = 2;
  fo.capacity = 1024;  // Larger than the run: nothing is overwritten.
  fo.k = 3;
  FlightRecorder flight(fo);
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.flight = &flight;
  ShardedMtkEngine engine(eo);

  const DriveOutcome out =
      Drive(engine, /*seed=*/17, /*txns=*/200, /*items=*/8,
            /*ops_per_txn=*/4, /*read_pct=*/50);
  ASSERT_GT(out.commits, 0u);
  ASSERT_GT(out.rejects, 0u) << "conflict workload produced no rejects";

  // Lifetime totals match the engine's own accounting exactly...
  const EngineStats stats = engine.stats();
  EXPECT_EQ(flight.commits(), out.commits);
  EXPECT_EQ(flight.aborts(), out.rejects);
  EXPECT_EQ(flight.aborts(), stats.rejected);
  const AbortReasonCounts fr = flight.abort_reasons();
  for (size_t r = 0; r < kNumAbortReasons; ++r) {
    EXPECT_EQ(fr.counts[r], stats.reject_reasons.counts[r])
        << AbortReasonName(static_cast<AbortReason>(r));
  }
  // ...and the oversized ring retained every record.
  const std::vector<FlightRecord> records = flight.Drain();
  EXPECT_EQ(records.size(), out.commits + out.rejects);
}

TEST(EngineFlightTest, CommitRecordsCarryVectorWritesAndSampledPhases) {
  MetricsRegistry reg;
  FlightRecorderOptions fo;
  fo.rings = 1;
  fo.capacity = 1024;
  fo.k = 3;
  FlightRecorder flight(fo);
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 1;
  eo.metrics = &reg;
  eo.flight = &flight;
  eo.phase_sample_shift = 0;  // Sample every op and every commit.
  ShardedMtkEngine engine(eo);

  const DriveOutcome out = Drive(engine, 23, 60, 16, 3, 30);
  ASSERT_GT(out.commits, 0u);

  uint64_t commit_records = 0;
  for (const FlightRecord& r : flight.Drain()) {
    if (!r.commit) {
      // Engine rejects carry the refused operation and a classified reason.
      EXPECT_NE(r.reason, AbortReason::kNone);
      EXPECT_TRUE(r.has_op);
      continue;
    }
    ++commit_records;
    EXPECT_EQ(r.k, 3u);
    ASSERT_EQ(r.vec.size(), 3u);
    // A committed writer's vector snapshot is live state: at least one
    // element defined once the transaction ordered against anything. The
    // write set mirrors what the transaction actually wrote.
    EXPECT_EQ(r.writes.size(),
              std::min<size_t>(r.writes_total, FlightRecorder::kMaxWrites));
    // shift 0 with a registry: every commit's phases were measured.
    EXPECT_TRUE(r.phases_sampled) << "txn " << r.txn;
  }
  EXPECT_EQ(commit_records, out.commits);
}

TEST(EngineFlightTest, CommitWriteSetIsTheSameWhateverElseConsumesIt) {
  // One serial history replayed with the flight recorder alone, beside a
  // WAL, and in multiversion mode: the engine keeps one write list for all
  // three consumers, so every commit record must carry the same writes.
  // T1 writes more items than a record keeps; T3 writes one item twice.
  const std::vector<std::vector<Op>> history = {
      {{1, OpType::kWrite, 0},
       {1, OpType::kWrite, 1},
       {1, OpType::kWrite, 2},
       {1, OpType::kWrite, 3},
       {1, OpType::kWrite, 4},
       {1, OpType::kWrite, 5}},
      {{2, OpType::kRead, 0}, {2, OpType::kWrite, 10}},
      {{3, OpType::kWrite, 1}, {3, OpType::kRead, 2}, {3, OpType::kWrite, 1}},
      {{4, OpType::kRead, 10}},
      {{5, OpType::kWrite, 11},
       {5, OpType::kWrite, 12},
       {5, OpType::kWrite, 3},
       {5, OpType::kWrite, 13},
       {5, OpType::kWrite, 14}},
  };
  enum class Mode { kFlightOnly, kWithWal, kMultiversion };
  std::vector<std::vector<FlightRecord>> runs;
  for (const Mode mode :
       {Mode::kFlightOnly, Mode::kWithWal, Mode::kMultiversion}) {
    FlightRecorderOptions fo;
    fo.rings = 2;
    fo.capacity = 64;
    fo.k = 3;
    FlightRecorder flight(fo);
    std::unique_ptr<ParallelWal> wal;
    if (mode == Mode::kWithWal) {
      WalOptions wo;
      wo.dir = FreshDir("writeset");
      wo.num_streams = 1;
      wo.k = 3;
      wo.sync_policy = WalSyncPolicy::kNone;
      wal = std::make_unique<ParallelWal>(wo);
      ASSERT_TRUE(wal->ok());
    }
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = 2;
    eo.flight = &flight;
    eo.wal = wal.get();
    eo.multiversion = mode == Mode::kMultiversion;
    ShardedMtkEngine engine(eo);
    for (const std::vector<Op>& txn : history) {
      for (const Op& op : txn) {
        ASSERT_EQ(engine.Process(op), OpDecision::kAccept) << OpName(op);
      }
      engine.CommitTxn(txn.front().txn);
    }
    EXPECT_EQ(flight.aborts(), 0u);
    runs.push_back(flight.Drain());
  }

  ASSERT_EQ(runs[0].size(), history.size());
  const FlightRecord& t1 = runs[0][0];
  EXPECT_EQ(t1.txn, 1u);
  EXPECT_EQ(t1.writes_total, 6u);
  EXPECT_EQ(t1.writes, (std::vector<ItemId>{0, 1, 2, 3}));
  EXPECT_EQ(runs[0][2].writes, (std::vector<ItemId>{1, 1}));
  EXPECT_EQ(runs[0][3].writes_total, 0u);  // Read-only T4.
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size()) << "run " << run;
    for (size_t q = 0; q < runs[0].size(); ++q) {
      const FlightRecord& a = runs[0][q];
      const FlightRecord& b = runs[run][q];
      EXPECT_TRUE(a.commit && b.commit);
      EXPECT_EQ(b.txn, a.txn) << "run " << run;
      EXPECT_EQ(b.writes, a.writes) << "run " << run << ", T" << a.txn;
      EXPECT_EQ(b.writes_total, a.writes_total)
          << "run " << run << ", T" << a.txn;
    }
  }
}

TEST(EngineFlightTest, ShiftZeroPopulatesAllSevenPhaseHistograms) {
  // Multiversion + WAL: the only configuration where all seven lifecycle
  // phases exist (mv_read needs version-chain reads, wal_append/fsync need
  // a log). kEveryCommit makes the fsync wait nonzero-eligible on every
  // commit; shift 0 times everything, so each histogram must have samples.
  MetricsRegistry reg;
  WalOptions wo;
  wo.dir = FreshDir("phases");
  wo.num_streams = 1;
  wo.k = 3;
  wo.sync_policy = WalSyncPolicy::kEveryCommit;
  ParallelWal wal(wo);
  ASSERT_TRUE(wal.ok());

  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.multiversion = true;
  eo.metrics = &reg;
  eo.wal = &wal;
  eo.phase_sample_shift = 0;
  ShardedMtkEngine engine(eo);

  const DriveOutcome out = Drive(engine, 31, 80, 16, 4, 50);
  ASSERT_GT(out.commits, 0u);

  const MetricsSnapshot snap = reg.Snapshot();
  for (size_t p = 0; p < kNumTxnPhases; ++p) {
    const std::string name =
        std::string("engine.phase.") +
        TxnPhaseName(static_cast<TxnPhase>(p)) + "_us";
    EXPECT_GT(HistCount(snap, name), 0u) << name;
  }
}

// ===========================================================================
// Auto-dump triggers: watchdog alert and WAL crash hook.
// ===========================================================================

TEST(WatchdogFlightTest, AlertAutoDumpsTheRecorder) {
  const std::string path = FreshDir("watchdog") + "/flight.json";
  FlightRecorderOptions fo;
  fo.k = 1;
  FlightRecorder flight(fo);
  TimestampVector vec(1);
  vec.Set(0, 1);
  flight.RecordCommit(0, 1, vec, {}, nullptr, 10);

  MetricsRegistry reg;
  Gauge* source = reg.GetGauge("engine.max_consecutive_aborts");
  SamplerOptions so;
  so.registry = &reg;
  Sampler sampler(so);
  StarvationWatchdogOptions wo;
  wo.source_gauge = "engine.max_consecutive_aborts";
  wo.threshold = 4;
  wo.min_windows = 2;
  uint64_t dumps = 0;
  wo.on_alert = [&flight, &dumps, &path](const WatchdogAlert&) {
    if (flight.DumpToFile(path)) ++dumps;
  };
  sampler.AddStarvationWatchdog(wo);

  source->SetMax(10);
  sampler.TickOnce(1.0);
  EXPECT_EQ(dumps, 0u);  // One window: streak not yet an alert.
  source->SetMax(12);
  sampler.TickOnce(2.0);  // Second window above threshold: raise + dump.
  ASSERT_EQ(dumps, 1u);
  const std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("\"records\": [{"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"event\": \"commit\""), std::string::npos) << dump;

  source->SetMax(15);
  sampler.TickOnce(3.0);  // Sustaining window: no second dump per raise.
  EXPECT_EQ(dumps, 1u);
}

TEST(WalCrashFlightTest, OnCrashAutoDumpsTheRecorder) {
  const std::string dir = FreshDir("crash");
  const std::string path = dir + "/flight.json";
  FlightRecorderOptions fo;
  fo.k = 2;
  FlightRecorder flight(fo);

  WalCrashPlan plan;
  plan.point = WalCrashPoint::kBeforeFsync;
  plan.at_append = 2;
  WalOptions wo;
  wo.dir = dir + "/wal";
  wo.num_streams = 1;
  wo.k = 2;
  wo.crash = &plan;
  uint64_t dumps = 0;
  wo.on_crash = [&flight, &dumps, &path] {
    if (flight.DumpToFile(path)) ++dumps;
  };
  ParallelWal wal(wo);
  ASSERT_TRUE(wal.ok());

  TimestampVector vec(2);
  vec.Set(0, 1);
  const std::vector<ItemId> writes = {3};
  ASSERT_TRUE(wal.AppendCommit(1, vec, writes));
  flight.RecordCommit(0, 1, vec, writes, nullptr, 1);
  EXPECT_EQ(dumps, 0u);
  vec.Set(0, 2);
  wal.AppendCommit(2, vec, writes);  // The armed append: crash fires.
  EXPECT_TRUE(wal.crashed());
  ASSERT_EQ(dumps, 1u);
  // The dump captured the state up to the crash: the one recorded commit.
  const std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("\"totals\": {\"commits\": 1"), std::string::npos)
      << dump;
}

// ===========================================================================
// HTTP surfacing: /phases.json + /flight.json, and the 400/404 answers.
// ===========================================================================

std::string RawRequest(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(uint16_t port, const std::string& path) {
  return RawRequest(port, "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

TEST(HttpFlightTest, PhasesAndFlightEndpointsServeJson) {
  MetricsRegistry reg;
  // One attributed phase sample with an exemplar, as RecordPhase publishes.
  reg.GetHistogram("engine.phase.lock_us")->RecordWithExemplar(120, 7);
  FlightRecorderOptions fo;
  fo.k = 2;
  FlightRecorder flight(fo);
  TimestampVector vec(2);
  vec.Set(0, 4);
  const ItemId writes[] = {9};
  flight.RecordCommit(0, 3, vec, writes, nullptr, 42);

  HttpExporterOptions ho;
  ho.registry = &reg;
  ho.flight = &flight;
  ho.port = 0;
  HttpExporter exporter(ho);
  ASSERT_TRUE(exporter.Start());

  const std::string phases = HttpGet(exporter.port(), "/phases.json");
  EXPECT_NE(phases.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(phases.find("application/json"), std::string::npos);
  EXPECT_NE(phases.find("\"lock\": {\"count\": 1"), std::string::npos)
      << phases;
  EXPECT_NE(phases.find("\"exemplar\": {\"value_us\": 120, \"txn\": 7}"),
            std::string::npos)
      << phases;

  const std::string fjson = HttpGet(exporter.port(), "/flight.json");
  EXPECT_NE(fjson.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(fjson.find("\"event\": \"commit\""), std::string::npos) << fjson;
  EXPECT_NE(fjson.find("\"txn\": 3"), std::string::npos) << fjson;
  EXPECT_NE(fjson.find("\"vec\": [4, \"*\"]"), std::string::npos) << fjson;
  exporter.Stop();
}

TEST(HttpFlightTest, FlightEndpointWithoutRecorderAnswersEmptyDump) {
  MetricsRegistry reg;
  HttpExporterOptions ho;
  ho.registry = &reg;
  ho.port = 0;
  HttpExporter exporter(ho);
  ASSERT_TRUE(exporter.Start());
  const std::string body = HttpGet(exporter.port(), "/flight.json");
  EXPECT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body.find("\"records\": []"), std::string::npos) << body;
  exporter.Stop();
}

TEST(HttpFlightTest, MalformedAndUnknownRequestsGetErrorAnswers) {
  MetricsRegistry reg;
  HttpExporterOptions ho;
  ho.registry = &reg;
  ho.port = 0;
  HttpExporter exporter(ho);
  ASSERT_TRUE(exporter.Start());

  // No parseable "METHOD SP PATH SP" request line: 400, not a silent close.
  const std::string garbage = RawRequest(exporter.port(), "garbage\r\n\r\n");
  EXPECT_NE(garbage.find("400"), std::string::npos) << garbage;

  // A header block overflowing the exporter's 4 KiB read buffer: 400.
  std::string oversized = "GET /metrics HTTP/1.1\r\nX-Pad: ";
  oversized.append(8192, 'x');
  oversized += "\r\n\r\n";
  const std::string too_big = RawRequest(exporter.port(), oversized);
  EXPECT_NE(too_big.find("400"), std::string::npos) << too_big;

  // Unknown path: 404.
  const std::string missing = HttpGet(exporter.port(), "/no-such");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  exporter.Stop();
}

}  // namespace
}  // namespace mdts
