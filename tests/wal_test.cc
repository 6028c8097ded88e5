// Durability suite for the Taurus-style parallel WAL (src/wal) and its
// engine integration: record framing (length + CRC), torn-tail truncation,
// group-commit sync policies and their metrics, concurrent appends (the
// suite is labeled `wal` so `ctest --preset asan|tsan -L wal` runs exactly
// this binary under the sanitizers), and the seeded crash-point property
// sweep: crash at random points across every WalCrashPoint plus random
// byte-offset truncation, recover, and check the result against two
// independent oracles -
//   1. the byte oracle: a record ticketed fully inside the surviving file
//      bytes is recovered field-for-field, anything past them is not, and
//      no record acknowledged as durable (covered by a completed fsync) is
//      ever lost;
//   2. the protocol oracle (single-threaded runs): each item's recovered
//      committed writer is the last surviving accepted-and-committed
//      writer in admission order - the prefix-replay state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/timestamp_vector.h"
#include "core/types.h"
#include "engine/sharded_engine.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "wal/wal.h"

namespace mdts {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) / ("mdts_wal_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

// The merged recovery order, restated independently of wal.cc: raw
// lexicographic elements (undefined = the INT64_MIN sentinel, sorting
// low), ties by stream then position.
bool RecordBefore(const TimestampVector& a, uint32_t a_stream, uint64_t a_pos,
                  const TimestampVector& b, uint32_t b_stream,
                  uint64_t b_pos) {
  for (size_t m = 0; m < a.size(); ++m) {
    const TsElement av = a.IsDefined(m) ? a.Get(m) : kUndefinedElement;
    const TsElement bv = b.IsDefined(m) ? b.Get(m) : kUndefinedElement;
    if (av != bv) return av < bv;
  }
  if (a_stream != b_stream) return a_stream < b_stream;
  return a_pos < b_pos;
}

// One commit record the driver appended, with its durability ticket.
struct Logged {
  WalAppendTicket ticket;
  TxnId txn = 0;
  TimestampVector vec;
  std::vector<ItemId> writes;
  Logged(size_t k) : vec(k) {}
};

struct DriveResult {
  std::vector<Logged> logged;  // Every acknowledged AppendCommit.
  /// Appends the WAL refused (crash point hit). At most one of these - the
  /// crash trigger itself - may still have reached the disk: a crash
  /// mid-call can persist a record the caller was never told about.
  /// Recovering it is correct (more than acknowledged, never less).
  std::vector<Logged> refused;
  /// Accepted writes in admission order (single-threaded drivers only):
  /// (item, txn), recorded when the engine accepted the write and kept
  /// only if that incarnation committed.
  std::vector<std::pair<ItemId, TxnId>> admitted;
  std::set<TxnId> committed;
  bool wal_refused = false;  // An AppendCommit returned false (crash).
};

EngineOptions SweepEngineOptions() {
  EngineOptions eo;
  eo.k = 4;
  eo.num_shards = 3;
  eo.starvation_fix = true;
  return eo;
}

// Single-threaded closed loop: run transactions through `engine`, append a
// commit record (vector snapshot + accepted writes) to `wal` before each
// CommitTxn, exactly as the engine-attached path does. Stops early when
// the WAL refuses an append (injected crash).
DriveResult DriveSingle(ShardedMtkEngine& engine, ParallelWal& wal,
                        uint64_t seed, uint32_t txns_to_commit, ItemId items,
                        size_t ops_per_txn) {
  std::mt19937_64 rng(seed);
  DriveResult out;
  const size_t k = engine.options().k;
  TxnId next = 1;
  while (out.committed.size() < txns_to_commit && !out.wal_refused) {
    const TxnId txn = next++;
    std::vector<std::pair<ItemId, TxnId>> pending;  // This incarnation.
    std::vector<ItemId> writes;
    bool committed = false;
    for (size_t attempt = 0; attempt < 200 && !committed; ++attempt) {
      pending.clear();
      writes.clear();
      bool ok = true;
      for (size_t o = 0; o < ops_per_txn && ok; ++o) {
        Op op;
        op.txn = txn;
        op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
        op.item = static_cast<ItemId>(rng() % items);
        ok = engine.Process(op) != OpDecision::kReject;
        if (ok && op.type == OpType::kWrite) {
          pending.emplace_back(op.item, txn);
          writes.push_back(op.item);
        }
      }
      if (!ok) {
        engine.RestartTxn(txn);
        continue;
      }
      Logged l(k);
      l.txn = txn;
      l.vec = engine.TsSnapshot(txn);
      l.writes = writes;
      if (!writes.empty() &&
          !wal.AppendCommit(txn, l.vec, writes, &l.ticket)) {
        out.wal_refused = true;  // Crash point hit; this commit never ran.
        out.refused.push_back(std::move(l));
        break;
      }
      if (!writes.empty()) out.logged.push_back(std::move(l));
      engine.CommitTxn(txn);
      out.committed.insert(txn);
      out.admitted.insert(out.admitted.end(), pending.begin(),
                          pending.end());
      committed = true;
    }
  }
  return out;
}

// Multi-threaded variant: `threads` workers drive disjoint transaction ids
// over shared items, each appending to the WAL from its own thread (so the
// per-worker stream spread is real). No admission oracle - cross-thread
// admission order is not observable from outside the engine.
DriveResult DriveThreads(ShardedMtkEngine& engine, ParallelWal& wal,
                         uint64_t seed, size_t threads,
                         uint32_t txns_per_thread, ItemId items,
                         size_t ops_per_txn) {
  DriveResult out;
  std::mutex mu;
  std::vector<std::thread> pool;
  const size_t k = engine.options().k;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::mt19937_64 rng(seed * 977 + t);
      for (uint32_t c = 0; c < txns_per_thread; ++c) {
        const TxnId txn = static_cast<TxnId>(1 + t + c * threads);
        bool committed = false;
        for (size_t attempt = 0; attempt < 500 && !committed; ++attempt) {
          std::vector<ItemId> writes;
          bool ok = true;
          for (size_t o = 0; o < ops_per_txn && ok; ++o) {
            Op op;
            op.txn = txn;
            op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
            op.item = static_cast<ItemId>(rng() % items);
            ok = engine.Process(op) != OpDecision::kReject;
            if (ok && op.type == OpType::kWrite) writes.push_back(op.item);
          }
          if (!ok) {
            engine.RestartTxn(txn);
            continue;
          }
          Logged l(k);
          l.txn = txn;
          l.vec = engine.TsSnapshot(txn);
          l.writes = writes;
          if (!writes.empty() &&
              !wal.AppendCommit(txn, l.vec, writes, &l.ticket)) {
            std::lock_guard<std::mutex> g(mu);
            out.wal_refused = true;
            out.refused.push_back(std::move(l));
            return;  // Crashed: this worker stops, commit never ran.
          }
          engine.CommitTxn(txn);
          committed = true;
          std::lock_guard<std::mutex> g(mu);
          if (!writes.empty()) out.logged.push_back(std::move(l));
          out.committed.insert(txn);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

std::vector<uint64_t> StreamSizes(const std::string& dir, size_t streams) {
  std::vector<uint64_t> out(streams, 0);
  for (size_t i = 0; i < streams; ++i) {
    const fs::path p = fs::path(dir) / ("wal-" + std::to_string(i) + ".log");
    std::error_code ec;
    if (fs::exists(p, ec)) out[i] = fs::file_size(p, ec);
  }
  return out;
}

// The byte oracle: against the on-disk stream sizes (captured BEFORE
// Recover truncated anything), every acknowledged record whose frame lies
// fully inside the surviving bytes must be recovered field-for-field, no
// acknowledged record past them may appear, and the only other admissible
// record is a crash-refused append whose trigger write reached the disk
// before the simulated crash (recovering more than acknowledged is fine).
// Per-item winners are cross-checked by re-sorting the recovered records
// with this file's independent restatement of the merge order.
void VerifyAgainstBytes(const WalRecovery& rec, const DriveResult& dr,
                        const std::vector<uint64_t>& sizes) {
  std::map<TxnId, const Logged*> survived;
  for (const Logged& l : dr.logged) {
    ASSERT_LT(l.ticket.stream, sizes.size());
    if (l.ticket.end_offset <= sizes[l.ticket.stream]) {
      survived[l.txn] = &l;
    }
  }
  std::map<TxnId, const Logged*> refused;
  for (const Logged& l : dr.refused) refused[l.txn] = &l;
  size_t refused_recovered = 0;
  for (const WalCommitRecord& r : rec.records) {
    const Logged* want = nullptr;
    if (auto it = survived.find(r.txn); it != survived.end()) {
      want = it->second;
    } else if (auto it2 = refused.find(r.txn); it2 != refused.end()) {
      want = it2->second;
      ++refused_recovered;
    }
    ASSERT_NE(want, nullptr)
        << "recovered a record that should be past the crash: txn " << r.txn;
    EXPECT_TRUE(r.vec == want->vec) << "txn " << r.txn;
    EXPECT_EQ(r.writes, want->writes) << "txn " << r.txn;
  }
  EXPECT_LE(refused_recovered, 1u) << "only the crash trigger can persist";
  ASSERT_EQ(rec.records.size(), survived.size() + refused_recovered);
  // Winners by the merged vector order, re-derived from an independent
  // sort of the recovered records.
  std::vector<const WalCommitRecord*> order;
  order.reserve(rec.records.size());
  for (const WalCommitRecord& r : rec.records) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const WalCommitRecord* a, const WalCommitRecord* b) {
              return RecordBefore(a->vec, a->stream, a->seq, b->vec,
                                  b->stream, b->seq);
            });
  std::map<ItemId, TxnId> want;
  for (const WalCommitRecord* r : order) {
    for (ItemId item : r->writes) want[item] = r->txn;
  }
  ASSERT_EQ(rec.item_writer.size(), want.size());
  for (const auto& [item, idx] : rec.item_writer) {
    EXPECT_EQ(rec.records[idx].txn, want[item]) << "item " << item;
  }
}

// No acknowledged commit lost: every record whose frame was covered by a
// completed fsync at crash time must be in the recovered set.
void VerifyAcknowledged(const WalRecovery& rec, const ParallelWal& wal,
                        const std::vector<Logged>& logged) {
  std::set<TxnId> recovered;
  for (const WalCommitRecord& r : rec.records) recovered.insert(r.txn);
  for (const Logged& l : logged) {
    if (l.ticket.end_offset <= wal.SyncedBytes(l.ticket.stream)) {
      EXPECT_TRUE(recovered.count(l.txn))
          << "acknowledged (fsynced) commit lost: txn " << l.txn;
    }
  }
}

// The protocol oracle (single-threaded runs): each item's recovered
// committed writer equals the last surviving accepted-and-committed writer
// in admission order - same-item committed writers are totally ordered by
// the protocol, so admission order is the serialization order.
void VerifyAdmissionOracle(const WalRecovery& rec, const DriveResult& dr) {
  std::set<TxnId> recovered;
  for (const WalCommitRecord& r : rec.records) recovered.insert(r.txn);
  std::map<ItemId, TxnId> want;
  for (const auto& [item, txn] : dr.admitted) {
    if (dr.committed.count(txn) && recovered.count(txn)) want[item] = txn;
  }
  // A recovered crash-trigger record is the last transaction the driver
  // ran: its writes were admitted after every committed one, so they win.
  for (const Logged& l : dr.refused) {
    if (!recovered.count(l.txn)) continue;
    for (ItemId item : l.writes) want[item] = l.txn;
  }
  ASSERT_EQ(rec.item_writer.size(), want.size());
  for (const auto& [item, idx] : rec.item_writer) {
    EXPECT_EQ(rec.records[idx].txn, want[item]) << "item " << item;
  }
}

TEST(WalCodecTest, FrameRoundTripAndCrcDetection) {
  const size_t k = 5;
  TimestampVector vec(k);
  vec.Set(0, 7);
  vec.Set(2, -13);
  vec.Set(4, 1'000'000'007);
  const std::vector<ItemId> writes = {3, 19, 3};
  std::vector<uint8_t> buf;
  wal_internal::EncodeFrame(42, vec, writes, &buf);

  WalCommitRecord rec(k);
  ASSERT_EQ(wal_internal::DecodeFrame(buf.data(), buf.size(), k, &rec),
            buf.size());
  EXPECT_EQ(rec.txn, 42u);
  EXPECT_TRUE(rec.vec == vec);
  EXPECT_EQ(rec.writes, writes);

  // Truncated buffers hold no complete frame.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_EQ(wal_internal::DecodeFrame(buf.data(), cut, k, &rec), 0u)
        << "cut " << cut;
  }
  // Any single flipped payload byte must fail the CRC.
  for (size_t b = wal_internal::kFrameHeaderBytes; b < buf.size(); ++b) {
    std::vector<uint8_t> bad = buf;
    bad[b] ^= 0x40;
    EXPECT_EQ(wal_internal::DecodeFrame(bad.data(), bad.size(), k, &rec), 0u)
        << "byte " << b;
  }
}

TEST(WalCodecTest, Crc32KnownAnswer) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(WalWriterTest, TornTailDetectedAndTruncated) {
  const std::string dir = FreshDir("torn_tail");
  WalOptions wo;
  wo.dir = dir;
  wo.num_streams = 1;
  wo.k = 3;
  wo.sync_policy = WalSyncPolicy::kEveryCommit;
  TimestampVector vec(3);
  vec.Set(0, 1);
  {
    ParallelWal wal(wo);
    ASSERT_TRUE(wal.ok());
    const std::vector<ItemId> writes = {5};
    ASSERT_TRUE(wal.AppendCommit(1, vec, writes));
    ASSERT_TRUE(wal.AppendCommit(2, vec, writes));
    wal.Close();
  }
  // Simulate a torn write: garbage that looks like the start of a frame.
  const fs::path p = fs::path(dir) / "wal-0.log";
  const uint64_t clean_size = fs::file_size(p);
  {
    std::ofstream out(p, std::ios::binary | std::ios::app);
    const char junk[] = {0x30, 0x00, 0x00, 0x00, 0x11, 0x22};
    out.write(junk, sizeof(junk));
  }
  WalRecovery rec = ParallelWal::Recover(dir);
  ASSERT_TRUE(rec.ok) << rec.error;
  ASSERT_EQ(rec.streams.size(), 1u);
  EXPECT_TRUE(rec.streams[0].torn);
  EXPECT_EQ(rec.torn_streams, 1u);
  EXPECT_EQ(rec.streams[0].valid_bytes, clean_size);
  ASSERT_EQ(rec.records.size(), 2u);
  // The torn tail was truncated on disk: a second recovery is clean.
  EXPECT_EQ(fs::file_size(p), clean_size);
  WalRecovery again = ParallelWal::Recover(dir);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.torn_streams, 0u);
  EXPECT_EQ(again.records.size(), 2u);
  fs::remove_all(dir);
}

TEST(WalWriterTest, SyncPoliciesAndMetrics) {
  TimestampVector vec(3);
  vec.Set(0, 1);
  const std::vector<ItemId> writes = {1, 2};
  {
    // Group commit with a window of 8: 20 appends on one thread trigger
    // exactly two group fsyncs (the remainder syncs at Close, uncounted).
    const std::string dir = FreshDir("policy_group");
    MetricsRegistry reg;
    WalOptions wo;
    wo.dir = dir;
    wo.num_streams = 2;
    wo.k = 3;
    wo.sync_policy = WalSyncPolicy::kGroupCommit;
    wo.group_commit_ops = 8;
    wo.metrics = &reg;
    ParallelWal wal(wo);
    ASSERT_TRUE(wal.ok());
    for (TxnId t = 1; t <= 20; ++t) {
      ASSERT_TRUE(wal.AppendCommit(t, vec, writes));
    }
    const auto snap = reg.Snapshot();
    EXPECT_EQ(snap.CounterValue("wal.appends"), 20u);
    EXPECT_EQ(snap.CounterValue("wal.fsyncs"), 2u);
    EXPECT_GT(snap.CounterValue("wal.bytes"), 0u);
    const HistogramSnapshot* h = nullptr;
    for (const auto& [name, hist] : snap.histograms) {
      if (name == "wal.group_commit_size") h = &hist;
    }
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_EQ(h->sum, 16u);  // Two full windows of 8.
    wal.Close();
    EXPECT_EQ(ParallelWal::Recover(dir).records.size(), 20u);
    fs::remove_all(dir);
  }
  {
    // Every-commit: one fsync per append.
    const std::string dir = FreshDir("policy_every");
    MetricsRegistry reg;
    WalOptions wo;
    wo.dir = dir;
    wo.num_streams = 1;
    wo.k = 3;
    wo.sync_policy = WalSyncPolicy::kEveryCommit;
    wo.metrics = &reg;
    ParallelWal wal(wo);
    for (TxnId t = 1; t <= 5; ++t) {
      WalAppendTicket ticket;
      ASSERT_TRUE(wal.AppendCommit(t, vec, writes, &ticket));
      // Durable immediately: the ticket is covered by the completed sync.
      EXPECT_LE(ticket.end_offset, wal.SyncedBytes(ticket.stream));
    }
    const auto snap = reg.Snapshot();
    EXPECT_EQ(snap.CounterValue("wal.fsyncs"), 5u);
    wal.Close();
    fs::remove_all(dir);
  }
  {
    // None: no fsync until Close; an explicit SyncAll is a group boundary.
    const std::string dir = FreshDir("policy_none");
    MetricsRegistry reg;
    WalOptions wo;
    wo.dir = dir;
    wo.num_streams = 1;
    wo.k = 3;
    wo.sync_policy = WalSyncPolicy::kNone;
    wo.metrics = &reg;
    ParallelWal wal(wo);
    WalAppendTicket ticket;
    for (TxnId t = 1; t <= 6; ++t) {
      ASSERT_TRUE(wal.AppendCommit(t, vec, writes, &ticket));
    }
    EXPECT_EQ(reg.Snapshot().CounterValue("wal.fsyncs"), 0u);
    EXPECT_GT(ticket.end_offset, wal.SyncedBytes(0));  // Not yet durable.
    wal.SyncAll();
    EXPECT_EQ(reg.Snapshot().CounterValue("wal.fsyncs"), 1u);
    EXPECT_LE(ticket.end_offset, wal.SyncedBytes(0));
    wal.Close();
    fs::remove_all(dir);
  }
}

TEST(WalWriterTest, ConcurrentAppendsRecoverCompletely) {
  const std::string dir = FreshDir("concurrent");
  MetricsRegistry reg;
  WalOptions wo;
  wo.dir = dir;
  wo.num_streams = 4;
  wo.k = 3;
  wo.sync_policy = WalSyncPolicy::kGroupCommit;
  wo.group_commit_ops = 4;
  wo.metrics = &reg;
  ParallelWal wal(wo);
  ASSERT_TRUE(wal.ok());
  constexpr size_t kThreads = 4;
  constexpr uint32_t kPerThread = 200;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&wal, t] {
      TimestampVector vec(3);
      for (uint32_t n = 0; n < kPerThread; ++n) {
        const TxnId txn = static_cast<TxnId>(1 + t + n * kThreads);
        vec.Reset();
        vec.Set(0, static_cast<TsElement>(txn));
        const ItemId item = static_cast<ItemId>(txn % 64);
        ASSERT_TRUE(wal.AppendCommit(txn, vec, std::span<const ItemId>(
                                                   &item, 1)));
      }
    });
  }
  for (auto& th : pool) th.join();
  wal.SyncAll();
  wal.Close();
  EXPECT_EQ(wal.stats().appends, kThreads * kPerThread);
  WalRecovery rec = ParallelWal::Recover(dir);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.records.size(), kThreads * kPerThread);
  EXPECT_EQ(rec.torn_streams, 0u);
  fs::remove_all(dir);
}

TEST(WalEngineTest, CleanShutdownRoundTripRebuildsCommittedState) {
  const std::string dir = FreshDir("engine_roundtrip");
  WalOptions wo;
  wo.dir = dir;
  wo.num_streams = 2;
  wo.k = 4;
  wo.sync_policy = WalSyncPolicy::kGroupCommit;
  wo.group_commit_ops = 8;
  ParallelWal wal(wo);
  ASSERT_TRUE(wal.ok());
  EngineOptions eo = SweepEngineOptions();
  ShardedMtkEngine engine(eo);
  const DriveResult dr =
      DriveSingle(engine, wal, /*seed=*/11, /*txns_to_commit=*/120,
                  /*items=*/48, /*ops_per_txn=*/3);
  ASSERT_FALSE(dr.wal_refused);
  wal.Close();

  WalRecovery rec = ParallelWal::Recover(dir);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.torn_streams, 0u);
  VerifyAgainstBytes(rec, dr, StreamSizes(dir, wo.num_streams));
  VerifyAcknowledged(rec, wal, dr.logged);
  VerifyAdmissionOracle(rec, dr);

  // Rebuild a fresh engine from the recovery: every logged transaction is
  // committed with its logged vector, and new admissions order strictly
  // after the recovered writers.
  ShardedMtkEngine recovered(eo);
  ASSERT_EQ(recovered.RecoverFrom(rec), rec.records.size());
  for (const Logged& l : dr.logged) {
    EXPECT_TRUE(recovered.IsCommitted(l.txn)) << "txn " << l.txn;
    EXPECT_TRUE(recovered.TsSnapshot(l.txn) == l.vec) << "txn " << l.txn;
  }
  TxnId fresh = 1;
  while (dr.committed.count(fresh)) ++fresh;
  size_t checked = 0;
  for (const auto& [item, idx] : rec.item_writer) {
    if (checked == 5) break;
    Op op;
    op.txn = fresh;
    op.type = OpType::kWrite;
    op.item = item;
    ASSERT_EQ(recovered.Process(op), OpDecision::kAccept) << "item " << item;
    ++checked;
  }
  ASSERT_GT(checked, 0u);
  const TimestampVector fresh_vec = recovered.TsSnapshot(fresh);
  for (const auto& [item, idx] : rec.item_writer) {
    EXPECT_EQ(Compare(rec.records[idx].vec, fresh_vec).order,
              VectorOrder::kLess)
        << "recovered writer of item " << item
        << " does not precede the post-recovery writer";
    if (--checked == 0) break;
  }
  fs::remove_all(dir);
}

// RecoverFrom resyncs the column clocks, not only the last-column
// counters: a fresh transaction writes the items of the five recovered
// writers with the largest vectors, smallest first. Each write orders it
// after one more of them, so a clock left at its start would hand the first
// write an element below the next writer's and the second write would
// compare kGreater.
TEST(WalEngineTest, RecoveryResyncsColumnClocksForFreshWriters) {
  for (const size_t shards : {1u, 32u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = FreshDir("engine_clock_resync");
    WalOptions wo;
    wo.dir = dir;
    wo.num_streams = 2;
    wo.k = 3;
    ParallelWal wal(wo);
    ASSERT_TRUE(wal.ok());
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = shards;
    eo.starvation_fix = true;
    eo.wal = &wal;
    ShardedMtkEngine engine(eo);
    std::mt19937_64 rng(5);
    TxnId txn = 1;
    for (size_t committed = 0; committed < 200; ++txn) {
      bool ok = true;
      for (size_t o = 0; o < 2 && ok; ++o) {
        ok = engine.Process({txn, OpType::kWrite,
                             static_cast<ItemId>(rng() % 64)}) ==
             OpDecision::kAccept;
      }
      if (ok) {
        engine.CommitTxn(txn);
        ++committed;
      }
    }
    wal.Close();

    WalRecovery rec = ParallelWal::Recover(dir);
    ASSERT_TRUE(rec.ok) << rec.error;
    EngineOptions fresh_eo = eo;
    fresh_eo.wal = nullptr;
    ShardedMtkEngine recovered(fresh_eo);
    ASSERT_EQ(recovered.RecoverFrom(rec), rec.records.size());
    // Five items whose recovered writers hold the largest distinct first
    // elements, smallest first.
    std::map<TsElement, std::pair<ItemId, size_t>> by_first;
    for (const auto& [item, idx] : rec.item_writer) {
      by_first[rec.records[idx].vec.Get(0)] = {item, idx};
    }
    ASSERT_GE(by_first.size(), 5u);
    std::vector<std::pair<ItemId, size_t>> writers;
    for (auto it = std::prev(by_first.end(), 5); it != by_first.end(); ++it) {
      writers.push_back(it->second);
    }
    const TxnId fresh = txn;
    for (const auto& [item, idx] : writers) {
      AbortReason why = AbortReason::kNone;
      ASSERT_EQ(recovered.Process({fresh, OpType::kWrite, item}, &why),
                OpDecision::kAccept)
          << "item " << item << ": " << AbortReasonName(why);
    }
    for (const auto& [item, idx] : writers) {
      EXPECT_EQ(Compare(rec.records[idx].vec, recovered.TsSnapshot(fresh))
                    .order,
                VectorOrder::kLess)
          << "recovered writer of item " << item;
    }
    fs::remove_all(dir);
  }
}

TEST(WalEngineTest, AttachedWalLogsCommitsBeforeAcknowledging) {
  const std::string dir = FreshDir("engine_attached");
  MetricsRegistry reg;
  WalOptions wo;
  wo.dir = dir;
  wo.num_streams = 2;
  wo.k = 3;
  wo.sync_policy = WalSyncPolicy::kEveryCommit;
  wo.metrics = &reg;
  ParallelWal wal(wo);
  EngineOptions eo;
  eo.k = 3;
  eo.num_shards = 2;
  eo.starvation_fix = true;
  eo.metrics = &reg;
  eo.wal = &wal;
  ShardedMtkEngine engine(eo);

  std::mt19937_64 rng(7);
  uint64_t logged_commits = 0;
  for (TxnId txn = 1; txn <= 200; ++txn) {
    bool wrote = false;
    bool ok = true;
    for (size_t o = 0; o < 3 && ok; ++o) {
      Op op;
      op.txn = txn;
      op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
      op.item = static_cast<ItemId>(rng() % 32);
      const OpDecision d = engine.Process(op);
      ok = d != OpDecision::kReject;
      wrote |= ok && op.type == OpType::kWrite && d == OpDecision::kAccept;
    }
    if (!ok) {
      engine.RestartTxn(txn);
      --txn;  // Retry the same id with a fresh incarnation.
      continue;
    }
    engine.CommitTxn(txn);
    if (wrote) ++logged_commits;
  }
  EXPECT_EQ(wal.stats().appends, logged_commits);
  EXPECT_EQ(reg.Snapshot().CounterValue("wal.appends"), logged_commits);
  wal.Close();
  WalRecovery rec = ParallelWal::Recover(dir);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.records.size(), logged_commits);
  for (const WalCommitRecord& r : rec.records) {
    EXPECT_TRUE(engine.IsCommitted(r.txn)) << "txn " << r.txn;
    EXPECT_FALSE(r.writes.empty());
  }
  fs::remove_all(dir);
}

// The seeded crash-point property sweep (single-threaded half): 28 seeds
// cycling through every WalCrashPoint plus random byte-offset truncation,
// across all three sync policies and both encodings.
TEST(WalCrashSweepTest, SingleThreadedCrashPoints) {
  for (uint64_t seed = 0; seed < 28; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = FreshDir("sweep_s" + std::to_string(seed));
    std::mt19937_64 rng(0xABC0 + seed);

    WalCrashPlan plan;
    const uint64_t mode = seed % 4;
    if (mode != 3) {
      plan.point = mode == 0   ? WalCrashPoint::kBeforeFsync
                   : mode == 1 ? WalCrashPoint::kMidRecord
                               : WalCrashPoint::kBetweenStreams;
      plan.at_append = 1 + rng() % 30;
      plan.torn_bytes = 1 + rng() % 40;
    }
    WalOptions wo;
    wo.dir = dir;
    wo.num_streams = 2;
    wo.k = 4;
    const uint64_t pol = (seed / 4) % 3;
    wo.sync_policy = pol == 0   ? WalSyncPolicy::kEveryCommit
                     : pol == 1 ? WalSyncPolicy::kGroupCommit
                                : WalSyncPolicy::kNone;
    wo.group_commit_ops = 4;
    wo.crash = plan.armed() ? &plan : nullptr;
    ParallelWal wal(wo);
    ASSERT_TRUE(wal.ok());

    EngineOptions eo = SweepEngineOptions();
    ShardedMtkEngine engine(eo);
    const DriveResult dr = DriveSingle(engine, wal, 0x51D + seed,
                                       /*txns_to_commit=*/40, /*items=*/48,
                                       /*ops_per_txn=*/3);
    wal.Close();
    EXPECT_EQ(plan.armed() && wal.crashed(), dr.wal_refused);

    if (mode == 3) {
      // Random byte-offset truncation of the busiest stream: an arbitrary
      // prefix, possibly ending mid-record.
      auto sizes = StreamSizes(dir, wo.num_streams);
      const size_t victim = static_cast<size_t>(
          std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
      const fs::path p =
          fs::path(dir) / ("wal-" + std::to_string(victim) + ".log");
      const uint64_t cut = rng() % (sizes[victim] + 1);
      fs::resize_file(p, cut);
    }

    const auto sizes = StreamSizes(dir, wo.num_streams);
    WalRecovery rec = ParallelWal::Recover(dir);
    ASSERT_TRUE(rec.ok) << rec.error;
    VerifyAgainstBytes(rec, dr, sizes);
    if (mode != 3) VerifyAcknowledged(rec, wal, dr.logged);
    VerifyAdmissionOracle(rec, dr);

    // Torn tails are truncated, not fatal: recovering again is clean and
    // yields the identical record set.
    WalRecovery again = ParallelWal::Recover(dir);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.torn_streams, 0u);
    ASSERT_EQ(again.records.size(), rec.records.size());
    for (size_t r = 0; r < rec.records.size(); ++r) {
      EXPECT_EQ(again.records[r].txn, rec.records[r].txn);
      EXPECT_TRUE(again.records[r].vec == rec.records[r].vec);
    }

    // And a fresh engine rebuilt from the recovery reports every recovered
    // transaction as committed with its logged vector.
    ShardedMtkEngine recovered(eo);
    ASSERT_EQ(recovered.RecoverFrom(rec), rec.records.size());
    for (const WalCommitRecord& r : rec.records) {
      EXPECT_TRUE(recovered.IsCommitted(r.txn));
      EXPECT_TRUE(recovered.TsSnapshot(r.txn) == r.vec);
    }
    fs::remove_all(dir);
  }
}

// The multi-threaded half: 24 seeds, three workers appending from their
// own threads (real stream spread), same crash grid, byte oracle only.
TEST(WalCrashSweepTest, MultiThreadedCrashPoints) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = FreshDir("sweep_m" + std::to_string(seed));
    std::mt19937_64 rng(0xDEF0 + seed);

    WalCrashPlan plan;
    if (seed % 4 != 3) {
      plan.point = seed % 4 == 0   ? WalCrashPoint::kBeforeFsync
                   : seed % 4 == 1 ? WalCrashPoint::kMidRecord
                                   : WalCrashPoint::kBetweenStreams;
      plan.at_append = 1 + rng() % 40;
      plan.torn_bytes = 1 + rng() % 40;
    }
    WalOptions wo;
    wo.dir = dir;
    wo.num_streams = 3;
    wo.k = 4;
    wo.sync_policy = (seed / 4) % 2 == 0 ? WalSyncPolicy::kEveryCommit
                                         : WalSyncPolicy::kGroupCommit;
    wo.group_commit_ops = 4;
    wo.crash = plan.armed() ? &plan : nullptr;
    ParallelWal wal(wo);
    ASSERT_TRUE(wal.ok());

    EngineOptions eo = SweepEngineOptions();
    ShardedMtkEngine engine(eo);
    const DriveResult dr =
        DriveThreads(engine, wal, 0xBEE + seed, /*threads=*/3,
                     /*txns_per_thread=*/15, /*items=*/60, /*ops_per_txn=*/3);
    wal.Close();

    const auto sizes = StreamSizes(dir, wo.num_streams);
    WalRecovery rec = ParallelWal::Recover(dir);
    ASSERT_TRUE(rec.ok) << rec.error;
    VerifyAgainstBytes(rec, dr, sizes);
    VerifyAcknowledged(rec, wal, dr.logged);
    fs::remove_all(dir);
  }
}

// The multiversion half of the sweep: 24 seeds against an engine with
// version chains and the WAL attached (the engine appends inside CommitTxn,
// before the commit point). Three seed classes crash inside AppendCommit at
// the usual WalCrashPoints; in the fourth the driver calls CrashNow right
// after its install_at-th accepted write (each one a version install), in
// the window between a version install and its commit append - commits
// acknowledged before the install survive, everything after is refused.
// After recovery a fresh multiversion engine is rebuilt with RecoverFrom
// and its chains are audited: every recovered transaction is committed with
// its logged vector, chains are pruned to the newest committed version per
// item, and new traffic orders strictly after the recovered writers.
TEST(WalCrashSweepTest, MultiversionCrashPoints) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = FreshDir("sweep_mv" + std::to_string(seed));
    std::mt19937_64 rng(0x3F00 + seed);

    WalCrashPlan plan;
    WalCrashPoint install_point = WalCrashPoint::kNone;
    uint64_t install_at = 0;  // 0 = no driver-side crash.
    const uint64_t mode = seed % 4;
    if (mode != 3) {
      plan.point = mode == 0   ? WalCrashPoint::kBeforeFsync
                   : mode == 1 ? WalCrashPoint::kMidRecord
                               : WalCrashPoint::kBetweenStreams;
      plan.at_append = 1 + rng() % 25;
      plan.torn_bytes = 1 + rng() % 40;
    } else {
      install_point = seed % 8 == 3 ? WalCrashPoint::kBeforeFsync
                                    : WalCrashPoint::kMidRecord;
      install_at = 5 + rng() % 40;
    }
    WalOptions wo;
    wo.dir = dir;
    wo.num_streams = 2;
    wo.k = 4;
    const uint64_t pol = (seed / 4) % 3;
    wo.sync_policy = pol == 0   ? WalSyncPolicy::kEveryCommit
                     : pol == 1 ? WalSyncPolicy::kGroupCommit
                                : WalSyncPolicy::kNone;
    wo.group_commit_ops = 4;
    wo.crash = plan.armed() ? &plan : nullptr;
    ParallelWal wal(wo);
    ASSERT_TRUE(wal.ok());

    EngineOptions eo = SweepEngineOptions();
    eo.multiversion = true;
    eo.compact_every = seed % 2 == 0 ? 16 : 0;
    eo.wal = &wal;
    ShardedMtkEngine engine(eo);

    // Attached-path driver: the engine logs on CommitTxn, so the oracle is
    // the per-transaction write list in accepted order, captured as the
    // driver issues the ops. The loop stops once the WAL reports the
    // injected crash (a real process would be gone).
    std::map<TxnId, std::vector<ItemId>> committed;
    std::map<TxnId, TimestampVector> vectors;
    uint64_t installs = 0;
    TxnId next = 1;
    while (committed.size() < 60 && !wal.crashed()) {
      const TxnId txn = next++;
      bool done = false;
      for (size_t attempt = 0; attempt < 200 && !done && !wal.crashed();
           ++attempt) {
        std::vector<ItemId> writes;
        bool ok = true;
        for (size_t o = 0; o < 3 && ok; ++o) {
          Op op;
          op.txn = txn;
          op.type = rng() % 2 == 0 ? OpType::kRead : OpType::kWrite;
          op.item = static_cast<ItemId>(rng() % 32);
          ok = engine.Process(op) != OpDecision::kReject;
          if (ok && op.type == OpType::kWrite) {
            writes.push_back(op.item);
            if (++installs == install_at) wal.CrashNow(install_point);
          }
        }
        if (!ok) {
          engine.RestartTxn(txn);
          continue;
        }
        const bool crashed_before = wal.crashed();
        engine.CommitTxn(txn);
        done = true;
        if (!crashed_before && !writes.empty()) {
          committed.emplace(txn, std::move(writes));
          vectors.emplace(txn, engine.TsSnapshot(txn));
        }
      }
    }
    wal.Close();
    EXPECT_EQ(wal.crashed(), plan.armed() || install_at != 0);

    WalRecovery rec = ParallelWal::Recover(dir);
    ASSERT_TRUE(rec.ok) << rec.error;
    // Recovered records are a subset of the driver's write-commits (minus
    // the crash tail), field-for-field.
    for (const WalCommitRecord& r : rec.records) {
      const auto it = committed.find(r.txn);
      ASSERT_NE(it, committed.end()) << "unknown recovered txn " << r.txn;
      EXPECT_EQ(r.writes, it->second) << "txn " << r.txn;
      EXPECT_TRUE(r.vec == vectors.at(r.txn)) << "txn " << r.txn;
    }
    if (!wal.crashed()) {
      EXPECT_EQ(rec.records.size(), committed.size());
    }

    // Rebuild with version chains and audit them.
    EngineOptions ro = eo;
    ro.wal = nullptr;
    ShardedMtkEngine recovered(ro);
    ASSERT_EQ(recovered.RecoverFrom(rec), rec.records.size());
    std::set<ItemId> recovered_items;
    for (const WalCommitRecord& r : rec.records) {
      EXPECT_TRUE(recovered.IsCommitted(r.txn)) << "txn " << r.txn;
      EXPECT_TRUE(recovered.TsSnapshot(r.txn) == r.vec) << "txn " << r.txn;
      recovered_items.insert(r.writes.begin(), r.writes.end());
    }
    EXPECT_TRUE(recovered.MvAuditChains());
    // RecoverFrom sweeps with nothing live: chains are pruned to the
    // newest committed version per recovered item.
    EXPECT_LE(recovered.stats().live_versions, recovered_items.size());

    // New traffic orders strictly after the recovered writers: for a few
    // recovered items, a fresh transaction (one per item - a single
    // transaction spanning items could legitimately be ordered before a
    // later item's writer once its vector is pinned) reads and rewrites
    // the item, and its vector must land after the recovered writer's.
    size_t checked = 0;
    for (const auto& [item, idx] : rec.item_writer) {
      if (checked++ == 5) break;
      const TxnId fresh = next++;
      Op rd{fresh, OpType::kRead, item};
      Op wr{fresh, OpType::kWrite, item};
      AbortReason why = AbortReason::kNone;
      ASSERT_EQ(recovered.Process(rd, &why), OpDecision::kAccept)
          << "item " << item << ": " << AbortReasonName(why)
          << " writer T" << rec.records[idx].txn << " vec "
          << rec.records[idx].vec.ToString();
      ASSERT_EQ(recovered.Process(wr, &why), OpDecision::kAccept)
          << "item " << item << ": " << AbortReasonName(why);
      EXPECT_EQ(Compare(rec.records[idx].vec,
                        recovered.TsSnapshot(fresh)).order,
                VectorOrder::kLess)
          << "recovered writer of item " << item
          << " does not precede the post-recovery writer";
      recovered.CommitTxn(fresh);
    }
    EXPECT_TRUE(recovered.MvAuditChains());
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace mdts
