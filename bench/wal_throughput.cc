// Durability overhead sweep for the Taurus-style parallel WAL: sync policy
// x group-commit window x threads over the sharded MT(k) engine, against
// the in-memory (wal = nullptr) baseline. Goodput is committed
// transactions per second in the shared closed loop (workload/closed_loop.h:
// replay on reject, abandon after kMaxTries; appends land before the commit
// is acknowledged), so the numbers honestly include abort handling, restart
// costs and the fsync stalls of each policy. Commit-acknowledge latency
// (p50/p99 of the CommitTxn call, which contains the append and any fsync
// wait) is sampled per cell and recorded next to the goodput, making the
// policy trade explicit: every-commit pays the sync in every ack, group
// commit amortizes it across its window at the cost of tail latency. After every durable run the
// log is recovered and the record count audited against the engine's
// append count; any mismatch fails the run (non-zero exit).
//
// Results are upserted into a JSON results file (default BENCH_core.json)
// keyed by benchmark name. The machine's hardware thread count rides along
// in each record: on a single-core container the multi-thread rows measure
// oversubscription, not scaling, and readers can judge.
//
// CI smoke modes (used by the recovery-smoke workflow step):
//   wal_throughput --crash-after=N --dir=D   drive load until the WAL has
//       appended N records, then die abruptly (std::_Exit) mid-write: no
//       destructors, no flushes - a real torn process image under D.
//   wal_throughput --recover --dir=D         recover D, rebuild an engine
//       from the merged records, print what survived; exit 0 on success.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/bench_clock.h"
#include "common/bench_json.h"
#include "common/table_printer.h"
#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/metrics.h"
#include "wal/wal.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

constexpr size_t kVectorK = 4;
constexpr ItemId kItems = 256;
constexpr uint32_t kOpsPerTxn = 4;

// Half reads, uniform over kItems; worker t replays its own stream.
Workload LoadWorkload(size_t threads) {
  return MakeWorkload(threads, kItems, kOpsPerTxn, 0.5, 42);
}

double Goodput(const LoopResult& r) {
  return r.seconds > 0 ? static_cast<double>(r.committed) / r.seconds : 0;
}

// Commit-acknowledge latency: the CommitTxn call, which for a durable
// engine includes the WAL append and whatever fsync stall the sync policy
// imposes (every-commit pays one per commit, group commit waits for its
// window, none rides the page cache).
double AckUs(LoopResult& r, int pct) {
  return r.ack_ns.empty()
             ? 0.0
             : static_cast<double>(Percentile(r.ack_ns, pct)) / 1000.0;
}

EngineOptions BaseEngineOptions() {
  EngineOptions eo;
  eo.k = kVectorK;
  eo.num_shards = 4;
  eo.starvation_fix = true;
  eo.compact_every = 4096;
  return eo;
}

struct PolicyConfig {
  const char* name;
  WalSyncPolicy policy;
  size_t window;  // group_commit_ops; meaningful for kGroupCommit only.
};

int failures = 0;

// One durable run: fresh log dir, engine with the WAL attached, then a
// recovery audit - every acknowledged append must come back.
LoopResult RunDurable(const std::string& dir, const PolicyConfig& cfg,
                      const Workload& w, double secs, size_t threads,
                      WalStats* wal_stats) {
  std::filesystem::remove_all(dir);
  WalOptions wo;
  wo.dir = dir;
  wo.num_streams = threads;
  wo.k = kVectorK;
  wo.sync_policy = cfg.policy;
  wo.group_commit_ops = cfg.window;
  ParallelWal wal(wo);
  if (!wal.ok()) {
    std::fprintf(stderr, "FAIL: cannot open WAL under %s\n", dir.c_str());
    ++failures;
    return {};
  }
  EngineOptions eo = BaseEngineOptions();
  eo.wal = &wal;
  ShardedMtkEngine engine(eo);
  LoopResult r = RunClosedLoop(engine, w, threads, secs);
  wal.Close();  // Clean shutdown: flush + fsync every stream.
  *wal_stats = wal.stats();
  const WalRecovery rec = ParallelWal::Recover(dir);
  if (!rec.ok || rec.torn_streams != 0 ||
      rec.records.size() != wal_stats->appends) {
    std::fprintf(stderr,
                 "FAIL: %s/%zu/%zut recovery mismatch: ok=%d torn=%zu "
                 "records=%zu appends=%llu\n",
                 cfg.name, cfg.window, threads, rec.ok ? 1 : 0,
                 rec.torn_streams, rec.records.size(),
                 static_cast<unsigned long long>(wal_stats->appends));
    ++failures;
  }
  std::filesystem::remove_all(dir);
  return r;
}

int RunSweep(const std::string& out_path, const std::string& base_dir,
             double secs) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("WAL durability sweep: %u-op txns over %u items, k=%zu, "
              "%.2fs per cell, %u hardware threads\n\n",
              kOpsPerTxn, kItems, kVectorK, secs, hw);

  const PolicyConfig policies[] = {
      {"none", WalSyncPolicy::kNone, 0},
      {"group", WalSyncPolicy::kGroupCommit, 8},
      {"group", WalSyncPolicy::kGroupCommit, 64},
      {"every_commit", WalSyncPolicy::kEveryCommit, 0},
  };
  TablePrinter table({"threads", "policy", "window", "goodput txn/s",
                      "overhead %", "ack p50 us", "ack p99 us", "fsyncs",
                      "wal MB"});
  for (size_t threads : {1u, 2u, 4u}) {
    const Workload w = LoadWorkload(threads);
    ShardedMtkEngine baseline_engine(BaseEngineOptions());
    LoopResult base = RunClosedLoop(baseline_engine, w, threads, secs);
    table.AddRow({std::to_string(threads), "in-memory", "-",
                  FormatDouble(Goodput(base), 0), "0.0",
                  FormatDouble(AckUs(base, 50), 1),
                  FormatDouble(AckUs(base, 99), 1), "-", "-"});
    BenchFields fields = {
        {"hardware_threads", JsonNum(hw)},
        {"seconds_per_cell", JsonNum(secs)},
        {"baseline_goodput_txn_s", JsonNum(Goodput(base))},
        {"baseline_ack_p50_us", JsonNum(AckUs(base, 50))},
        {"baseline_ack_p99_us", JsonNum(AckUs(base, 99))}};
    for (const PolicyConfig& cfg : policies) {
      const std::string dir = base_dir + "/wal_bench_t" +
                              std::to_string(threads) + "_" + cfg.name + "_w" +
                              std::to_string(cfg.window);
      WalStats ws;
      LoopResult r = RunDurable(dir, cfg, w, secs, threads, &ws);
      const double overhead =
          Goodput(base) > 0
              ? (Goodput(base) - Goodput(r)) / Goodput(base) * 100.0
              : 0.0;
      table.AddRow({std::to_string(threads), cfg.name,
                    cfg.policy == WalSyncPolicy::kGroupCommit
                        ? std::to_string(cfg.window)
                        : "-",
                    FormatDouble(Goodput(r), 0), FormatDouble(overhead, 1),
                    FormatDouble(AckUs(r, 50), 1),
                    FormatDouble(AckUs(r, 99), 1), std::to_string(ws.fsyncs),
                    FormatDouble(static_cast<double>(ws.bytes) / 1e6, 1)});
      const std::string key =
          std::string(cfg.name) +
          (cfg.policy == WalSyncPolicy::kGroupCommit
               ? "_w" + std::to_string(cfg.window)
               : "");
      fields.emplace_back(key + "_goodput_txn_s", JsonNum(Goodput(r)));
      fields.emplace_back(key + "_overhead_pct", JsonNum(overhead));
      fields.emplace_back(key + "_fsyncs", JsonNum(double(ws.fsyncs)));
      fields.emplace_back(key + "_ack_p50_us", JsonNum(AckUs(r, 50)));
      fields.emplace_back(key + "_ack_p99_us", JsonNum(AckUs(r, 99)));
    }
    UpsertBenchRecord(out_path, "wal_throughput_t" + std::to_string(threads),
                      fields);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("[%s] durability sweep: %d recovery audit failure(s)\n",
              failures == 0 ? "ok" : "REPRODUCTION FAILURE", failures);
  return failures == 0 ? 0 : 1;
}

// --crash-after mode: drive load with a group-commit WAL until the append
// count is reached, then _Exit mid-write. Never returns on the happy path.
int RunCrash(const std::string& dir, uint64_t crash_after) {
  std::filesystem::remove_all(dir);
  WalOptions wo;
  wo.dir = dir;
  wo.num_streams = 2;
  wo.k = kVectorK;
  wo.sync_policy = WalSyncPolicy::kGroupCommit;
  wo.group_commit_ops = 8;
  ParallelWal wal(wo);
  if (!wal.ok()) return 2;
  EngineOptions eo = BaseEngineOptions();
  eo.wal = &wal;
  ShardedMtkEngine engine(eo);
  RunClosedLoop(engine, LoadWorkload(2), /*threads=*/2, /*seconds=*/60.0,
                /*in_flight=*/0, /*work_ns=*/0, [&](const LoopResult&) {
                  if (wal.stats().appends >= crash_after) {
                    std::_Exit(3);  // Abrupt: buffered WAL tails are torn.
                  }
                  return false;
                });
  std::fprintf(stderr, "crash-after=%llu never reached\n",
               static_cast<unsigned long long>(crash_after));
  return 2;
}

// --recover mode: merge the streams left by a crashed run and rebuild an
// engine from them. Torn tails are expected (and truncated); an unreadable
// log or an inconsistent rebuild is the failure.
int RunRecover(const std::string& dir) {
  const WalRecovery rec = ParallelWal::Recover(dir);
  if (!rec.ok) {
    std::fprintf(stderr, "recovery failed: %s\n", rec.error.c_str());
    return 1;
  }
  EngineOptions eo = BaseEngineOptions();
  ShardedMtkEngine engine(eo);
  const size_t applied = engine.RecoverFrom(rec);
  for (const WalCommitRecord& r : rec.records) {
    if (!engine.IsCommitted(r.txn)) {
      std::fprintf(stderr, "rebuild lost txn %u\n", r.txn);
      return 1;
    }
  }
  std::printf("recovered %zu commit records (%zu applied) from %zu streams "
              "(%zu torn tail(s) truncated), %zu item tops rebuilt\n",
              rec.records.size(), applied, rec.streams.size(),
              rec.torn_streams, rec.item_writer.size());
  return 0;
}

}  // namespace
}  // namespace mdts

// Usage: wal_throughput [RESULTS.json] [--secs=S] [--dir=D]
//                       [--crash-after=N --dir=D] [--recover --dir=D]
int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  std::string dir;
  double secs = 0.5;
  uint64_t crash_after = 0;
  bool recover = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--secs=", 7) == 0) {
      secs = std::strtod(argv[i] + 7, nullptr);
      if (secs <= 0) secs = 0.5;
    } else if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--crash-after=", 14) == 0) {
      crash_after = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else if (argv[i][0] != '-') {
      out_path = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (recover) {
    if (dir.empty()) {
      std::fprintf(stderr, "--recover requires --dir=D\n");
      return 2;
    }
    return mdts::RunRecover(dir);
  }
  if (crash_after > 0) {
    if (dir.empty()) {
      std::fprintf(stderr, "--crash-after requires --dir=D\n");
      return 2;
    }
    return mdts::RunCrash(dir, crash_after);
  }
  if (dir.empty()) {
    dir = std::filesystem::temp_directory_path().string();
  }
  return mdts::RunSweep(out_path, dir, secs);
}
