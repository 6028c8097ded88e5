// Abort rate of MT(k)'s two element rules for the columns other than the
// last: Algorithm 1's line 20 (TS(i, m) := TS(j, m) + 1, the paper rule)
// and per-column Lamport clocks (ColumnClocks, core/encoding.h), which the
// engine always runs and MtkScheduler runs with MtkOptions::column_clocks.
//
// Every cell is one client thread of the shared closed-loop driver
// (workload/closed_loop.h: 6-op transactions, 60% reads, uniform items,
// restart and replay on reject, abandon after kMaxTries) stopped after
// kTxns transactions, so every count is deterministic. Axes: target
// (scheduler with either rule, engine on 1 and 32 shards) x k {1, 2, 3, 7}
// x items {64, 4,096, 65,536} x transactions in flight {1, 8}. With one in
// flight the history is strictly serial; with 8 the client interleaves one
// operation of each per round, one Process call per transaction in slot
// order.
//
// Self-checks (exit 1 on REPRODUCTION FAILURE): the 1-shard engine makes
// exactly the clock scheduler's decisions in every cell; a serial client
// never aborts under clocks on the scheduler or on 1 shard; and on 32
// shards it aborts at most 5% at 4,096 and 65,536 items for k >= 2.
//
// Results go to stdout and are upserted into a JSON results file (first
// positional arg, default BENCH_core.json): one element_rule_<target>_k<k>
// record per target and k, each cell with its hardware thread count.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "common/table_printer.h"
#include "core/mtk_scheduler.h"
#include "engine/sharded_engine.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

constexpr uint64_t kTxns = 20000;
constexpr uint32_t kOpsPerTxn = 6;
constexpr double kReadFraction = 0.6;
constexpr size_t kKs[] = {1, 2, 3, 7};
constexpr uint32_t kItems[] = {64, 4096, 65536};
constexpr size_t kInFlight[] = {1, 8};

struct Target {
  const char* name;
  size_t shards;  // 0: MtkScheduler.
  bool clocks;    // The engine always runs them.
};

enum : size_t { kSchedPaper, kSchedClocks, kEngine1, kEngine32 };
const Target kTargets[] = {
    {"sched_paper", 0, false},
    {"sched_clocks", 0, true},
    {"engine_shards1", 1, true},
    {"engine_shards32", 32, true},
};

bool EnoughTxns(const LoopResult& r) { return r.txns() >= kTxns; }

// One deterministic cell: the starvation fix on (and, on the engine,
// perfbench's compaction period), one client, stopped after kTxns
// transactions.
LoopResult RunCell(const Target& t, size_t k, uint32_t items,
                   size_t in_flight) {
  const Workload w = MakeWorkload(1, items, kOpsPerTxn, kReadFraction, 42);
  const size_t interleaved = in_flight > 1 ? in_flight : 0;
  if (t.shards == 0) {
    MtkOptions mo;
    mo.k = k;
    mo.starvation_fix = true;
    mo.column_clocks = t.clocks;
    MtkScheduler sched(mo);
    return RunClosedLoop(sched, w, 1, 600.0, interleaved, 0, EnoughTxns);
  }
  EngineOptions eo;
  eo.k = k;
  eo.num_shards = t.shards;
  eo.starvation_fix = true;
  eo.compact_every = std::max<uint64_t>(1024, items / 2);
  ShardedMtkEngine engine(eo);
  return RunClosedLoop(engine, w, 1, 600.0, interleaved, 0, EnoughTxns);
}

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "REPRODUCTION FAILURE", what.c_str());
  if (!ok) ++failures;
}

struct Cell {
  size_t target, k;
  uint32_t items;
  size_t in_flight;
  LoopResult r;
};

int Run(const char* out_path) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== Element rule: abort rate, paper rule vs column clocks ===\n"
              "one client, %llu transactions of %u ops (%.0f%% reads), "
              "starvation fix on\n\n",
              static_cast<unsigned long long>(kTxns), kOpsPerTxn,
              kReadFraction * 100);
  std::vector<Cell> cells;
  for (size_t t = 0; t < std::size(kTargets); ++t) {
    for (const size_t k : kKs) {
      for (const uint32_t items : kItems) {
        for (const size_t f : kInFlight) {
          cells.push_back({t, k, items, f, RunCell(kTargets[t], k, items, f)});
        }
      }
    }
  }
  auto find = [&](size_t t, size_t k, uint32_t items, size_t f) {
    return std::find_if(cells.begin(), cells.end(), [&](const Cell& c) {
      return c.target == t && c.k == k && c.items == items && c.in_flight == f;
    });
  };

  std::vector<std::string> header = {"k", "items", "in flight"};
  for (const Target& t : kTargets) header.push_back(t.name);
  TablePrinter table(header);
  for (const size_t k : kKs) {
    for (const uint32_t items : kItems) {
      for (const size_t f : kInFlight) {
        std::vector<std::string> row = {std::to_string(k),
                                        std::to_string(items),
                                        std::to_string(f)};
        for (size_t t = 0; t < std::size(kTargets); ++t) {
          row.push_back(FormatDouble(find(t, k, items, f)->r.abort_rate(), 4));
        }
        table.AddRow(row);
      }
    }
  }
  std::printf("abort ratio (rejected attempts / attempts):\n%s\n",
              table.ToString().c_str());

  for (size_t t = 0; t < std::size(kTargets); ++t) {
    for (const size_t k : kKs) {
      std::string rows;
      for (const Cell& c : cells) {
        if (c.target != t || c.k != k) continue;
        if (!rows.empty()) rows += ", ";
        rows += "{\"items\": " + JsonNum(c.items) +
                ", \"in_flight\": " + JsonNum(static_cast<double>(c.in_flight)) +
                ", \"hardware_threads\": " + JsonNum(hw) +
                ", \"committed\": " + JsonNum(c.r.committed) +
                ", \"aborts\": " + JsonNum(c.r.aborts) +
                ", \"abandoned\": " + JsonNum(c.r.abandoned) +
                ", \"abort_ratio\": " + JsonNum(c.r.abort_rate()) + "}";
      }
      const Target& tg = kTargets[t];
      UpsertBenchRecord(
          out_path,
          std::string("element_rule_") + tg.name + "_k" + std::to_string(k),
          {{"hardware_threads", JsonNum(hw)},
           {"threads", JsonNum(1)},
           {"target", JsonStr(tg.shards == 0 ? "MtkScheduler"
                                             : "ShardedMtkEngine")},
           {"rule", JsonStr(tg.clocks ? "clocks" : "paper")},
           {"shards", tg.shards == 0 ? "null" : JsonNum(tg.shards)},
           {"k", JsonNum(static_cast<double>(k))},
           {"ops_per_txn", JsonNum(kOpsPerTxn)},
           {"read_fraction", JsonNum(kReadFraction)},
           {"txns", JsonNum(static_cast<double>(kTxns))},
           {"cells", "[" + rows + "]"}});
    }
  }

  std::printf("Self-checks:\n");
  bool same = true;
  for (const Cell& c : cells) {
    if (c.target != kEngine1) continue;
    const LoopResult& s = find(kSchedClocks, c.k, c.items, c.in_flight)->r;
    same = same && c.r.committed == s.committed && c.r.aborts == s.aborts &&
           c.r.abandoned == s.abandoned && c.r.ops_accepted == s.ops_accepted;
  }
  Check(same,
        "the 1-shard engine makes the clock scheduler's decisions in every "
        "cell");
  bool serial_zero = true;
  double worst32 = 0;
  for (const Cell& c : cells) {
    if (c.in_flight != 1) continue;
    if (c.target == kSchedClocks || c.target == kEngine1) {
      serial_zero = serial_zero && c.r.aborts == 0;
    }
    if (c.target == kEngine32 && c.k >= 2 && c.items >= 4096) {
      worst32 = std::max(worst32, c.r.abort_rate());
    }
  }
  Check(serial_zero,
        "a serial client never aborts under column clocks (scheduler, 1 "
        "shard, every k and table size)");
  Check(worst32 <= 0.05,
        "a serial client on 32 shards aborts <= 5% at 4,096 and 65,536 "
        "items, k >= 2 (worst " + FormatDouble(worst32, 4) + ")");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mdts

int main(int argc, char** argv) {
  return mdts::Run(argc > 1 ? argv[1] : "BENCH_core.json");
}
