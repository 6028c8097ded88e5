// Closed-loop multithreaded MT(k) throughput benchmark: the cost ladder
// of the thread-safe ShardedMtkEngine. Every loop is the shared
// closed-loop client (workload/closed_loop.h): restart and replay on
// reject, abandon after kMaxTries, so abort handling and restart costs are
// part of every number and the compaction watermark can always advance.
//
// The ladder prices the stack one layer at a time. A rung is a name, a
// parent, and the one layer it adds to its parent's configuration; every
// engine rung runs the deployed configuration (perfbench's
// DeployedEngineOptions). A cell (items x client threads) runs every rung
// once per round, in an order rotated from round to round, and a rung's
// price is the median over rounds of its per-round delta against its
// parent (MeasureRounds, common/bench_clock.h). A null rung measures the
// 32-shard engine a second time; its spread is the cell's noise floor.
// The metrics, live and flight rungs are the observability overhead gates
// in the all-hardware-threads, 65,536-item cell: after every record is
// written, the process exits 1 if any of them is over its bar.
//
// Results go to stdout (tables) and are upserted into a JSON results file
// (first positional arg, default BENCH_core.json) keyed by benchmark name:
// one mt_ladder_items<I>_t<T> record per cell. Scaling numbers are only
// meaningful when the machine has at least as many hardware threads as the
// cell uses; every record carries the detected count so readers can judge.
//
// Live telemetry: `--serve[=PORT]` (default port 9464, 0 = ephemeral)
// starts a background Sampler over the process-wide registry plus an HTTP
// exporter serving /metrics, /metrics.json, /series.json and /healthz
// while the benchmark runs; the rungs that attach a registry then attach
// the global one, so the series show real windowed rates. `--sample-ms=N`
// sets the sampling interval (default 100).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_clock.h"
#include "common/bench_json.h"
#include "common/table_printer.h"
#include "core/mtk_scheduler.h"
#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/flight.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

double Mops(const LoopResult& r) { return r.ops_per_sec() / 1e6; }

// Goodput: operations of COMMITTED transactions per second (in millions).
// Accepted-op throughput flatters high-abort configurations, because
// operations of transactions that later abort still count; goodput only
// credits work that survived.
double GoodputMops(const LoopResult& r, uint32_t ops_per_txn) {
  return r.seconds > 0 ? static_cast<double>(r.committed) * ops_per_txn /
                             r.seconds / 1e6
                       : 0;
}

std::string Fmt(double v, int prec = 2) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

constexpr uint32_t kOpsPerTxn = 6;
constexpr double kReadFraction = 0.6;
constexpr uint32_t kLowContentionItems = 65536;
constexpr uint32_t kHighContentionItems = 64;

// ===========================================================================
// The cost ladder.
// ===========================================================================

constexpr size_t kLadderK = 3;
constexpr int kLadderRounds = 9;
// Arm length. In the gate cell, interference bursts on shared hosts run
// for a few hundred ms, so 0.3 s arms land entirely inside or outside a
// burst (+-8% per arm); 1 s arms integrate over it. The other cells price
// the layers without a bar; their arms are as long as the run's time
// budget allows, because short arms price a young table and widen the
// null rung's quartiles.
constexpr double kGateArmSecs = 1.0;
constexpr double kCellArmSecs = 0.18;

// What a rung runs: the layers stacked on the closed-loop client.
struct Stack {
  // MtkScheduler (1 client only), not the engine; it runs the engine's
  // element rule (column_clocks), so shards1 prices the engine layer only.
  bool scheduler = false;
  size_t shards = 1;
  bool metrics = false;  // A registry, phase attribution off (shift 63).
  bool live = false;     // Sampler @100 ms + idle HTTP exporter on it.
  bool flight = false;   // FlightRecorder 4x256 + 1-in-64 attribution.
  bool multiversion = false;
  uint64_t work_ns = 0;  // Client spin after every accepted op.
};

// A rung: its parent and the one layer it adds to the parent's stack. A
// gated rung names its overhead field and the bar its delta must stay
// under in the gate cell.
struct Rung {
  const char* name;
  const char* parent;  // nullptr: the root.
  void (*layer)(Stack&);
  const char* gate = nullptr;
  double bar_pct = 0;
};

// The main chain is perfbench's `solo` stack; MV and client work branch
// off the 32-shard engine.
const Rung kRungs[] = {
    {"sched", nullptr, [](Stack& s) { s.scheduler = true; }},
    {"shards1", "sched",
     [](Stack& s) {
       s.scheduler = false;
       s.shards = 1;
     }},
    {"shards32", "shards1", [](Stack& s) { s.shards = 32; }},
    {"metrics", "shards32", [](Stack& s) { s.metrics = true; },
     "obs_overhead_pct", 3.0},
    {"live", "metrics", [](Stack& s) { s.live = true; },
     "live_obs_overhead_pct", 2.0},
    {"flight", "live", [](Stack& s) { s.flight = true; },
     "flight_obs_overhead_pct", 3.0},
    {"mv", "shards32", [](Stack& s) { s.multiversion = true; }},
    {"work50", "shards32", [](Stack& s) { s.work_ns = 50'000; }},
    {"mv_work50", "work50", [](Stack& s) { s.multiversion = true; }},
    {"null", "shards32", [](Stack&) {}},
};

const Rung* ParentOf(const Rung& rung) {
  for (const Rung& p : kRungs) {
    if (rung.parent != nullptr && std::strcmp(p.name, rung.parent) == 0) {
      return &p;
    }
  }
  return nullptr;
}

Stack StackOf(const Rung& rung) {
  const Rung* parent = ParentOf(rung);
  Stack s = parent != nullptr ? StackOf(*parent) : Stack{};
  rung.layer(s);
  return s;
}

// One run of a stack on a fresh target: k=3 with the starvation fix, and
// for the engine the deployed compaction period (the stop-the-world sweep
// is O(items), so the period scales with the item count). `global`, when
// serving, is the registry the metrics rungs publish into.
LoopResult RunStack(const Stack& s, const Workload& w, size_t threads,
                    double secs, MetricsRegistry* global) {
  if (s.scheduler) {
    MtkOptions mo;
    mo.k = kLadderK;
    mo.starvation_fix = true;
    mo.column_clocks = true;
    MtkScheduler sched(mo);
    return RunClosedLoop(sched, w, 1, secs);
  }
  EngineOptions eo;
  eo.k = kLadderK;
  eo.num_shards = s.shards;
  eo.starvation_fix = true;
  eo.compact_every = std::max<uint64_t>(1024, w.items / 2);
  eo.multiversion = s.multiversion;
  MetricsRegistry reg;
  if (s.metrics) {
    eo.metrics = global != nullptr ? global : &reg;
    eo.phase_sample_shift = s.flight ? 6 : 63;
  }
  std::optional<FlightRecorder> flight;
  if (s.flight) {
    eo.flight = &flight.emplace(FlightRecorderOptions{4, 256, kLadderK});
  }
  std::optional<Sampler> sampler;
  std::optional<HttpExporter> exporter;
  if (s.live) {
    SamplerOptions so;
    so.registry = eo.metrics;
    so.interval_ms = 100;
    StarvationWatchdogOptions wo;
    wo.source_gauge = "engine.max_consecutive_aborts";
    sampler.emplace(so).AddStarvationWatchdog(wo);
    sampler->Start();
    HttpExporterOptions ho;
    ho.registry = eo.metrics;
    ho.sampler = &*sampler;
    ho.port = 0;  // Ephemeral; an idle listener, the worst case here.
    exporter.emplace(ho).Start();
  }
  ShardedMtkEngine engine(eo);
  return RunClosedLoop(engine, w, threads, secs, /*in_flight=*/0, s.work_ns);
}

struct GateReading {
  const char* field;
  double pct, bar_pct;
  size_t threads;
};

// One ladder cell: every rung that applies at this thread count, priced
// against its parent over kLadderRounds rotated rounds. Records the cell
// and appends its gated rungs' readings to `gates` when `gated`.
void RunCell(const char* out_path, unsigned hw, uint32_t items,
             size_t threads, bool gated, MetricsRegistry* global,
             std::vector<GateReading>& gates) {
  const double secs = gated ? kGateArmSecs : kCellArmSecs;
  std::vector<const Rung*> rungs;
  for (const Rung& r : kRungs) {
    if (threads == 1 || !StackOf(r).scheduler) rungs.push_back(&r);
  }
  const size_t n = rungs.size();
  std::vector<int> parents(n, -1);  // -1: a root in this cell.
  for (size_t i = 0; i < n; ++i) {
    const auto it = std::find(rungs.begin(), rungs.end(), ParentOf(*rungs[i]));
    if (it != rungs.end()) parents[i] = static_cast<int>(it - rungs.begin());
  }
  std::printf(
      "--- ladder: %u items, %zu threads, k=%zu, %d rounds x %.1fs ---\n",
      items, threads, kLadderK, kLadderRounds, secs);
  std::fflush(stdout);
  const Workload w =
      MakeWorkload(threads, items, kOpsPerTxn, kReadFraction, 42);
  std::vector<std::vector<double>> goodput(n), aborts(n), p50(n), p99(n);
  const std::vector<RoundsArm> arms =
      MeasureRounds(kLadderRounds, parents, [&](size_t i) {
        LoopResult r = RunStack(StackOf(*rungs[i]), w, threads, secs, global);
        goodput[i].push_back(GoodputMops(r, kOpsPerTxn));
        aborts[i].push_back(r.abort_rate());
        p50[i].push_back(Percentile(r.latencies_ns, 50) / 1e3);
        p99[i].push_back(PercentileSorted(r.latencies_ns, 99) / 1e3);
        return Mops(r);
      });

  TablePrinter table({"rung", "parent", "Mops", "good Mops", "abort",
                      "p50 us", "p99 us", "delta %", "quartiles %", "bar"});
  std::string rows;
  for (size_t i = 0; i < n; ++i) {
    const Rung& rung = *rungs[i];
    const RoundsArm& a = arms[i];
    const bool gate = gated && rung.gate != nullptr;
    const char* parent = parents[i] < 0 ? "-" : rung.parent;
    std::string bar = "-";
    if (gate) {
      bar = "< " + Fmt(rung.bar_pct, 0) + "%" +
            (a.delta_pct < rung.bar_pct ? "" : " ABOVE BAR");
      gates.push_back({rung.gate, a.delta_pct, rung.bar_pct, threads});
    }
    table.AddRow({rung.name, parent, Fmt(a.median), Fmt(Median(goodput[i])),
                  Fmt(Median(aborts[i]), 3),
                  Fmt(Median(p50[i]), 1), Fmt(Median(p99[i]), 1),
                  a.has_delta ? Fmt(a.delta_pct) : "-",
                  a.has_delta ? Fmt(a.delta_q1_pct) + " .. " +
                                    Fmt(a.delta_q3_pct)
                              : "-",
                  bar});
    if (!rows.empty()) rows += ", ";
    rows += "{\"rung\": " + JsonStr(rung.name) +
            ", \"parent\": " + (parents[i] < 0 ? "null" : JsonStr(parent)) +
            ", \"mops\": " + JsonNum(a.median) +
            ", \"goodput_mops\": " + JsonNum(Median(goodput[i])) +
            ", \"abort_rate\": " + JsonNum(Median(aborts[i])) +
            ", \"p50_us\": " + JsonNum(Median(p50[i])) +
            ", \"p99_us\": " + JsonNum(Median(p99[i]));
    if (a.has_delta) {
      rows += ", \"delta_pct\": " + JsonNum(a.delta_pct) +
              ", \"delta_q1_pct\": " + JsonNum(a.delta_q1_pct) +
              ", \"delta_q3_pct\": " + JsonNum(a.delta_q3_pct);
    }
    if (gate) {
      rows += ", \"gate\": " + JsonStr(rung.gate) +
              ", \"bar_pct\": " + JsonNum(rung.bar_pct);
    }
    rows += "}";
  }
  std::printf("%s\n", table.ToString().c_str());
  UpsertBenchRecord(
      out_path,
      "mt_ladder_items" + std::to_string(items) + "_t" +
          std::to_string(threads),
      {{"hardware_threads", JsonNum(hw)},
       {"threads", JsonNum(static_cast<double>(threads))},
       {"items", JsonNum(items)},
       {"k", JsonNum(kLadderK)},
       {"ops_per_txn", JsonNum(kOpsPerTxn)},
       {"read_fraction", JsonNum(kReadFraction)},
       {"compact_every", JsonNum(std::max<uint32_t>(1024, items / 2))},
       {"rounds", JsonNum(kLadderRounds)},
       {"arm_seconds", JsonNum(secs)},
       {"rungs", "[" + rows + "]"}});
}

int Run(const char* out_path, int serve_port, uint64_t sample_ms) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== MT(k) closed-loop throughput (hardware threads: %u) ===\n\n",
              hw);

  // Optional live telemetry: wall-clock sampler + HTTP exporter over the
  // process-wide registry, running for the whole benchmark. The watchdog
  // watches the engine's consecutive-abort gauge; closed-loop retries under
  // high contention can legitimately trip it, which makes the benchmark a
  // convenient live demo.
  std::unique_ptr<Sampler> live_sampler;
  std::unique_ptr<HttpExporter> live_exporter;
  if (serve_port >= 0) {
    SamplerOptions so;
    so.registry = &GlobalMetrics();
    so.interval_ms = sample_ms;
    live_sampler = std::make_unique<Sampler>(so);
    StarvationWatchdogOptions wo;
    wo.source_gauge = "engine.max_consecutive_aborts";
    live_sampler->AddStarvationWatchdog(wo);
    live_sampler->Start();
    HttpExporterOptions ho;
    ho.registry = &GlobalMetrics();
    ho.sampler = live_sampler.get();
    ho.port = static_cast<uint16_t>(serve_port);
    live_exporter = std::make_unique<HttpExporter>(ho);
    if (!live_exporter->Start()) {
      std::fprintf(stderr, "failed to start exporter on port %d\n",
                   serve_port);
      return 1;
    }
    std::printf(
        "live telemetry: http://127.0.0.1:%u/metrics (also /metrics.json, "
        "/series.json, /healthz; sample interval %llu ms)\n"
        "  watch with: tools/mdtop.py --port %u\n\n",
        live_exporter->port(),
        static_cast<unsigned long long>(sample_ms), live_exporter->port());
    std::fflush(stdout);  // The URL must be visible even when piped.
  }

  // The ladder: items {65,536, 64} x threads {1, all hardware threads}.
  MetricsRegistry* global =
      live_sampler != nullptr ? &GlobalMetrics() : nullptr;
  std::vector<GateReading> gates;
  std::vector<size_t> thread_counts = {1};
  if (hw > 1) thread_counts.push_back(hw);
  for (uint32_t items : {kLowContentionItems, kHighContentionItems}) {
    for (size_t threads : thread_counts) {
      const bool gated = items == kLowContentionItems && threads == hw;
      RunCell(out_path, hw, items, threads, gated, global, gates);
    }
  }

  std::printf("results upserted into %s\n", out_path);

  if (live_exporter != nullptr) {
    live_exporter->Stop();
    live_sampler->Stop();
    std::printf("live telemetry: %llu windows sampled, %zu watchdog alerts\n",
                static_cast<unsigned long long>(live_sampler->samples_taken()),
                live_sampler->alerts().size());
  }
  std::fflush(stdout);  // Keep the verdicts after the tables when merged.
  int status = 0;
  for (const GateReading& g : gates) {
    if (g.pct < g.bar_pct) continue;
    std::fprintf(stderr,
                 "GATE FAILED: %s = %.2f%% (bar: < %.0f%%) at %zu threads\n",
                 g.field, g.pct, g.bar_pct, g.threads);
    status = 1;
  }
  return status;
}

}  // namespace
}  // namespace mdts

int main(int argc, char** argv) {
  const char* out_path = "BENCH_core.json";
  int serve_port = -1;       // < 0 means no exporter.
  uint64_t sample_ms = 100;  // Live sampler interval when serving.
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--serve") == 0) {
      serve_port = 9464;
    } else if (std::strncmp(arg, "--serve=", 8) == 0) {
      serve_port = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--sample-ms=", 12) == 0) {
      sample_ms = static_cast<uint64_t>(std::strtoull(arg + 12, nullptr, 10));
      if (sample_ms == 0) sample_ms = 100;
    } else if (arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [out.json] [--serve[=PORT]] [--sample-ms=N]\n",
                   argv[0]);
      return 2;
    } else {
      out_path = arg;
    }
  }
  return mdts::Run(out_path, serve_port, sample_ms);
}
