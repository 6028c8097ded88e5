// Closed-loop multithreaded MT(k) throughput benchmark (the perf experiment
// behind the sharded engine): sweeps threads x contention x k over the
// thread-safe ShardedMtkEngine, and measures the single-thread throughput
// of the sharded engine with one shard against MtkScheduler. Every loop is
// the shared closed-loop client (workload/closed_loop.h): restart and
// replay on reject, abandon after kMaxTries, so abort handling and restart
// costs are part of every number and the compaction watermark can always
// advance. The observability overhead gates (parts 3, 3b, 3f) fail the
// run: after every record is written, the process exits 1 if any gate is
// over its bar.
//
// Results go to stdout (tables) and are upserted into a JSON results file
// (first positional arg, default BENCH_core.json) keyed by benchmark name.
// Scaling numbers are only meaningful when the machine has at least as many
// hardware threads as the sweep uses; the record carries the detected
// count so readers can judge.
//
// Live telemetry: `--serve[=PORT]` (default port 9464, 0 = ephemeral)
// starts a background Sampler over the process-wide registry plus an HTTP
// exporter serving /metrics, /metrics.json, /series.json and /healthz
// while the benchmark runs; the part-2 engines then publish into the
// global registry so the series show real windowed rates. `--sample-ms=N`
// sets the sampling interval (default 100).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_clock.h"
#include "common/bench_json.h"
#include "common/table_printer.h"
#include "control/admission.h"
#include "core/mtk_scheduler.h"
#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/flight.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

double Mops(const LoopResult& r) { return r.ops_per_sec() / 1e6; }

// Goodput: operations of COMMITTED transactions per second (in millions).
// Accepted-op throughput flatters high-abort configurations, because
// operations of transactions that later abort still count; goodput only
// credits work that survived, which is the number the batching sweep
// compares.
double GoodputMops(const LoopResult& r, uint32_t ops_per_txn) {
  return r.seconds > 0 ? static_cast<double>(r.committed) * ops_per_txn /
                             r.seconds / 1e6
                       : 0;
}

double LatencyUs(LoopResult& r, int pct) {
  if (r.latencies_ns.empty()) return 0;
  return static_cast<double>(Percentile(r.latencies_ns, pct)) / 1000.0;
}

std::string Fmt(double v, int prec = 2) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

// An observability overhead gate: the arm pair that differs in one layer
// (each arm returns Mops) and the bar the median per-pair overhead must
// stay under.
struct OverheadGate {
  const char* record;  // BENCH record name.
  const char* field;   // Its overhead field.
  const char* title;
  double bar_pct;
  std::function<double()> baseline, instrumented;
};

// ===========================================================================
// Experiments.
// ===========================================================================

constexpr uint32_t kOpsPerTxn = 6;
constexpr double kReadFraction = 0.6;
constexpr uint32_t kLowContentionItems = 65536;
constexpr uint32_t kHighContentionItems = 64;

int Run(const char* out_path, int serve_port, uint64_t sample_ms) {
  const unsigned hw = std::thread::hardware_concurrency();
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

  // -------------------------------------------------------------------
  // Part 1: single-thread throughput at k = 3 on both contention levels.
  // "sched" is MtkScheduler (what MtkOnline runs), "engine x1" the sharded
  // engine with one shard.
  // -------------------------------------------------------------------
  std::printf("--- single-thread, k=3, %u ops/txn, %.0f%% reads ---\n",
              kOpsPerTxn, kReadFraction * 100);
  TablePrinter single({"items", "sched Mops", "engine Mops", "abort rate"});
  double sched_low_mops = 0, engine_low_mops = 0;
  for (uint32_t items : {kLowContentionItems, kHighContentionItems}) {
    const Workload w =
        MakeWorkload(1, items, kOpsPerTxn, kReadFraction, 42);
    const double secs = 1.0;
    // Warmup + run, each system fresh.
    MtkOptions mo;
    mo.k = 3;
    mo.starvation_fix = true;
    {
      MtkScheduler warm(mo);
      (void)PerOpLoop(warm, w, 0, 1, 0.1);
    }
    MtkScheduler sched(mo);
    const LoopResult rs = PerOpLoop(sched, w, 0, 1, secs);
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = 1;
    eo.starvation_fix = true;
    ShardedMtkEngine engine(eo);
    const LoopResult re = RunClosedLoop(engine, w, 1, secs);
    if (items == kLowContentionItems) {
      sched_low_mops = Mops(rs);
      engine_low_mops = Mops(re);
    }
    single.AddRow({std::to_string(items), Fmt(Mops(rs)), Fmt(Mops(re)),
                   Fmt(rs.abort_rate(), 3)});
  }
  std::printf("%s\n", single.ToString().c_str());

  UpsertBenchRecord(
      out_path, "mt_throughput_single_thread_k3",
      {{"hardware_threads", JsonNum(hw)},
       {"items_low_contention", JsonNum(kLowContentionItems)},
       {"sched_mops", JsonNum(sched_low_mops)},
       {"engine_1shard_mops", JsonNum(engine_low_mops)}});

  // -------------------------------------------------------------------
  // Part 2: engine scaling sweep, threads x contention x k. Compaction is
  // on, with a period scaled to the item count: the stop-the-world sweep
  // is O(items), so a fixed small period would spend the whole run
  // scanning 65536 item histories.
  // -------------------------------------------------------------------
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  double scaling_4t = 0, mops_1t_low_k3 = 0, mops_4t_low_k3 = 0;
  for (uint32_t items : {kLowContentionItems, kHighContentionItems}) {
    for (size_t k : {1u, 3u, 7u}) {
      std::printf("--- engine: %u items, k=%zu ---\n", items, k);
      TablePrinter table({"threads", "Mops", "commit/s", "abort rate",
                          "p50 us", "p99 us", "cross-shard", "released"});
      std::string mops_list, abort_list, p50_list, p99_list;
      for (size_t threads : thread_counts) {
        EngineOptions eo;
        eo.k = k;
        eo.num_shards = 32;  // Over-provisioned so locksets rarely collide.
        eo.starvation_fix = true;
        // When serving live telemetry, publish into the global registry so
        // the exporter has something to show. An attached registry costs
        // ~1% (part 3), which is uniform across the sweep.
        if (live_sampler != nullptr) eo.metrics = &GlobalMetrics();
        // The stop-the-world sweep is O(items): scale the period with the
        // item count so compaction stays amortized, with a floor so hot
        // small-table runs still reclaim aggressively.
        eo.compact_every = std::max<uint64_t>(1024, items / 2);
        const Workload w =
            MakeWorkload(threads, items, kOpsPerTxn, kReadFraction, 42);
        {
          ShardedMtkEngine warm(eo);
          (void)RunClosedLoop(warm, w, threads, 0.08);
        }
        ShardedMtkEngine engine(eo);
        LoopResult r = RunClosedLoop(engine, w, threads, 0.5);
        const EngineStats st = engine.stats();
        const uint64_t decided = st.single_shard_ops + st.cross_shard_ops;
        const double cross_frac =
            decided ? static_cast<double>(st.cross_shard_ops) / decided : 0;
        const double p50 = LatencyUs(r, 50);
        const double p99 = LatencyUs(r, 99);
        table.AddRow({std::to_string(threads), Fmt(Mops(r)),
                      Fmt(static_cast<double>(r.committed) / r.seconds, 0),
                      Fmt(r.abort_rate(), 3), Fmt(p50, 1), Fmt(p99, 1),
                      Fmt(cross_frac, 2),
                      std::to_string(st.txns_released)});
        const char* sep = mops_list.empty() ? "" : ", ";
        mops_list += sep + JsonNum(Mops(r));
        abort_list += sep + JsonNum(r.abort_rate());
        p50_list += sep + JsonNum(p50);
        p99_list += sep + JsonNum(p99);
        if (items == kLowContentionItems && k == 3) {
          if (threads == 1) mops_1t_low_k3 = Mops(r);
          if (threads == 4) mops_4t_low_k3 = Mops(r);
        }
      }
      std::printf("%s\n", table.ToString().c_str());
      const std::string name = "mt_engine_scaling_items" +
                               std::to_string(items) + "_k" +
                               std::to_string(k);
      UpsertBenchRecord(out_path, name,
                        {{"hardware_threads", JsonNum(hw)},
                         {"num_shards", JsonNum(32)},
                         {"threads", "[1, 2, 4, 8]"},
                         {"mops", "[" + mops_list + "]"},
                         {"abort_rate", "[" + abort_list + "]"},
                         {"p50_us", "[" + p50_list + "]"},
                         {"p99_us", "[" + p99_list + "]"}});
    }
  }
  scaling_4t = mops_1t_low_k3 > 0 ? mops_4t_low_k3 / mops_1t_low_k3 : 0;

  // -------------------------------------------------------------------
  // Part 2b: batched admission x contention, single thread (the per-op
  // arm then matches the threads=1 cells of part 2). The per-op arm
  // drives Process in a plain closed loop; the batched arms keep `batch`
  // transactions in flight and admit one operation per transaction per
  // ProcessBatch call. Goodput (committed ops/s) is the comparison metric:
  // batching also raises the number of concurrently live transactions per
  // worker, which under high contention raises the conflict rate - a real
  // tradeoff the table reports instead of hiding.
  // -------------------------------------------------------------------
  const std::vector<size_t> batch_sizes = {1, 8, 32};
  // Every arm runs with a metrics registry attached (the deployed
  // configuration: the engine's counters are pulled at snapshot time, and
  // the sampled phase histograms are recorded per batch). Arms are
  // interleaved and the medians compared, like part 3.
  constexpr int kBatchReps = 3;
  constexpr double kBatchSecs = 0.4;
  double perop_goodput_low = 0, batch8_goodput_low = 0;
  for (uint32_t items : {kLowContentionItems, kHighContentionItems}) {
    std::printf(
        "--- batched admission: %u items, k=3, 1 thread, "
        "median of %d x %.1fs ---\n",
        items, kBatchReps, kBatchSecs);
    TablePrinter table({"mode", "goodput Mops", "accepted Mops",
                        "abort rate"});
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = 32;
    eo.starvation_fix = true;
    eo.compact_every = std::max<uint64_t>(1024, items / 2);
    const Workload w = MakeWorkload(1, items, kOpsPerTxn, kReadFraction, 42);

    // Arm 0 is the per-op closed loop; arm 1 + b is batch_sizes[b].
    const size_t n_arms = 1 + batch_sizes.size();
    std::vector<std::vector<double>> gp(n_arms), ab(n_arms), mp(n_arms);
    std::vector<EngineStats> arm_stats(n_arms);
    MetricsRegistry scratch_reg;
    eo.metrics = live_sampler != nullptr ? &GlobalMetrics() : &scratch_reg;
    for (int rep = 0; rep < kBatchReps; ++rep) {
      for (size_t a = 0; a < n_arms; ++a) {
        const size_t batch = a == 0 ? 0 : batch_sizes[a - 1];
        if (rep == 0) {
          ShardedMtkEngine warm(eo);
          (void)RunClosedLoop(warm, w, 1, 0.08, batch);
        }
        ShardedMtkEngine engine(eo);
        const LoopResult r = RunClosedLoop(engine, w, 1, kBatchSecs, batch);
        arm_stats[a] = engine.stats();
        gp[a].push_back(GoodputMops(r, kOpsPerTxn));
        ab[a].push_back(r.abort_rate());
        mp[a].push_back(Mops(r));
      }
    }

    std::string cells;
    for (size_t a = 0; a < n_arms; ++a) {
      const double goodput = Median(gp[a]);
      const double abort = Median(ab[a]);
      const std::string mode =
          a == 0 ? "per-op" : "batch=" + std::to_string(batch_sizes[a - 1]);
      table.AddRow({mode, Fmt(goodput), Fmt(Median(mp[a])), Fmt(abort, 3)});
      if (a == 0) continue;
      const size_t batch = batch_sizes[a - 1];
      const EngineStats& st = arm_stats[a];
      const double avg_batch =
          st.batches > 0 ? static_cast<double>(st.batch_ops) /
                               static_cast<double>(st.batches)
                         : 0;
      if (!cells.empty()) cells += ", ";
      cells += "{\"batch\": " + JsonNum(static_cast<double>(batch)) +
               ", \"goodput_mops\": " + JsonNum(goodput) +
               ", \"abort_rate\": " + JsonNum(abort) +
               ", \"avg_batch_ops\": " + JsonNum(avg_batch) + "}";
      if (items == kLowContentionItems && batch == 8) {
        batch8_goodput_low = goodput;
      }
    }
    if (items == kLowContentionItems) perop_goodput_low = Median(gp[0]);
    std::printf("%s\n", table.ToString().c_str());
    UpsertBenchRecord(
        out_path, "mt_engine_batch_sweep_items" + std::to_string(items),
        {{"hardware_threads", JsonNum(hw)},
         {"num_shards", JsonNum(32)},
         {"k", JsonNum(3)},
         {"threads", JsonNum(1)},
         {"ops_per_txn", JsonNum(kOpsPerTxn)},
         {"ab_reps", JsonNum(kBatchReps)},
         {"metrics_attached", "true"},
         {"cells", "[{\"perop_goodput_mops\": " + JsonNum(Median(gp[0])) +
                       ", \"perop_abort_rate\": " + JsonNum(Median(ab[0])) +
                       ", \"batch\": [" + cells + "]}]"}});
  }

  // -------------------------------------------------------------------
  // Parts 3, 3b, 3f: observability overhead gates on part 2's engine cell
  // (k=3, low contention, 32 shards), tracing runtime-disabled. Each gate
  // is an arm pair that differs in one layer: 3 attaches a metrics
  // registry (collector + sampled phase histograms) to an engine without
  // one; 3b adds a Sampler ticking every 100 ms and an idle HTTP exporter
  // to that registry; 3f adds a FlightRecorder and 1-in-64 phase
  // attribution to a registry-attached engine whose attribution is off
  // (shift 63). Adjacent A/B pairs, order flipped per pair, median of
  // per-pair deltas (MeasurePairs, common/bench_clock.h), so drift and
  // interference bursts hit both arms alike. Each record also carries the
  // quartiles of the per-pair deltas. A gate over its bar fails the run
  // once every record is written.
  // -------------------------------------------------------------------
  const size_t obs_threads = hw >= 4 ? 4 : 1;
  EngineOptions obs_eo;
  obs_eo.k = 3;
  obs_eo.num_shards = 32;
  obs_eo.starvation_fix = true;
  obs_eo.compact_every = std::max<uint64_t>(1024, kLowContentionItems / 2);
  const Workload obs_w = MakeWorkload(obs_threads, kLowContentionItems,
                                      kOpsPerTxn, kReadFraction, 42);
  constexpr int kObsPairs = 9;
  // Arm length: interference bursts on shared hosts run for a few hundred
  // ms, so 0.3 s arms land entirely inside or outside a burst (+-8% per
  // arm); 1 s arms integrate over it.
  constexpr double kObsArmSecs = 1.0;
  constexpr uint64_t kLiveSampleMs = 100;
  auto obs_arm = [&](const EngineOptions& eo) {
    ShardedMtkEngine engine(eo);
    return Mops(RunClosedLoop(engine, obs_w, obs_threads, kObsArmSecs));
  };
  auto registry_arm = [&](uint32_t phase_sample_shift,
                          FlightRecorder* flight) {
    MetricsRegistry reg;
    EngineOptions eo = obs_eo;
    eo.metrics = &reg;
    eo.phase_sample_shift = phase_sample_shift;
    eo.flight = flight;
    return obs_arm(eo);
  };
  const std::vector<OverheadGate> gates = {
      {"mt_throughput_obs_overhead", "obs_overhead_pct",
       "metrics registry attached", 3.0, [&] { return obs_arm(obs_eo); },
       [&] { return registry_arm(6, nullptr); }},
      {"mt_throughput_live_obs_overhead", "live_obs_overhead_pct",
       "sampler @100ms + idle exporter", 2.0,
       [&] { return registry_arm(6, nullptr); },
       [&] {
         MetricsRegistry reg;
         EngineOptions eo = obs_eo;
         eo.metrics = &reg;
         SamplerOptions so;
         so.registry = &reg;
         so.interval_ms = kLiveSampleMs;
         Sampler sampler(so);
         StarvationWatchdogOptions wo;
         wo.source_gauge = "engine.max_consecutive_aborts";
         sampler.AddStarvationWatchdog(wo);
         sampler.Start();
         HttpExporterOptions ho;
         ho.registry = &reg;
         ho.sampler = &sampler;
         ho.port = 0;  // Ephemeral; idle listener, worst case for the bench.
         HttpExporter exporter(ho);
         const bool serving = exporter.Start();
         const double m = obs_arm(eo);
         if (serving) exporter.Stop();
         sampler.Stop();
         return m;
       }},
      {"mt_throughput_flight_obs_overhead", "flight_obs_overhead_pct",
       "flight recorder + 1-in-64 phase attribution", 3.0,
       [&] { return registry_arm(63, nullptr); },
       [&] {
         FlightRecorderOptions fro;
         fro.rings = 4;
         fro.capacity = 256;
         fro.k = 3;
         FlightRecorder flight(fro);
         return registry_arm(6, &flight);
       }},
  };
  {
    ShardedMtkEngine warm(obs_eo);
    (void)RunClosedLoop(warm, obs_w, obs_threads, 0.1);
  }
  std::vector<double> gate_pct;  // Per gate, in table order.
  for (const OverheadGate& g : gates) {
    const PairedAb ab = MeasurePairs(kObsPairs, g.baseline, g.instrumented);
    std::printf(
        "--- overhead of %s: k=3, %u items, %zu threads ---\n"
        "baseline %.2f Mops; instrumented %.2f Mops; overhead %.2f%% "
        "(pair quartiles %.2f%% .. %.2f%%; bar: < %.0f%%)%s\n\n",
        g.title, kLowContentionItems, obs_threads, ab.med_a, ab.med_b,
        ab.delta_pct, ab.delta_q1_pct, ab.delta_q3_pct, g.bar_pct,
        ab.delta_pct < g.bar_pct ? "" : "  [ABOVE BAR]");
    UpsertBenchRecord(
        out_path, g.record,
        {{"hardware_threads", JsonNum(hw)},
         {"threads", JsonNum(static_cast<double>(obs_threads))},
         {"ab_pairs", JsonNum(kObsPairs)},
         {"ab_arm_seconds", JsonNum(kObsArmSecs)},
         {"baseline_mops", JsonNum(ab.med_a)},
         {"instrumented_mops", JsonNum(ab.med_b)},
         {g.field, JsonNum(ab.delta_pct)},
         {"overhead_q1_pct", JsonNum(ab.delta_q1_pct)},
         {"overhead_q3_pct", JsonNum(ab.delta_q3_pct)},
         {"bar_pct", JsonNum(g.bar_pct)},
         {"trace_compiled", MDTS_TRACE_COMPILED ? "true" : "false"}});
    gate_pct.push_back(ab.delta_pct);
  }

  // -------------------------------------------------------------------
  // Part 4: multiversion vs single-version admission, threads x
  // contention x k x batch. Both arms run the same engine configuration
  // (32 shards, starvation fix, periodic compaction - for the MV arm the
  // sweep is also what refreshes the GC watermark); the only difference
  // is EngineOptions::multiversion. The interesting cell is high
  // contention, where SV aborts every read/write conflict and MV serves
  // reads from older versions instead.
  // -------------------------------------------------------------------
  std::printf("\n--- part 4: multiversion vs single-version engine ---\n");
  const size_t mv_threads_hi = hw >= 4 ? 4 : hw >= 2 ? 2 : 1;
  double acc_sv_abort = 0, acc_mv_abort = 0, acc_sv_goodput = 0,
         acc_mv_goodput = 0;
  uint64_t acc_mv_read_rejects = 0, acc_mv_live_versions = 0,
           acc_mv_installed = 0;
  for (uint32_t items : {kHighContentionItems, uint32_t{4096}}) {
    TablePrinter mv_table({"threads", "k", "batch", "SV good Mops",
                           "MV good Mops", "MV/SV", "SV abort", "MV abort",
                           "MV read rej", "MV live vers"});
    std::string cells;
    std::vector<size_t> mv_thread_levels{1};
    if (mv_threads_hi > 1) mv_thread_levels.push_back(mv_threads_hi);
    for (size_t threads : mv_thread_levels) {
      for (size_t k : {size_t{3}, size_t{5}}) {
        for (size_t batch : {size_t{1}, size_t{8}}) {
          const Workload w = MakeWorkload(threads, items, kOpsPerTxn,
                                          kReadFraction, 42);
          EngineOptions eo;
          eo.k = k;
          eo.num_shards = 32;
          eo.starvation_fix = true;
          eo.compact_every = 256;
          // A/B interleaved: SV then MV per rep, medians compared.
          constexpr int kMvReps = 3;
          std::vector<double> sv_gp, mv_gp, sv_ab, mv_ab;
          EngineStats sv_st, mv_st;
          for (int rep = 0; rep < kMvReps; ++rep) {
            for (const bool mv : {false, true}) {
              eo.multiversion = mv;
              ShardedMtkEngine engine(eo);
              const LoopResult r = RunClosedLoop(engine, w, threads, 0.3,
                                                 batch == 1 ? 0 : batch);
              (mv ? mv_st : sv_st) = engine.stats();
              (mv ? mv_gp : sv_gp).push_back(GoodputMops(r, kOpsPerTxn));
              (mv ? mv_ab : sv_ab).push_back(r.abort_rate());
            }
          }
          const double svg = Median(sv_gp), mvg = Median(mv_gp);
          const double sva = Median(sv_ab), mva = Median(mv_ab);
          mv_table.AddRow(
              {std::to_string(threads), std::to_string(k),
               std::to_string(batch), Fmt(svg), Fmt(mvg),
               Fmt(svg > 0 ? mvg / svg : 0), Fmt(sva, 3), Fmt(mva, 3),
               std::to_string(mv_st.read_rejects),
               std::to_string(mv_st.live_versions)});
          if (!cells.empty()) cells += ", ";
          cells += "{\"threads\": " + JsonNum(static_cast<double>(threads)) +
                   ", \"k\": " + JsonNum(static_cast<double>(k)) +
                   ", \"batch\": " + JsonNum(static_cast<double>(batch)) +
                   ", \"sv_goodput_mops\": " + JsonNum(svg) +
                   ", \"mv_goodput_mops\": " + JsonNum(mvg) +
                   ", \"sv_abort_rate\": " + JsonNum(sva) +
                   ", \"mv_abort_rate\": " + JsonNum(mva) +
                   ", \"mv_read_rejects\": " +
                   JsonNum(static_cast<double>(mv_st.read_rejects)) +
                   ", \"mv_old_version_reads\": " +
                   JsonNum(static_cast<double>(mv_st.old_version_reads)) +
                   ", \"mv_versions_installed\": " +
                   JsonNum(static_cast<double>(mv_st.versions_installed)) +
                   ", \"mv_versions_gc\": " +
                   JsonNum(static_cast<double>(mv_st.versions_gc)) +
                   ", \"mv_live_versions\": " +
                   JsonNum(static_cast<double>(mv_st.live_versions)) + "}";
          // The acceptance cell: high contention, k=3, batched, all
          // hardware threads.
          if (items == kHighContentionItems && k == 3 && batch == 8 &&
              threads == mv_threads_hi) {
            acc_sv_abort = sva;
            acc_mv_abort = mva;
            acc_sv_goodput = svg;
            acc_mv_goodput = mvg;
            acc_mv_read_rejects = mv_st.read_rejects;
            acc_mv_live_versions = mv_st.live_versions;
            acc_mv_installed = mv_st.versions_installed;
          }
        }
      }
    }
    std::printf("items = %u:\n%s\n", items, mv_table.ToString().c_str());
    UpsertBenchRecord(out_path,
                      "mt_engine_mv_sweep_items" + std::to_string(items),
                      {{"hardware_threads", JsonNum(hw)},
                       {"num_shards", JsonNum(32)},
                       {"ops_per_txn", JsonNum(kOpsPerTxn)},
                       {"read_fraction", JsonNum(kReadFraction)},
                       {"compact_every", JsonNum(256)},
                       {"ab_reps", JsonNum(3)},
                       {"cells", "[" + cells + "]"}});
  }
  std::printf(
      "MV acceptance cell (items=%u, k=3, batch=8, %zu threads): abort "
      "%.3f -> %.3f, goodput %.2f -> %.2f Mops (%.2fx), %llu read rejects, "
      "%llu live versions (of %llu installed)\n",
      kHighContentionItems, mv_threads_hi, acc_sv_abort, acc_mv_abort,
      acc_sv_goodput, acc_mv_goodput,
      acc_sv_goodput > 0 ? acc_mv_goodput / acc_sv_goodput : 0,
      static_cast<unsigned long long>(acc_mv_read_rejects),
      static_cast<unsigned long long>(acc_mv_live_versions),
      static_cast<unsigned long long>(acc_mv_installed));
  UpsertBenchRecord(
      out_path, "mt_engine_mv_acceptance",
      {{"hardware_threads", JsonNum(hw)},
       {"items", JsonNum(kHighContentionItems)},
       {"k", JsonNum(3)},
       {"batch", JsonNum(8)},
       {"threads", JsonNum(static_cast<double>(mv_threads_hi))},
       {"sv_abort_rate", JsonNum(acc_sv_abort)},
       {"mv_abort_rate", JsonNum(acc_mv_abort)},
       {"sv_goodput_mops", JsonNum(acc_sv_goodput)},
       {"mv_goodput_mops", JsonNum(acc_mv_goodput)},
       {"mv_over_sv_goodput",
        JsonNum(acc_sv_goodput > 0 ? acc_mv_goodput / acc_sv_goodput : 0)},
       {"mv_read_rejects", JsonNum(static_cast<double>(acc_mv_read_rejects))},
       {"mv_live_versions",
        JsonNum(static_cast<double>(acc_mv_live_versions))},
       {"mv_versions_installed",
        JsonNum(static_cast<double>(acc_mv_installed))}});

  // -------------------------------------------------------------------
  // Part 4 work cell: does MV pay for itself once transactions stay open?
  // A client-side spin after every accepted op stands in for application
  // work; the longer a transaction runs, the more of its reads meet a
  // peer's newer write, which SV answers with an abort and MV with an
  // older version. Same engine configuration as the sweep above (k=3,
  // per-op admission, all hardware threads up to 4). SV and MV run in
  // adjacent pairs, order flipped per pair, and MV/SV is the median of
  // the per-pair ratios (MeasurePairs), so drift and interference
  // bursts hit both arms alike.
  // -------------------------------------------------------------------
  {
    constexpr int kWorkPairs = 7;
    constexpr double kWorkArmSecs = 0.5;
    const Workload w = MakeWorkload(mv_threads_hi, kHighContentionItems,
                                    kOpsPerTxn, kReadFraction, 42);
    EngineOptions eo;
    eo.k = 3;
    eo.num_shards = 32;
    eo.starvation_fix = true;
    eo.compact_every = 256;
    TablePrinter work_table({"work us", "SV good Mops", "MV good Mops",
                             "MV/SV", "SV abort", "MV abort",
                             "MV read rej"});
    std::string cells;
    for (const uint64_t work_us : {uint64_t{0}, uint64_t{50}}) {
      std::vector<double> sv_ab, mv_ab;
      uint64_t mv_read_rejects = 0;
      auto arm = [&](bool mv, std::vector<double>& aborts) {
        eo.multiversion = mv;
        ShardedMtkEngine engine(eo);
        const LoopResult r = RunClosedLoop(engine, w, mv_threads_hi,
                                           kWorkArmSecs, 0, work_us * 1000);
        aborts.push_back(r.abort_rate());
        if (mv) mv_read_rejects += engine.stats().read_rejects;
        return GoodputMops(r, kOpsPerTxn);
      };
      const PairedAb ab =
          MeasurePairs(kWorkPairs, [&] { return arm(false, sv_ab); },
                       [&] { return arm(true, mv_ab); });
      const double ratio = 1.0 - ab.delta_pct / 100.0;
      const double sva = Median(sv_ab), mva = Median(mv_ab);
      work_table.AddRow({std::to_string(work_us), Fmt(ab.med_a, 4),
                         Fmt(ab.med_b, 4), Fmt(ratio), Fmt(sva, 3),
                         Fmt(mva, 3), std::to_string(mv_read_rejects)});
      if (!cells.empty()) cells += ", ";
      cells += "{\"work_us\": " + JsonNum(static_cast<double>(work_us)) +
               ", \"sv_goodput_mops\": " + JsonNum(ab.med_a) +
               ", \"mv_goodput_mops\": " + JsonNum(ab.med_b) +
               ", \"mv_over_sv_goodput\": " + JsonNum(ratio) +
               ", \"sv_abort_rate\": " + JsonNum(sva) +
               ", \"mv_abort_rate\": " + JsonNum(mva) +
               ", \"mv_read_rejects\": " +
               JsonNum(static_cast<double>(mv_read_rejects)) + "}";
    }
    std::printf("per-op work (items=%u, k=3, batch=1, %zu threads):\n%s\n",
                kHighContentionItems, mv_threads_hi,
                work_table.ToString().c_str());
    UpsertBenchRecord(
        out_path, "mt_engine_mv_work_items64",
        {{"hardware_threads", JsonNum(hw)},
         {"threads", JsonNum(static_cast<double>(mv_threads_hi))},
         {"items", JsonNum(kHighContentionItems)},
         {"k", JsonNum(3)},
         {"batch", JsonNum(1)},
         {"num_shards", JsonNum(32)},
         {"ops_per_txn", JsonNum(kOpsPerTxn)},
         {"read_fraction", JsonNum(kReadFraction)},
         {"compact_every", JsonNum(256)},
         {"ab_pairs", JsonNum(kWorkPairs)},
         {"ab_arm_seconds", JsonNum(kWorkArmSecs)},
         {"cells", "[" + cells + "]"}});
  }

  // -------------------------------------------------------------------
  // Part 5: adaptive admission across a contention phase change. One
  // engine lives through low -> high -> low contention; three arms run
  // the identical schedule: the adaptive arm (AdmissionController driving
  // batch size and MT(k+) width off a manually ticked Sampler, with the
  // starvation watchdog's alert wired to EmergencyShrink) against static
  // batch=32 (the low-contention champion that livelocks at items=64)
  // and static batch=1 (the high-contention safe harbor that forfeits
  // the batching win). Acceptance bars: the adaptive arm must escape the
  // high-phase livelock without hand tuning - >= 0.5x the best static
  // goodput there at an abort rate < 0.6 - while retaining >= 80% of the
  // batch=32 gain over batch=1 across the two low phases.
  // -------------------------------------------------------------------
  std::printf(
      "\n--- part 5: adaptive admission across a contention phase change "
      "---\n");
  constexpr double kPhaseSecs = 1.0;
  constexpr double kTickSecs = 0.02;  // 50 controller windows per second.
  constexpr size_t kAdaptiveMaxBatch = AdmissionController::kMaxBatch;
  const Workload w_ad_low =
      MakeWorkload(1, kLowContentionItems, kOpsPerTxn, kReadFraction, 42);
  const Workload w_ad_high =
      MakeWorkload(1, kHighContentionItems, kOpsPerTxn, kReadFraction, 42);

  struct AdaptiveArm {
    LoopResult low1, high, low2;
    uint64_t grows = 0, shrinks = 0, k_switches = 0, alerts = 0;
    double react_high_s = -1.0;  // High-phase start -> first shrink.
    double react_low_s = -1.0;   // Recovery-phase start -> first grow.
    uint32_t batch_end_high = 0, batch_end_low = 0;
    uint32_t k_end_high = 0, k_end_low = 0;
    std::string trace;  // Full decision trace (adaptive arm only).
  };
  auto run_adaptive_arm = [&](bool adaptive, size_t static_batch) {
    AdaptiveArm arm;
    MetricsRegistry areg;
    EngineOptions aeo;
    aeo.k = 5;  // Physical width; the adaptive arm starts at active_k=3.
    aeo.num_shards = 32;
    aeo.starvation_fix = true;
    aeo.compact_every = 4096;
    aeo.metrics = &areg;
    ShardedMtkEngine engine(aeo);
    std::unique_ptr<Sampler> sampler;
    std::unique_ptr<AdmissionController> ctl;
    if (adaptive) {
      engine.SetActiveK(3);  // Headroom for the MT(k+) widener (3..5).
      SamplerOptions so;
      so.registry = &areg;
      sampler = std::make_unique<Sampler>(so);
      AdmissionControlOptions ao;
      ao.registry = &areg;
      ao.engine = &engine;
      ao.min_k = 3;
      // Calibrate the abort-rate bands to this engine's closed-loop driver:
      // restart-and-replay keeps the healthy low-contention op reject rate
      // near 0.47-0.50 (part 2b), while the batch=32 hot-set collapse sits
      // at 0.90+. The stock 0.5/0.2 bands straddle the healthy baseline and
      // would shrink on noise; 0.70/0.55 puts the baseline inside the quiet
      // band and the collapse alone inside the shrink band.
      ao.abort_rate_shrink = 0.70;
      ao.abort_rate_quiet = 0.55;
      ctl = std::make_unique<AdmissionController>(ao);
      AdmissionController* c = ctl.get();
      StarvationWatchdogOptions wo;
      wo.source_gauge = "engine.max_consecutive_aborts";
      wo.on_alert = [c](const WatchdogAlert& a) {
        c->EmergencyShrink(a.last_seq, a.last_time);
      };
      sampler->AddStarvationWatchdog(wo);
      sampler->AddTickHook(
          [c](uint64_t seq, double now) { c->TickOnce(seq, now); });
    }
    // One worker (t=0, stride 1): the experiment isolates the
    // controller's reaction, not thread scaling. The static arms run the
    // same loop at a constant width, so all three pay identical loop
    // costs. The sampler ticks on the phase clock, so the decision trace
    // lines up with the phase boundaries measured on it.
    const size_t max_width = adaptive ? kAdaptiveMaxBatch : static_batch;
    auto width = [&]() -> size_t {
      return ctl != nullptr ? ctl->batch_size() : static_batch;
    };
    Stopwatch phase_clock;
    uint64_t next_n = 0;  // The engine survives the phase changes.
    double phase_start[3] = {};
    LoopResult* phase_result[3] = {&arm.low1, &arm.high, &arm.low2};
    for (int p = 0; p < 3; ++p) {
      phase_start[p] = phase_clock.ElapsedSeconds();
      double next_tick = kTickSecs;
      auto tick = [&](double phase_t) {
        if (sampler == nullptr || phase_t < next_tick) return;
        sampler->TickOnce(phase_clock.ElapsedSeconds());
        next_tick += kTickSecs;
      };
      *phase_result[p] =
          BatchedLoop(engine, p == 1 ? w_ad_high : w_ad_low, 0, 1, max_width,
                      width, tick, next_n, kPhaseSecs);
      if (p == 1 && ctl != nullptr) {
        arm.batch_end_high = ctl->batch_size();
        arm.k_end_high = ctl->active_k();
      }
    }
    const double high_start = phase_start[1];
    const double low2_start = phase_start[2];
    if (ctl != nullptr) {
      arm.batch_end_low = ctl->batch_size();
      arm.k_end_low = ctl->active_k();
      arm.grows = ctl->grows();
      arm.shrinks = ctl->shrinks();
      arm.k_switches = ctl->k_switches();
      arm.alerts = sampler->alerts().size();
      arm.trace = ctl->TraceString();
      for (const AdmissionDecision& d : ctl->decisions()) {
        if (arm.react_high_s < 0 && d.time >= high_start &&
            (d.action == AdmissionAction::kShrink ||
             d.action == AdmissionAction::kEmergencyShrink)) {
          arm.react_high_s = d.time - high_start;
        }
        if (arm.react_low_s < 0 && d.time >= low2_start &&
            d.action == AdmissionAction::kGrow) {
          arm.react_low_s = d.time - low2_start;
        }
      }
    }
    return arm;
  };
  // A/B/C interleaved, medians over kAdReps full schedules: 1-second
  // phases on a shared container are individually noisy, and the
  // acceptance ratios divide two of them.
  constexpr int kAdReps = 3;
  std::vector<AdaptiveArm> reps_ad, reps_b32, reps_b1;
  for (int rep = 0; rep < kAdReps; ++rep) {
    reps_ad.push_back(run_adaptive_arm(true, 0));
    reps_b32.push_back(run_adaptive_arm(false, kAdaptiveMaxBatch));
    reps_b1.push_back(run_adaptive_arm(false, 1));
  }
  const AdaptiveArm& arm_adapt = reps_ad[0];  // Controller narrative.
  auto med_of = [&](const std::vector<AdaptiveArm>& v, auto metric) {
    std::vector<double> xs;
    xs.reserve(v.size());
    for (const AdaptiveArm& a : v) xs.push_back(metric(a));
    return Median(std::move(xs));
  };
  auto low_goodput = [&](const AdaptiveArm& a) {
    const double secs = a.low1.seconds + a.low2.seconds;
    return secs > 0 ? static_cast<double>(a.low1.committed +
                                          a.low2.committed) *
                          kOpsPerTxn / secs / 1e6
                    : 0.0;
  };
  auto high_gp = [&](const AdaptiveArm& a) {
    return GoodputMops(a.high, kOpsPerTxn);
  };
  auto low1_gp = [&](const AdaptiveArm& a) {
    return GoodputMops(a.low1, kOpsPerTxn);
  };
  auto low2_gp = [&](const AdaptiveArm& a) {
    return GoodputMops(a.low2, kOpsPerTxn);
  };
  auto high_ab = [&](const AdaptiveArm& a) { return a.high.abort_rate(); };
  const double ad_high = med_of(reps_ad, high_gp);
  const double b32_high = med_of(reps_b32, high_gp);
  const double b1_high = med_of(reps_b1, high_gp);
  const double ad_high_abort = med_of(reps_ad, high_ab);
  const double best_static_high = std::max(b32_high, b1_high);
  const double ad_low = med_of(reps_ad, low_goodput);
  const double b32_low = med_of(reps_b32, low_goodput);
  const double b1_low = med_of(reps_b1, low_goodput);
  // Share of the static batching win the adaptive arm keeps across the
  // low phases; when batch=32 is not actually ahead of batch=1 on this
  // machine the gain is vacuous and retention reports 1.
  const double batch_gain = b32_low - b1_low;
  const double retained =
      batch_gain > 0 ? (ad_low - b1_low) / batch_gain : 1.0;
  const double high_ratio =
      best_static_high > 0 ? ad_high / best_static_high : 0.0;

  TablePrinter ad_table({"arm", "low1 good Mops", "high good Mops",
                         "low2 good Mops", "high abort", "grows", "shrinks",
                         "kSw"});
  auto ad_row = [&](const char* name, const std::vector<AdaptiveArm>& v,
                    bool ctl_arm) {
    const AdaptiveArm& a0 = v[0];
    ad_table.AddRow({name, Fmt(med_of(v, low1_gp)), Fmt(med_of(v, high_gp)),
                     Fmt(med_of(v, low2_gp)), Fmt(med_of(v, high_ab), 3),
                     ctl_arm ? std::to_string(a0.grows) : "-",
                     ctl_arm ? std::to_string(a0.shrinks) : "-",
                     ctl_arm ? std::to_string(a0.k_switches) : "-"});
  };
  ad_row("adaptive", reps_ad, true);
  ad_row("batch=32", reps_b32, false);
  ad_row("batch=1", reps_b1, false);
  std::printf("%s\n", ad_table.ToString().c_str());
  std::printf("adaptive decision trace (rep 0):\n%s",
              arm_adapt.trace.c_str());
  std::printf(
      "adaptive reaction: first shrink %.0f ms into the high phase (ends "
      "it at batch %u, k %u); first grow %.0f ms into the recovery phase "
      "(ends the run at batch %u, k %u); %llu watchdog alert(s)\n",
      arm_adapt.react_high_s * 1e3, arm_adapt.batch_end_high,
      arm_adapt.k_end_high, arm_adapt.react_low_s * 1e3,
      arm_adapt.batch_end_low, arm_adapt.k_end_low,
      static_cast<unsigned long long>(arm_adapt.alerts));
  std::printf(
      "acceptance: high-phase adaptive/best-static %.2f (bar >= 0.5, "
      "abort %.3f < 0.6), low-phase batch-win retention %.2f (bar >= "
      "0.8)\n",
      high_ratio, ad_high_abort, retained);

  UpsertBenchRecord(
      out_path, "mt_engine_adaptive_phase_change",
      {{"hardware_threads", JsonNum(hw)},
       {"phase_seconds", JsonNum(kPhaseSecs)},
       {"tick_seconds", JsonNum(kTickSecs)},
       {"items_low", JsonNum(kLowContentionItems)},
       {"items_high", JsonNum(kHighContentionItems)},
       {"max_batch", JsonNum(kAdaptiveMaxBatch)},
       {"physical_k", JsonNum(5)},
       {"initial_active_k", JsonNum(3)},
       {"ab_reps", JsonNum(kAdReps)},
       {"adaptive_low1_goodput_mops", JsonNum(med_of(reps_ad, low1_gp))},
       {"adaptive_high_goodput_mops", JsonNum(ad_high)},
       {"adaptive_low2_goodput_mops", JsonNum(med_of(reps_ad, low2_gp))},
       {"adaptive_high_abort_rate", JsonNum(ad_high_abort)},
       {"static32_high_goodput_mops", JsonNum(b32_high)},
       {"static32_high_abort_rate", JsonNum(med_of(reps_b32, high_ab))},
       {"static1_high_goodput_mops", JsonNum(b1_high)},
       {"adaptive_low_goodput_mops", JsonNum(ad_low)},
       {"static32_low_goodput_mops", JsonNum(b32_low)},
       {"static1_low_goodput_mops", JsonNum(b1_low)},
       {"grows", JsonNum(static_cast<double>(arm_adapt.grows))},
       {"shrinks", JsonNum(static_cast<double>(arm_adapt.shrinks))},
       {"k_switches", JsonNum(static_cast<double>(arm_adapt.k_switches))},
       {"watchdog_alerts", JsonNum(static_cast<double>(arm_adapt.alerts))},
       {"react_high_seconds", JsonNum(arm_adapt.react_high_s)},
       {"react_recovery_seconds", JsonNum(arm_adapt.react_low_s)},
       {"batch_end_of_high_phase",
        JsonNum(static_cast<double>(arm_adapt.batch_end_high))},
       {"batch_end_of_run",
        JsonNum(static_cast<double>(arm_adapt.batch_end_low))},
       {"k_end_of_high_phase",
        JsonNum(static_cast<double>(arm_adapt.k_end_high))},
       {"k_end_of_run",
        JsonNum(static_cast<double>(arm_adapt.k_end_low))}});
  UpsertBenchRecord(
      out_path, "mt_engine_adaptive_acceptance",
      {{"hardware_threads", JsonNum(hw)},
       {"high_phase_adaptive_over_best_static", JsonNum(high_ratio)},
       {"high_phase_adaptive_abort_rate", JsonNum(ad_high_abort)},
       {"low_phase_batch_win_retained", JsonNum(retained)},
       {"low_phase_batch_gain_mops", JsonNum(batch_gain)}});

  std::vector<std::pair<std::string, std::string>> acceptance = {
      {"hardware_threads", JsonNum(hw)},
      {"scaling_4t_over_1t_low_contention_k3", JsonNum(scaling_4t)},
      {"note",
       JsonStr(hw >= 4 ? "thread counts within hardware parallelism"
                       : "hardware threads < 4: scaling ratio reflects "
                         "timeslicing, not parallel speedup")},
      {"batch8_over_perop_goodput_low_contention",
       JsonNum(perop_goodput_low > 0
                   ? batch8_goodput_low / perop_goodput_low
                   : 0)}};
  for (size_t i = 0; i < gates.size(); ++i) {
    acceptance.emplace_back(gates[i].field, JsonNum(gate_pct[i]));
  }
  UpsertBenchRecord(out_path, "mt_throughput_acceptance", acceptance);

  std::printf(
      "single-thread (k=3, low contention): %.2f Mops sched, %.2f Mops "
      "engine x1\n",
      sched_low_mops, engine_low_mops);
  std::printf("engine scaling 4t/1t (low contention, k=3): %.2fx%s\n",
              scaling_4t,
              hw < 4 ? "  [hardware threads < 4: timeslicing, not a "
                       "parallel speedup measurement]"
                     : "");
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
  for (size_t i = 0; i < gates.size(); ++i) {
    if (gate_pct[i] < gates[i].bar_pct) continue;
    std::fprintf(stderr,
                 "GATE FAILED: %s = %.2f%% (bar: < %.0f%%) at %zu threads\n",
                 gates[i].field, gate_pct[i], gates[i].bar_pct, obs_threads);
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
