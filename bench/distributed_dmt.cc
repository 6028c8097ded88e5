// Section V-B experiment: the decentralized protocol DMT(k).
// Measures message overhead per operation, response time, and load balance
// as the number of sites grows; verifies deadlock-free completion and
// global serializability; shows the effect of periodic counter
// synchronization under unbalanced load.

#include <cstdio>
#include <memory>
#include <vector>

#include "classify/classes.h"
#include "common/bench_clock.h"
#include "common/bench_json.h"
#include "common/table_printer.h"
#include "dist/dmt_system.h"
#include "obs/dspan.h"
#include "obs/metrics.h"

namespace mdts {
namespace {

int failures = 0;

DmtOptions Base(uint64_t seed) {
  DmtOptions options;
  options.k = 3;
  options.num_txns = 150;
  options.concurrency = 10;
  options.message_latency = 0.5;
  options.seed = seed;
  options.workload.num_items = 18;
  options.workload.min_ops = 2;
  options.workload.max_ops = 4;
  options.workload.read_fraction = 0.6;
  return options;
}

// Minimum wall time of one tracing A/B arm. One 400-transaction
// simulation runs for a few tens of ms, too short to resolve a 3% bar on a
// shared host, so an arm repeats it until this much time has passed.
constexpr double kArmSecs = 0.25;

// One wall-clock measurement of the distributed simulation: transactions
// per second of real time over at least kArmSecs of repeated 400-txn
// runs, optionally with the distributed tracer (span ring + path
// collector + the dmt.path.* instruments) attached at the given
// per-transaction sampling shift. A private registry keeps the arms from
// polluting the global metrics.
double TxnsPerSec(bool traced, uint32_t sample_shift) {
  DmtOptions options = Base(13);
  options.num_sites = 4;
  options.num_txns = 400;
  options.concurrency = 12;
  MetricsRegistry registry;
  options.metrics = &registry;
  std::unique_ptr<SpanRing> spans;
  std::unique_ptr<PathCollector> paths;
  if (traced) {
    SpanRingOptions sro;
    sro.rings = 4;
    sro.capacity = 1024;
    spans = std::make_unique<SpanRing>(sro);
    paths = std::make_unique<PathCollector>(16);
    options.spans = spans.get();
    options.paths = paths.get();
    options.trace_sample_shift = sample_shift;
  }
  Stopwatch sw;
  uint64_t txns = 0;
  do {
    const DmtResult r = RunDmtSimulation(options);
    if (r.committed + r.gave_up != options.num_txns) ++failures;
    txns += options.num_txns;
  } while (sw.ElapsedSeconds() < kArmSecs);
  return static_cast<double>(txns) / sw.ElapsedSeconds();
}

int Run(const char* out_path) {
  std::printf("=== DMT(k): decentralized concurrency control ===\n\n");

  TablePrinter table({"sites", "committed", "aborts", "max consec aborts",
                      "messages", "msgs/op", "lock waits", "avg response",
                      "DSR audit"});
  for (uint32_t sites : {1u, 2u, 4u, 8u}) {
    DmtOptions options = Base(5);
    options.num_sites = sites;
    DmtResult r = RunDmtSimulation(options);
    const bool dsr = IsDsr(r.committed_history);
    if (!dsr || r.committed + r.gave_up != options.num_txns) ++failures;
    table.AddRow({std::to_string(sites), std::to_string(r.committed),
                  std::to_string(r.aborts),
                  std::to_string(r.max_consecutive_aborts),
                  std::to_string(r.messages_sent),
                  FormatDouble(r.ops_scheduled
                                   ? static_cast<double>(r.messages_sent) /
                                         static_cast<double>(r.ops_scheduled)
                                   : 0.0,
                               2),
                  std::to_string(r.lock_waits),
                  FormatDouble(r.avg_response_time, 2),
                  dsr ? "ok" : "FAILED"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("[%s] every configuration completed deadlock-free with a\n"
              "     serializable global history\n\n",
              failures == 0 ? "ok" : "REPRODUCTION FAILURE");

  std::printf("--- message overhead is bounded per operation ---\n");
  std::printf("Each operation locks the item and up to 3 vectors (a\n"
              "write also those of the item's live line-10 readers), each\n"
              "costing at most 3 messages: request, grant with value,\n"
              "combined write-back/release - the paper's \"message\n"
              "overhead proportionate to the size of the vector\".\n\n");

  std::printf("--- counter synchronization (unbalanced load) ---\n");
  TablePrinter sync({"sync interval", "committed", "aborts", "messages"});
  for (double interval : {0.0, 20.0, 5.0}) {
    DmtOptions options = Base(7);
    options.num_sites = 4;
    options.workload.zipf_theta = 1.2;  // Skewed items -> skewed sites.
    options.workload.distinct_items_per_txn = false;
    options.counter_sync_interval = interval;
    DmtResult r = RunDmtSimulation(options);
    if (!IsDsr(r.committed_history)) ++failures;
    sync.AddRow({interval == 0.0 ? "none" : FormatDouble(interval, 0),
                 std::to_string(r.committed), std::to_string(r.aborts),
                 std::to_string(r.messages_sent)});
  }
  std::printf("%s\n", sync.ToString().c_str());

  std::printf("--- load balance across sites (4 sites) ---\n");
  DmtOptions options = Base(11);
  options.num_sites = 4;
  DmtResult r = RunDmtSimulation(options);
  TablePrinter load({"site", "operations scheduled"});
  for (uint32_t s = 0; s < 4; ++s) {
    load.AddRow({std::to_string(s), std::to_string(r.ops_per_site[s])});
  }
  std::printf("%s\n", load.ToString().c_str());

  // Distributed tracing overhead, A/B. The gated configuration samples 1
  // in 64 transactions (trace_sample_shift = 6) - the flight-recorder
  // discipline: the always-on production setting must stay under the
  // established < 3% bar, and a breach fails the run once the record is
  // written. Full fidelity (shift 0, what fault_sweep and
  // the tests run: every transaction traced, exact per-txn
  // reconciliation) is measured the same way and recorded honestly - on
  // this time-compressed simulator an event costs ~100ns of wall clock,
  // so tracing every one of the ~100 spans a transaction produces is a
  // significant fraction of the run, not a rounding error.
  // Rotated rounds (MeasureRounds, common/bench_clock.h): every arm is
  // measured against the untraced one. The null arm is untraced too, so
  // its quartiles are the noise floor the gate reading sits in.
  std::printf("--- distributed tracing overhead (rotated rounds) ---\n");
  constexpr int kRounds = 9;
  const std::vector<RoundsArm> arms =
      MeasureRounds(kRounds, {-1, 0, 0, 0}, [](size_t arm) {
        return arm == 1   ? TxnsPerSec(true, 6)
               : arm == 2 ? TxnsPerSec(true, 0)
                          : TxnsPerSec(false, 0);
      });
  const RoundsArm& untraced = arms[0];
  const RoundsArm& sampled = arms[1];
  const RoundsArm& full = arms[2];
  const RoundsArm& null_arm = arms[3];
  std::printf(
      "untraced %.0f txns/s; sampled 1/64: traced %.0f txns/s, overhead "
      "%.2f%% (round quartiles %.2f%% .. %.2f%%; bar: < 3%%)\nnull "
      "(untraced vs untraced): %.2f%% (quartiles %.2f%% .. %.2f%%)\nfull "
      "fidelity: traced %.0f txns/s, overhead %.2f%% (recorded, not "
      "gated)\n[%s] the sampled tracer stays off the simulation's critical "
      "path\n\n",
      untraced.median, sampled.median, sampled.delta_pct,
      sampled.delta_q1_pct, sampled.delta_q3_pct, null_arm.delta_pct,
      null_arm.delta_q1_pct, null_arm.delta_q3_pct, full.median,
      full.delta_pct, sampled.delta_pct < 3.0 ? "ok" : "ABOVE BAR");
  UpsertBenchRecord(
      out_path, "dmt_trace_overhead",
      {{"rounds", JsonNum(kRounds)},
       {"arm_min_seconds", JsonNum(kArmSecs)},
       {"sample_shift", JsonNum(6)},
       {"untraced_txns_per_sec", JsonNum(untraced.median)},
       {"traced_txns_per_sec", JsonNum(sampled.median)},
       {"trace_overhead_pct", JsonNum(sampled.delta_pct)},
       {"trace_overhead_q1_pct", JsonNum(sampled.delta_q1_pct)},
       {"trace_overhead_q3_pct", JsonNum(sampled.delta_q3_pct)},
       {"null_overhead_pct", JsonNum(null_arm.delta_pct)},
       {"null_q1_pct", JsonNum(null_arm.delta_q1_pct)},
       {"null_q3_pct", JsonNum(null_arm.delta_q3_pct)},
       {"full_fidelity_overhead_pct", JsonNum(full.delta_pct)}});
  if (sampled.delta_pct >= 3.0) {
    std::fflush(stdout);
    std::fprintf(stderr,
                 "GATE FAILED: trace_overhead_pct = %.2f%% (bar: < 3%%)\n",
                 sampled.delta_pct);
    ++failures;
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mdts

// Usage: distributed_dmt [results.json]
// The optional argument overrides where the tracing-overhead record is
// upserted (default BENCH_core.json in the working directory).
int main(int argc, char** argv) {
  return mdts::Run(argc > 1 ? argv[1] : "BENCH_core.json");
}
