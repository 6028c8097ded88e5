// Fault injection sweep for the decentralized protocol DMT(k).
//
// The paper specifies DMT(k) over a perfect network (Section V-B); this
// bench exercises it outside the happy path: message loss x site crashes
// x vector size k. The key claim under test is that the safety property
// survives every fault mix - the committed history of every cell must
// still be DSR (Theorem 2) - while the fault-tolerance machinery
// (idempotent retries, lock leases, abort-and-retry degradation) keeps
// the system live: every run terminates and commits transactions.
//
// Exits non-zero if any cell wedges, commits nothing, or fails the audit.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classify/classes.h"
#include "common/bench_json.h"
#include "common/table_printer.h"
#include "core/types.h"
#include "dist/dmt_system.h"
#include "engine/sharded_engine.h"
#include "fault/fault.h"
#include "obs/dspan.h"
#include "obs/flight.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "wal/wal.h"
#include "workload/closed_loop.h"

namespace mdts {
namespace {

int failures = 0;

DmtOptions Base(uint64_t seed) {
  DmtOptions options;
  options.num_sites = 4;
  options.num_txns = 120;
  options.concurrency = 10;
  options.message_latency = 0.5;
  options.seed = seed;
  options.workload.num_items = 16;
  options.workload.min_ops = 2;
  options.workload.max_ops = 4;
  options.workload.read_fraction = 0.6;
  return options;
}

std::string Audit(const DmtResult& r, uint32_t expected_txns) {
  const bool terminated = r.committed + r.gave_up == expected_txns;
  const bool dsr = IsDsr(r.committed_history);
  const bool live = r.committed > 0;
  if (!terminated || !dsr || !live) {
    ++failures;
    return !terminated ? "WEDGED" : (!dsr ? "NOT DSR" : "NO COMMITS");
  }
  return "ok";
}

int Run(const char* trace_path, const char* metrics_path, int serve_port,
        double sample_interval, double hold_seconds, const char* flight_path,
        const char* paths_path) {
  // Optional distributed tracer: a per-site span ring plus a critical-path
  // collector attached to every DMT(k) cell. The collector is snapshotted
  // and cleared after each cell, so the final --paths file holds one entry
  // per cell - the input tools/critical_path.py audits - and the per-cell
  // segment shares land in BENCH_core.json as the message-count/latency
  // baseline for the replication work (ROADMAP item 4).
  std::unique_ptr<SpanRing> spans;
  std::unique_ptr<PathCollector> paths;
  std::vector<std::string> cell_dumps;
  std::string bench_cells;
  if (paths_path != nullptr) {
    SpanRingOptions sro;
    sro.rings = 4;  // One ring per site in the Base() topology.
    sro.capacity = 1024;
    spans = std::make_unique<SpanRing>(sro);
    paths = std::make_unique<PathCollector>(/*top_n=*/12);
  }
  auto capture_cell = [&](const std::string& scenario, double loss, int crash,
                          size_t k, const DmtResult& r) {
    if (paths == nullptr) return;
    cell_dumps.push_back("{\"cell\": {\"scenario\": " + JsonStr(scenario) +
                         ", \"loss\": " + JsonNum(loss) +
                         ", \"crash\": " + std::to_string(crash) +
                         ", \"k\": " + std::to_string(k) +
                         "}, \"paths\": " + paths->ToJson() + "}");
    std::string b = "{\"scenario\": " + JsonStr(scenario) +
                    ", \"loss\": " + JsonNum(loss) +
                    ", \"crash\": " + std::to_string(crash) +
                    ", \"k\": " + std::to_string(k) +
                    ", \"paths\": " + std::to_string(r.paths_extracted) +
                    ", \"total_us\": " + std::to_string(r.path_total_us) +
                    ", \"messages\": " + std::to_string(r.messages_sent) +
                    ", \"hops\": " + std::to_string(r.hops_recorded) +
                    ", \"p99_response\": " + JsonNum(r.p99_response_time) +
                    ", \"share\": {";
    for (size_t s = 0; s < kNumDistSegments; ++s) {
      if (s != 0) b += ", ";
      const double share =
          r.path_total_us > 0 ? static_cast<double>(r.path_seg_us[s]) /
                                    static_cast<double>(r.path_total_us)
                              : 0.0;
      b += std::string("\"") + DistSegmentName(static_cast<DistSegment>(s)) +
           "\": " + JsonNum(share);
    }
    b += "}}";
    // One physical line: UpsertBenchRecord stores each record as a single
    // getline()-able line, so an embedded newline here would be sheared
    // off by the next bench's upsert.
    if (!bench_cells.empty()) bench_cells += ", ";
    bench_cells += b;
    paths->Clear();  // Next cell starts from an empty collector.
  };
  // Optional flight recorder: every simulation cell and the WAL crash
  // cells' engines record their commits/aborts (with timestamp vectors)
  // into the same rings. Auto-dumped on each starvation alert and at each
  // planned WAL crash point; the final dump at the end of the sweep is the
  // file tools/flight_check.py audits.
  std::unique_ptr<FlightRecorder> flight;
  uint64_t flight_dumps = 0;
  if (flight_path != nullptr) {
    FlightRecorderOptions fo;
    fo.rings = 4;  // One ring per site in the Base() topology.
    fo.capacity = 512;
    fo.k = 4;
    flight = std::make_unique<FlightRecorder>(fo);
  }

  // Optional live telemetry. The sampler is NOT started as a thread: every
  // simulation cell ticks it on SIMULATED time (DmtOptions::sampler), so
  // the exported series and any starvation alerts are deterministic for a
  // given seed - the crash cells reliably trip the watchdog as the victim
  // site's transactions rack up consecutive down-site aborts. The HTTP
  // exporter still serves live while the sweep runs.
  std::unique_ptr<Sampler> sampler;
  std::unique_ptr<HttpExporter> exporter;
  if (serve_port >= 0) {
    SamplerOptions so;
    so.registry = &GlobalMetrics();
    so.interval_ms = static_cast<uint64_t>(sample_interval * 1000.0);
    so.capacity = 4096;  // Room for every cell's windows in one sweep.
    sampler = std::make_unique<Sampler>(so);
    StarvationWatchdogOptions wo;
    wo.source_gauge = "dmt.max_consecutive_aborts";
    if (flight != nullptr) {
      // Auto-dump the rings the moment starvation is raised: the dump
      // holds the commits/aborts leading up to the alert.
      wo.on_alert = [&flight, &flight_dumps,
                     flight_path](const WatchdogAlert&) {
        if (flight->DumpToFile(flight_path)) ++flight_dumps;
      };
    }
    sampler->AddStarvationWatchdog(wo);
    HttpExporterOptions ho;
    ho.registry = &GlobalMetrics();
    ho.sampler = sampler.get();
    ho.flight = flight.get();
    ho.paths = paths.get();
    ho.port = static_cast<uint16_t>(serve_port);
    exporter = std::make_unique<HttpExporter>(ho);
    if (!exporter->Start()) {
      std::fprintf(stderr, "failed to start exporter on port %d\n",
                   serve_port);
      return 2;
    }
    std::printf(
        "live telemetry: http://127.0.0.1:%u/metrics (also /metrics.json, "
        "/series.json, /healthz)\n"
        "  sampler ticks on simulated time, every %.1f time units\n"
        "  watch with: tools/mdtop.py --port %u\n\n",
        exporter->port(), sample_interval, exporter->port());
    std::fflush(stdout);  // The URL must be visible even when piped.
  }

  if (trace_path != nullptr) {
    // The whole sweep runs on one thread, so a single generous ring keeps
    // the tail of the simulated timeline (oldest events of a long sweep are
    // overwritten, newest survive).
    Tracer::Get().Enable(1 << 18);
    std::printf("tracing enabled; Chrome trace JSON -> %s\n", trace_path);
  }
  std::printf("=== DMT(k) fault sweep: loss x crash x k ===\n\n");
  std::printf(
      "Mechanisms under test: idempotent lock-request retries on a\n"
      "capped-exponential timeout, lock leases reclaiming locks from\n"
      "crashed or wedged coordinators, counter resynchronization on\n"
      "recovery, and abort-and-retry for transactions touching a down\n"
      "site. Safety bar: every committed history must be DSR.\n\n");

  TablePrinter table({"loss", "crash", "k", "committed", "commit rate",
                      "aborts", "retries", "leases", "dropped", "p99 resp",
                      "DSR audit"});
  TablePrinter reasons({"loss", "crash", "k", "abort reasons"});
  for (double loss : {0.0, 0.05, 0.2}) {
    for (int crash : {0, 1}) {
      for (size_t k : {2u, 3u}) {
        DmtOptions options = Base(11);
        if (sampler != nullptr) {
          options.sampler = sampler.get();
          options.sample_interval = sample_interval;
        }
        options.flight = flight.get();
        options.spans = spans.get();
        options.paths = paths.get();
        options.k = k;
        options.fault.drop_rate = loss;
        if (loss > 0) options.fault.jitter = 0.2;
        if (crash) {
          // One mid-run crash/recovery plus a second, later outage.
          options.fault.crashes.push_back({1, 60.0, 140.0});
          options.fault.crashes.push_back({3, 220.0, 260.0});
        }
        DmtResult r = RunDmtSimulation(options);
        capture_cell("grid", loss, crash, k, r);
        table.AddRow(
            {FormatDouble(loss, 2), crash ? "yes" : "no", std::to_string(k),
             std::to_string(r.committed),
             FormatDouble(static_cast<double>(r.committed) /
                              static_cast<double>(options.num_txns),
                          2),
             std::to_string(r.aborts), std::to_string(r.lock_retries),
             std::to_string(r.lease_reclaims),
             std::to_string(r.messages_dropped),
             FormatDouble(r.p99_response_time, 1),
             Audit(r, options.num_txns)});
        reasons.AddRow({FormatDouble(loss, 2), crash ? "yes" : "no",
                        std::to_string(k), r.abort_reasons.ToJson()});
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("--- abort-reason breakdown per cell ---\n%s\n",
              reasons.ToString().c_str());

  std::printf("--- stress: heavy loss, duplication, flapping site ---\n");
  TablePrinter stress({"scenario", "committed", "gave up", "retries",
                       "timeouts", "leases", "down aborts", "DSR audit"});
  struct Scenario {
    const char* name;
    FaultPlan plan;
  };
  FaultPlan heavy_loss;
  heavy_loss.drop_rate = 0.3;
  heavy_loss.jitter = 0.5;
  FaultPlan dup_storm;
  dup_storm.duplicate_rate = 0.5;
  dup_storm.jitter = 0.5;
  FaultPlan flapping;
  flapping.drop_rate = 0.1;
  flapping.crashes = {{0, 40.0, 80.0}, {2, 100.0, 130.0}, {0, 180.0, 210.0}};
  FaultPlan dead_site;
  dead_site.crashes = {{1, 50.0}};  // Never recovers.
  for (const Scenario& s : {Scenario{"30% loss + jitter", heavy_loss},
                            Scenario{"50% duplication", dup_storm},
                            Scenario{"flapping sites", flapping},
                            Scenario{"permanent site loss", dead_site}}) {
    DmtOptions options = Base(23);
    if (sampler != nullptr) {
      options.sampler = sampler.get();
      options.sample_interval = sample_interval;
    }
    options.flight = flight.get();
    options.spans = spans.get();
    options.paths = paths.get();
    options.max_attempts = 30;
    options.counter_sync_interval = 25.0;  // Exercises recovery resync.
    options.fault = s.plan;
    DmtResult r = RunDmtSimulation(options);
    capture_cell(s.name, s.plan.drop_rate, s.plan.crashes.empty() ? 0 : 1,
                 options.k, r);
    stress.AddRow({s.name, std::to_string(r.committed),
                   std::to_string(r.gave_up),
                   std::to_string(r.lock_retries),
                   std::to_string(r.timeout_give_ups),
                   std::to_string(r.lease_reclaims),
                   std::to_string(r.down_site_aborts),
                   Audit(r, options.num_txns)});
  }
  std::printf("%s\n", stress.ToString().c_str());

  // -------------------------------------------------------------------
  // WAL process-crash recovery audit: crash point x sync policy over the
  // sharded engine with a parallel WAL attached. Each cell arms one
  // WalCrashPlan, drives the shared closed loop (3-op transactions over 64
  // items) until the simulated crash fires or 400 transactions finish,
  // then recovers the log and rebuilds a fresh engine. The bar: recovery
  // never fails, every recovered record rebuilds as committed, torn tails
  // only appear for the mid-record crash, and under every-commit sync all
  // acknowledged appends survive.
  // -------------------------------------------------------------------
  std::printf("--- WAL crash points: durability audit ---\n");
  TablePrinter walt({"crash point", "policy", "appends", "recovered", "torn",
                     "audit"});
  for (const WalCrashPoint point :
       {WalCrashPoint::kBeforeFsync, WalCrashPoint::kMidRecord,
        WalCrashPoint::kBetweenStreams}) {
    for (const WalSyncPolicy policy :
         {WalSyncPolicy::kGroupCommit, WalSyncPolicy::kEveryCommit}) {
      const std::string dir =
          (std::filesystem::temp_directory_path() /
           (std::string("mdts_fault_wal_") + WalCrashPointName(point) + "_" +
            WalSyncPolicyName(policy)))
              .string();
      std::filesystem::remove_all(dir);
      WalCrashPlan plan;
      plan.point = point;
      plan.at_append = 90;
      plan.torn_bytes = 11;
      WalOptions wo2;
      wo2.dir = dir;
      wo2.num_streams = 2;
      wo2.k = 4;
      wo2.sync_policy = policy;
      wo2.group_commit_ops = 8;
      wo2.crash = &plan;
      if (flight != nullptr) {
        // Dump before the WAL goes dark at the planned crash point: the
        // post-mortem shows what was in flight when durability stopped.
        wo2.on_crash = [&flight, &flight_dumps, flight_path] {
          if (flight->DumpToFile(flight_path)) ++flight_dumps;
        };
      }
      ParallelWal wal(wo2);
      EngineOptions eo;
      eo.k = 4;
      eo.num_shards = 2;
      eo.starvation_fix = true;
      eo.flight = flight.get();
      eo.wal = &wal;
      ShardedMtkEngine engine(eo);
      const Workload w =
          MakeWorkload(1, 64, 3, 0.5, 31 + static_cast<uint64_t>(point));
      // The budget never binds: the predicate ends every cell.
      PerOpLoop(engine, w, 0, 1, /*seconds=*/60.0, /*work_ns=*/0,
                [&](const LoopResult& r) {
                  return r.txns() >= 400 || wal.crashed();
                });
      const uint64_t appends = wal.stats().appends;
      wal.Close();
      const WalRecovery rec = ParallelWal::Recover(dir);
      std::string audit = "ok";
      if (!wal.crashed() || !rec.ok) {
        audit = !wal.crashed() ? "CRASH NEVER FIRED" : "RECOVERY FAILED";
      } else if (point != WalCrashPoint::kMidRecord && rec.torn_streams > 0) {
        audit = "UNEXPECTED TORN TAIL";
      } else if (policy == WalSyncPolicy::kEveryCommit &&
                 rec.records.size() < appends) {
        audit = "ACKNOWLEDGED COMMIT LOST";
      } else {
        EngineOptions eo2 = eo;
        eo2.wal = nullptr;
        ShardedMtkEngine fresh(eo2);
        if (fresh.RecoverFrom(rec) != rec.records.size()) {
          audit = "REBUILD INCOMPLETE";
        } else {
          for (const WalCommitRecord& r : rec.records) {
            if (!fresh.IsCommitted(r.txn)) {
              audit = "REBUILD LOST TXN";
              break;
            }
          }
        }
      }
      if (audit != "ok") ++failures;
      walt.AddRow({WalCrashPointName(point), WalSyncPolicyName(policy),
                   std::to_string(appends), std::to_string(rec.records.size()),
                   std::to_string(rec.torn_streams), audit});
      std::filesystem::remove_all(dir);
    }
  }
  std::printf("%s\n", walt.ToString().c_str());

  // Every run above published its end-of-run counters into the global
  // registry (DmtOptions::metrics defaults to GlobalMetrics()), so this
  // snapshot is the cumulative tally across the whole sweep.
  const MetricsSnapshot snapshot = GlobalMetrics().Snapshot();
  std::printf("--- metrics snapshot (cumulative across the sweep) ---\n%s\n",
              snapshot.ToText().c_str());
  if (metrics_path != nullptr && snapshot.WriteJsonFile(metrics_path)) {
    std::printf("wrote metrics snapshot to %s (diff runs with "
                "tools/metrics_diff.py)\n",
                metrics_path);
  }

  if (trace_path != nullptr) {
    Tracer::Get().Disable();
    if (Tracer::Get().WriteFile(trace_path)) {
      std::printf("wrote %zu trace events to %s (open in ui.perfetto.dev)\n",
                  Tracer::Get().event_count(), trace_path);
    } else {
      ++failures;
    }
  }

  if (flight != nullptr) {
    if (flight->DumpToFile(flight_path)) ++flight_dumps;
    std::printf(
        "flight recorder: %llu commits, %llu aborts captured; %llu dump(s) "
        "-> %s (audit with tools/flight_check.py)\n\n",
        static_cast<unsigned long long>(flight->commits()),
        static_cast<unsigned long long>(flight->aborts()),
        static_cast<unsigned long long>(flight_dumps), flight_path);
  }

  if (paths != nullptr) {
    std::string dump = "{\"cells\": [\n";
    for (size_t c = 0; c < cell_dumps.size(); ++c) {
      dump += cell_dumps[c];
      dump += c + 1 < cell_dumps.size() ? ",\n" : "\n";
    }
    dump += "]}\n";
    std::ofstream out(paths_path, std::ios::trunc);
    out << dump;
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", paths_path);
      ++failures;
    } else {
      std::printf(
          "critical paths: %zu cells, %llu spans recorded (%llu hops) -> %s "
          "(audit with tools/critical_path.py)\n",
          cell_dumps.size(),
          static_cast<unsigned long long>(spans->recorded()),
          static_cast<unsigned long long>(spans->hops()), paths_path);
    }
    // Per-cell segment shares: the replication baseline ROADMAP item 4
    // will be compared against.
    BenchFields fields;
    fields.emplace_back("cells", "[" + bench_cells + "]");
    if (UpsertBenchRecord("BENCH_core.json", "fault_sweep_critical_path",
                          fields)) {
      std::printf(
          "recorded per-cell critical-path shares into BENCH_core.json\n\n");
    }
  }

  if (sampler != nullptr) {
    const std::vector<WatchdogAlert> alerts = sampler->alerts();
    std::printf(
        "--- live telemetry: %llu windows sampled, %zu starvation alerts "
        "---\n",
        static_cast<unsigned long long>(sampler->samples_taken()),
        alerts.size());
    const size_t kMaxShown = 8;  // Faulty cells alert a lot; show a sample.
    for (size_t i = 0; i < alerts.size() && i < kMaxShown; ++i) {
      std::printf("  %s\n", alerts[i].ToJson().c_str());
    }
    if (alerts.size() > kMaxShown) {
      std::printf("  ... %zu more (full list on /series.json)\n",
                  alerts.size() - kMaxShown);
    }
    std::printf("\n");
    if (hold_seconds > 0) {
      // The whole sweep finishes in well under a second of wall time (it
      // runs on simulated time), so give scrapers a window to look at the
      // final series.
      std::printf("holding the exporter open for %.0f s...\n", hold_seconds);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int64_t>(hold_seconds * 1000.0)));
    }
    exporter->Stop();
  }

  std::printf("[%s] every cell terminated, committed work, and passed the\n"
              "     DSR audit - Theorem 2 survives the fault model\n",
              failures == 0 ? "ok" : "REPRODUCTION FAILURE");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mdts

// Usage: fault_sweep [--trace[=PATH]] [--metrics=PATH] [--serve[=PORT]]
//                    [--sample-ms=N] [--flight[=PATH]] [--paths[=PATH]]
// --trace default PATH: fault_sweep_trace.json (Chrome trace_event JSON).
// --metrics writes the cumulative MetricsSnapshot as JSON, the input
// format of tools/metrics_diff.py.
// --flight records every cell's commits/aborts in a flight recorder,
// auto-dumped to PATH (default fault_sweep_flight.json) on each
// starvation alert and WAL crash point, plus a final dump; audit the file
// with tools/flight_check.py. Also served on /flight.json with --serve.
// --paths attaches the distributed tracer to every DMT(k) cell and writes
// each cell's critical-path dump to PATH (default fault_sweep_paths.json;
// audit with tools/critical_path.py), records per-cell segment shares
// into BENCH_core.json, and serves the live collector on /paths.json with
// --serve.
// Bare-flag dump defaults resolve NEXT TO THE BINARY (build/bench/ in the
// standard layout), not in the caller's cwd - `./build/bench/fault_sweep
// --paths` from a checkout used to drop a multi-MB artifact into the repo
// root. An explicit --flag=PATH still goes exactly where it says.
// --serve starts the live telemetry exporter (default port 9464, 0 =
// ephemeral) with a sampler ticked on SIMULATED time inside each cell;
// --sample-ms sets that interval in simulated milliseconds (1 simulated
// time unit = 1 s; default 5000, i.e. every 5 time units). The sweep
// itself finishes in a fraction of a wall-clock second, so --hold=SECS
// keeps the exporter up that long afterwards for scrapers / mdtop.
// Resolves a bare-flag dump default to sit next to the binary instead of
// the caller's cwd. Falls back to the bare name (cwd) when the executable
// path cannot be resolved.
static std::string SelfDirDefault(const char* name) {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec || !self.has_parent_path()) return name;
  return (self.parent_path() / name).string();
}

int main(int argc, char** argv) {
  std::string trace_store, flight_store, paths_store;  // Bare-flag defaults.
  const char* trace_path = nullptr;
  const char* metrics_path = nullptr;
  const char* flight_path = nullptr;
  const char* paths_path = nullptr;
  int serve_port = -1;            // < 0 means no exporter.
  double sample_interval = 5.0;   // Simulated time units between samples.
  double hold_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_store = SelfDirDefault("fault_sweep_trace.json");
      trace_path = trace_store.c_str();
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve_port = 9464;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve_port = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--sample-ms=", 12) == 0) {
      sample_interval = std::strtod(argv[i] + 12, nullptr) / 1000.0;
      if (sample_interval <= 0) sample_interval = 5.0;
    } else if (std::strncmp(argv[i], "--hold=", 7) == 0) {
      hold_seconds = std::strtod(argv[i] + 7, nullptr);
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      flight_store = SelfDirDefault("fault_sweep_flight.json");
      flight_path = flight_store.c_str();
    } else if (std::strncmp(argv[i], "--flight=", 9) == 0) {
      flight_path = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--paths") == 0) {
      paths_store = SelfDirDefault("fault_sweep_paths.json");
      paths_path = paths_store.c_str();
    } else if (std::strncmp(argv[i], "--paths=", 8) == 0) {
      paths_path = argv[i] + 8;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  return mdts::Run(trace_path, metrics_path, serve_port, sample_interval,
                   hold_seconds, flight_path, paths_path);
}
