#ifndef MDTS_DIST_DMT_SYSTEM_H_
#define MDTS_DIST_DMT_SYSTEM_H_

#include <cstdint>
#include <vector>

#include "core/log.h"
#include "core/timestamp_vector.h"
#include "fault/fault.h"
#include "obs/abort_reason.h"
#include "obs/dspan.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "workload/generator.h"

namespace mdts {

/// Configuration of the decentralized protocol DMT(k) simulation (paper
/// Section V-B). Data items and transaction timestamp vectors are
/// partitioned across sites; scheduling one operation locks the involved
/// objects (the item record plus up to three timestamp vectors) in a
/// predefined linear order - items before vectors, each ordered by id - so
/// no deadlock can arise, exchanging messages with the objects' home sites.
///
/// Beyond the paper's perfect network, the simulation supports an injected
/// fault model (`fault`): message loss, duplication and jitter, plus
/// scheduled whole-site crash/recovery. Fault tolerance rests on three
/// mechanisms: idempotent lock requests retried on a capped-exponential
/// timeout, lock leases that reclaim locks held by crashed or wedged
/// coordinators, and abort-and-retry for transactions touching a down
/// site. Every run - faulty or not - must still commit only DSR histories.
struct DmtOptions {
  size_t k = 3;
  uint32_t num_sites = 3;

  /// One-way message latency between distinct sites (simulated time).
  double message_latency = 1.0;

  /// Mean think time between a transaction's operations.
  double mean_think_time = 1.0;

  /// Base of the jittered, capped-exponential restart backoff (the mean
  /// delay after a transaction's first abort). The backoff is flat on a
  /// clean run and doubles per abort when faults are injected, so retries
  /// shed load during an outage; it is capped at 8 * restart_delay.
  double restart_delay = 4.0;

  uint32_t num_txns = 60;
  uint32_t concurrency = 8;
  uint32_t max_attempts = 100;

  /// If > 0, all sites' ucount/lcount counters are re-synchronized to the
  /// global extremes every this many simulated time units (the paper's
  /// periodic synchronization for unbalanced loads). The same path rebuilds
  /// a recovering site's counter state after a crash.
  double counter_sync_interval = 0.0;

  /// Injected faults (message loss/duplication/jitter, site crashes).
  /// Inactive by default; a clean run is bit-identical to the fault-free
  /// simulator. When any fault is injected, an unanswered lock request is
  /// re-sent after a timeout derived from message_latency and jitter, a
  /// bounded number of times before its transaction aborts-and-retries,
  /// and every granted lock carries a lease derived from that timeout;
  /// both are off on a clean run.
  FaultPlan fault;

  WorkloadOptions workload;
  uint64_t seed = 1;

  /// Registry the run publishes its "dmt.*" counters and latency histograms
  /// into. Null means the process-wide GlobalMetrics() - DMT metrics are
  /// always on; pass a private registry to isolate a run (as the
  /// reconciliation tests do). The run registers a collector over its
  /// in-progress DmtResult, so every "dmt.*" counter is live (an attached
  /// Sampler sees windowed rates), and removes it at the end, folding the
  /// final values into the registry: the registry deltas over a run exactly
  /// equal the DmtResult fields. The gauge "dmt.max_consecutive_aborts" and
  /// the response-time / restart-backoff histograms record per event.
  MetricsRegistry* metrics = nullptr;

  /// Sampler ticked on SIMULATED time every `sample_interval` time units
  /// while the run is in progress (plus one final tick at the end), giving
  /// deterministic windowed series and watchdog evaluations - no wall
  /// clock involved. Null (or interval <= 0) disables sampling. The
  /// sampler should wrap the same registry this run publishes into.
  Sampler* sampler = nullptr;
  double sample_interval = 0.0;

  /// Flight recorder fed one record per commit and per abort, carrying the
  /// transaction's timestamp vector at that moment and the simulated-time
  /// microsecond stamp. Records land in the ring of the transaction's
  /// vector home site (ring = txn % rings), so a per-site drain mirrors the
  /// partitioning. Null disables recording. Must outlive the run.
  FlightRecorder* flight = nullptr;

  /// Cross-site causal tracing. Attaching either pointer turns the tracer
  /// on: every message carries a compact TraceContext (send time, the
  /// sender's open segment span, the defined prefix of the transaction's
  /// MT(k) vector), each transaction's timeline is attributed to the
  /// DistSegment classes, and per-hop network spans are recorded at the
  /// receiver when a fresh (non-duplicate, non-stale) delivery advances
  /// the protocol. Both null (the default) keeps the simulation on the
  /// zero-cost untraced path, bit-identical to an untraced run either way.
  ///
  /// `spans`: per-site ring every closed span is recorded into (ring =
  /// site). `paths`: collector fed one assembled TxnPathRecord - the span
  /// DAG plus the critical-path breakdown - per finished transaction.
  /// Tracing also publishes "dmt.path.<class>_us" histograms and
  /// cumulative "dmt.critical_path.<class>_us" counters into the registry.
  /// Must outlive the run.
  SpanRing* spans = nullptr;
  PathCollector* paths = nullptr;

  /// Trace 1 in 2^trace_sample_shift transactions (0 = every one). The
  /// choice is deterministic on the txn id (no RNG drawn), an unsampled
  /// transaction never opens a root so it pays nothing beyond a zeroed
  /// trace context on its sends, and every SAMPLED transaction keeps the
  /// full exact-reconciliation guarantees. Full fidelity (shift 0) costs
  /// a meaningful fraction of this time-compressed simulator's ~100ns
  /// events; the overhead gate in bench/distributed_dmt runs at the
  /// sampled setting (the flight-recorder discipline) and records the
  /// full-fidelity cost honestly alongside.
  uint32_t trace_sample_shift = 0;
};

/// Aggregate result of a DMT(k) run.
struct DmtResult {
  uint64_t committed = 0;
  uint64_t aborts = 0;
  /// Per-reason breakdown of `aborts`; abort_reasons.total() == aborts.
  /// Protocol conflicts surface as kLexOrder / kEncodingExhausted; the
  /// fault-tolerance machinery as kLockTimeout / kLeaseExpired / kDownSite.
  AbortReasonCounts abort_reasons;
  uint64_t gave_up = 0;
  uint64_t messages_sent = 0;   // Network messages (remote hops only).
  uint64_t lock_waits = 0;      // Times an object lock was queued behind.
  uint64_t ops_scheduled = 0;
  uint64_t max_consecutive_aborts = 0;  // Starvation indicator.

  // Fault-tolerance activity (all zero on a clean run).
  uint64_t messages_dropped = 0;     // Injector drops + deliveries to down sites.
  uint64_t messages_duplicated = 0;  // Extra copies delivered.
  uint64_t lock_retries = 0;         // Lock requests re-sent after a timeout.
  uint64_t timeout_give_ups = 0;     // Ops abandoned after their last re-send.
  uint64_t lease_reclaims = 0;       // Locks reclaimed from expired leases.
  uint64_t down_site_aborts = 0;     // Aborts caused by a crashed/down site.

  double makespan = 0.0;
  double avg_response_time = 0.0;
  double p99_response_time = 0.0;  // Tail response over committed txns.

  // Vector-storage reclamation: finished transactions' timestamp vectors
  // released during the run, and the table size left at the end (bounded
  // by the live span, not num_txns, now that compaction runs).
  uint64_t vectors_released = 0;
  uint64_t final_live_vectors = 0;

  // Distributed tracing (all zero unless DmtOptions::spans or ::paths is
  // attached). The leak invariant spans_opened == spans_closed holds at
  // the end of every run - spans open at a crash, lease reclaim or
  // timeout are closed-as-aborted, never leaked.
  uint64_t spans_opened = 0;
  uint64_t spans_closed = 0;
  uint64_t spans_aborted = 0;      // Closed by an abort.
  uint64_t hops_recorded = 0;      // Message-hop spans on recorded paths.
  uint64_t dup_hops_ignored = 0;   // Duplicate/stale deliveries deduped.
  uint64_t paths_extracted = 0;    // One per finished transaction.
  /// Critical-path microseconds per segment class, summed over every
  /// finished transaction; sums to path_total_us exactly (the classes
  /// partition each transaction's timeline).
  uint64_t path_seg_us[kNumDistSegments] = {};
  uint64_t path_total_us = 0;

  /// Operations scheduled at each site (load balance view).
  std::vector<uint64_t> ops_per_site;

  /// Globally ordered accepted operations of committed transactions; the
  /// audit input (must be DSR).
  Log committed_history;
};

/// Runs the decentralized simulation. Deterministic given options.seed
/// (including the fault schedule: the injector derives its own stream from
/// the seed).
DmtResult RunDmtSimulation(const DmtOptions& options);

}  // namespace mdts

#endif  // MDTS_DIST_DMT_SYSTEM_H_
