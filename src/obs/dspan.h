#ifndef MDTS_OBS_DSPAN_H_
#define MDTS_OBS_DSPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/timestamp_vector.h"
#include "core/types.h"
#include "obs/seqlock_ring.h"

namespace mdts {

/// Segment classes of a distributed transaction's timeline in the DMT(k)
/// simulation. At any simulated instant a transaction is in exactly ONE
/// class, so the classes partition [first_start, finish] and the
/// per-class sums reconcile exactly with the end-to-end latency (the
/// invariant tools/critical_path.py re-checks offline):
///   network          a lock request or grant is in flight (the context
///                    is blocked on the wire, including retry re-sends)
///   lock_wait        queued behind another holder at an object's home site
///   backoff          restart backoff after a protocol abort (lex order,
///                    encoding exhaustion, timeout, lease loss)
///   site_down_retry  restart backoff after an abort caused by a crashed
///                    or down site (the crash-induced slice of retries)
///   processing       everything local: issue, decision, think time
enum class DistSegment : uint8_t {
  kNetwork = 0,
  kLockWait,
  kBackoff,
  kSiteDownRetry,
  kProcessing,
  kNumSegments,
};

inline constexpr size_t kNumDistSegments =
    static_cast<size_t>(DistSegment::kNumSegments);

/// Stable snake_case identifier ("network", "lock_wait", ...).
const char* DistSegmentName(DistSegment segment);

/// One closed span of the distributed trace. Two shapes share the struct:
/// segment spans (hop = false) are children of the transaction's root and
/// tile its timeline; message-hop spans (hop = true) are children of the
/// segment that was open at SEND time and run from the send to the
/// arrival's processing - so a parent always covers its child, and a
/// send always happens-before its receive.
struct DistSpan {
  uint64_t id = 0;      ///< Unique within a run, allocated in open order.
  uint64_t parent = 0;  ///< Root span id (segments) or segment id (hops).
  TxnId txn = 0;
  uint32_t incarnation = 0;  ///< Incarnation the span belongs to.
  uint32_t site = 0;         ///< Where the time was spent (hops: receiver).
  DistSegment segment = DistSegment::kProcessing;
  bool hop = false;
  bool aborted = false;  ///< Closed by an abort (crash, lease, timeout...).
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  /// Defined positions of the transaction's MT(k) vector - at send time
  /// for hops (the TraceContext snapshot), at close time for segments.
  /// Within one incarnation definedness only grows, which is what the
  /// offline Definition-6 order audit checks over a transaction's hops.
  uint8_t defined = 0;

  /// {"id": ..., "class": "network", "hop": true, ...}.
  std::string ToJson() const;
};

struct SpanRingOptions {
  /// Independent rings; the DMT(k) simulation records each span into the
  /// ring of the site it was attributed to (ring = site % rings). Rounded
  /// up to a power of two.
  size_t rings = 1;
  /// Spans retained per ring (rounded up to a power of two).
  size_t capacity = 256;
};

/// Per-site ring of the last N closed distributed spans, one SeqlockRing
/// per ring: recording never blocks, and a concurrent drain (the exporter
/// scraping mid-run) skips torn slots. Exact once the writer is quiescent -
/// the state at every end-of-run dump. The lifetime totals assume a SINGLE
/// writer (the single-threaded simulation): they use plain load+store
/// instead of locked RMWs, which concurrent drains read safely but
/// concurrent writers would race on.
class SpanRing {
 public:
  explicit SpanRing(const SpanRingOptions& options);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Records one closed span into `site`'s ring (site is masked).
  void Record(uint32_t site, const DistSpan& span);

  /// Snapshot of every currently retained span, sorted by id (= open
  /// order); best-effort under concurrent writers.
  std::vector<DistSpan> Drain() const;

  /// {"meta": {...}, "totals": {...}, "spans": [...]}.
  std::string ToJson() const;

  /// Lifetime totals (not bounded by ring capacity).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t aborted() const { return aborted_.load(std::memory_order_relaxed); }
  uint64_t hops() const { return hops_.load(std::memory_order_relaxed); }

  size_t rings() const { return ring_mask_ + 1; }
  size_t capacity() const { return rings_[0].capacity(); }

 private:
  using Ring = SeqlockRing<(sizeof(DistSpan) + 7) / 8>;

  uint64_t ring_mask_;  ///< ring count - 1 (power of two).
  std::unique_ptr<Ring[]> rings_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> hops_{0};
};

/// One finished transaction's assembled span DAG plus its critical path.
/// Because the segment classes partition the transaction's timeline, the
/// critical path IS the per-class breakdown: seg_us sums to exactly
/// end_us - start_us.
struct TxnPathRecord {
  TxnId txn = 0;
  bool committed = false;  ///< false = gave up after max_attempts.
  uint32_t attempts = 0;   ///< Incarnations consumed (1 = first try).
  uint64_t root = 0;       ///< Root span id; segments' parent.
  uint64_t start_us = 0;   ///< First start (first incarnation's issue).
  uint64_t end_us = 0;     ///< Commit or give-up instant.
  uint64_t seg_us[kNumDistSegments] = {};  ///< Critical-path breakdown.
  std::vector<DistSpan> spans;  ///< All closed spans, open order.
  /// First elements of the final timestamp vector (undefined slots hold
  /// kUndefinedElement); k is the configured size.
  std::vector<TsElement> vec;
  size_t k = 0;

  uint64_t latency_us() const { return end_us - start_us; }

  /// {"txn": ..., "critical_path_us": {...}, "spans": [...], ...}.
  std::string ToJson() const;
};

/// Bounded retention of finished transactions' critical paths: lifetime
/// per-segment aggregates over EVERY extracted path, plus the top-N
/// slowest transactions' full span DAGs (the ones worth rendering). The
/// mutex makes Add/ToJson safe against the HTTP exporter scraping
/// /paths.json mid-run; the simulation adds one record per finished
/// transaction, so the lock is never contended on a hot path.
class PathCollector {
 public:
  struct Aggregates {
    uint64_t paths = 0;      ///< Records added since the last Clear().
    uint64_t committed = 0;  ///< Of which committed (rest gave up).
    uint64_t total_us = 0;   ///< Sum of end-to-end latencies.
    uint64_t seg_us[kNumDistSegments] = {};
  };

  explicit PathCollector(size_t top_n = 16);

  PathCollector(const PathCollector&) = delete;
  PathCollector& operator=(const PathCollector&) = delete;

  void Add(TxnPathRecord record);

  /// Drops retained paths and resets the aggregates (fault_sweep calls it
  /// between cells so each dump covers exactly one cell).
  void Clear();

  Aggregates aggregates() const;

  /// Retained paths, slowest first.
  std::vector<TxnPathRecord> Slowest() const;

  /// {"meta": {...}, "aggregates": {...}, "txns": [...]}: the /paths.json
  /// body and the per-cell dump tools/critical_path.py audits.
  std::string ToJson() const;

  size_t top_n() const { return top_n_; }

 private:
  const size_t top_n_;
  mutable std::mutex mu_;
  Aggregates agg_;
  std::vector<TxnPathRecord> slowest_;  ///< Sorted by latency, descending.
};

}  // namespace mdts

#endif  // MDTS_OBS_DSPAN_H_
