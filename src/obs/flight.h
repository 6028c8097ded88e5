#ifndef MDTS_OBS_FLIGHT_H_
#define MDTS_OBS_FLIGHT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/timestamp_vector.h"
#include "core/types.h"
#include "obs/abort_reason.h"
#include "obs/seqlock_ring.h"

namespace mdts {

/// Attributed slices of a transaction's lifecycle, indexed into
/// FlightRecord::phase_us and the "engine.phase.<name>_us" histograms the
/// engine publishes when a registry is attached:
///   admission   op entry until the first shard-lock acquisition starts
///   lock        acquiring the sorted shard locksets (all rounds)
///   decide      the decision bodies (single-version, and MV writes)
///   mv_read     multiversion read-path version-chain walks
///   wal_append  building + appending the WAL commit record (sync excluded)
///   fsync       waiting for the fdatasync that covers the record
///   ack         the commit point (liveness store) after the log is durable
enum class TxnPhase : uint8_t {
  kAdmission = 0,
  kLock,
  kDecide,
  kMvRead,
  kWalAppend,
  kFsync,
  kAck,
  kNumPhases,
};

inline constexpr size_t kNumTxnPhases =
    static_cast<size_t>(TxnPhase::kNumPhases);

/// Stable snake_case identifier ("admission", "lock", ...).
const char* TxnPhaseName(TxnPhase phase);

/// One drained flight-recorder entry: the last moments of a commit or an
/// abort, with enough context to audit it offline (tools/flight_check.py).
struct FlightRecord {
  uint64_t seq = 0;      ///< Global record order (strictly increasing).
  uint64_t time_us = 0;  ///< Tracer::NowUs() at the record point.
  uint32_t ring = 0;     ///< Ring (shard) the record was captured on.
  TxnId txn = 0;
  bool commit = false;  ///< false = abort/reject record.
  /// True when the phase_us slices were measured for this transaction
  /// (phase attribution samples 1 in 2^phase_sample_shift commits).
  bool phases_sampled = false;
  AbortReason reason = AbortReason::kNone;  ///< Aborts only.
  TxnId blocker = 0;  ///< Transaction that fixed the conflicting order, or 0.
  bool has_op = false;
  Op op;  ///< The rejected operation (aborts with has_op).
  uint32_t writes_total = 0;  ///< Full write-set size (>= writes.size()).
  uint32_t phase_us[kNumTxnPhases] = {};
  std::vector<ItemId> writes;  ///< First kMaxWrites written items.
  /// First kMaxVecElements elements of the timestamp vector at the record
  /// point (undefined slots hold kUndefinedElement); k is the true size.
  std::vector<TsElement> vec;
  size_t k = 0;

  /// {"seq": ..., "event": "commit"|"abort", "vec": [1, "*", ...], ...}.
  std::string ToJson() const;
};

struct FlightRecorderOptions {
  /// Independent rings; writers pick one (the engine uses txn % num_shards)
  /// so concurrent recording never contends across rings. Rounded up to a
  /// power of two - ring selection on the hot path is a mask, never a
  /// division.
  size_t rings = 1;
  /// Records retained per ring (rounded up to a power of two).
  size_t capacity = 256;
  /// Timestamp vector size, carried into dumps for the offline audit.
  size_t k = 3;
};

/// Always-on lock-free flight recorder: per-ring bounded histories of the
/// last N commit/abort records, each ring a SeqlockRing (a record is a
/// handful of relaxed stores into a prefetched slot, stamped with the
/// coarse monotonic clock - cheap enough to leave attached in production)
/// drained to JSON on demand. Dump triggers in this repository: the
/// StarvationWatchdog on alert raise, the WAL crash hook before a planned
/// _Exit, and the HttpExporter's /flight.json endpoint.
///
/// Concurrency contract: recording never blocks or loses newer records (a
/// ring overwrites its oldest entry). Drain/ToJson are best-effort under
/// concurrent writers - a slot overwritten mid-copy is detected by its
/// stamp and skipped - and exact once writers are quiescent, which is the
/// state at every dump trigger above.
class FlightRecorder {
 public:
  /// Vector elements captured per record (the TimestampVector inline
  /// capacity; every protocol configuration in the repo fits).
  static constexpr size_t kMaxVecElements = 8;
  /// Written items captured per record (writes_total keeps the full count).
  static constexpr size_t kMaxWrites = 4;

  /// Record-point clock for the hot paths: CLOCK_MONOTONIC_COARSE (a vDSO
  /// page read, ~5 ns, millisecond granularity - plenty for a crash-window
  /// audit trail and still monotonic) where available, CLOCK_MONOTONIC
  /// otherwise. A fine-grained Tracer::NowUs() read would double the cost
  /// of a record.
  static uint64_t CoarseNowUs();

  explicit FlightRecorder(const FlightRecorderOptions& options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records a commit with its write set (the first kMaxWrites items are
  /// kept, writes_total the full count). `phase_us` (kNumTxnPhases
  /// entries) may be null for unsampled commits; `time_us` is the caller's
  /// record-point clock.
  void RecordCommit(size_t ring, TxnId txn, const TimestampVector& vec,
                    std::span<const ItemId> writes, const uint32_t* phase_us,
                    uint64_t time_us);

  /// Records an abort/reject. `op` and `vec` may be null when unknown.
  void RecordAbort(size_t ring, TxnId txn, AbortReason reason, TxnId blocker,
                   const Op* op, const TimestampVector* vec,
                   uint64_t time_us);

  /// Prefetches (for write) the slot the ring's next record will land in.
  /// Call it on transaction-commit entry, a few hundred nanoseconds ahead
  /// of the record: slots cycle, so the target lines are always cold, and
  /// without the prefetch the miss lands inside the commit-point critical
  /// section. Best-effort - a racing writer may take the ticket first,
  /// which only wastes the hint. Not worth issuing on paths that rarely
  /// record (e.g. the reject path, which only the minority that aborts
  /// takes): stores to a cold slot drain through the store buffer without
  /// stalling the core.
  void PrefetchNext(size_t ring) const {
    rings_[ring & ring_mask_].PrefetchNext();
  }

  /// Snapshot of every currently retained record, sorted by seq.
  std::vector<FlightRecord> Drain() const;

  /// {"meta": {...}, "totals": {...}, "records": [...]}: the dump format
  /// tools/flight_check.py audits.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; false (with a message on stderr) on error.
  bool DumpToFile(const std::string& path) const;

  /// Lifetime totals (not bounded by the ring capacity); the dump carries
  /// them so audits can reconcile the retained window against the run.
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t aborts() const;
  AbortReasonCounts abort_reasons() const;

  size_t rings() const { return ring_mask_ + 1; }
  size_t capacity() const { return rings_[0].capacity(); }
  const FlightRecorderOptions& options() const { return options_; }

 private:
  // Payload word layout (see Record()):
  //   w0 seq, w1 time_us,
  //   w2 txn | flags<<32 | reason<<40 | k_rec<<48 | nwrites_rec<<56,
  //   w3 blocker | op_item<<32, w4 writes_total,
  //   then phases (two uint32 per word), writes (two per word), vector
  //   elements (bitcast int64). Flags: 1 commit, 2 has_op, 4 sampled,
  //   8 op-is-write.
  static constexpr size_t kHeaderWords = 5;
  static constexpr size_t kPhaseWords = (kNumTxnPhases + 1) / 2;
  static constexpr size_t kWriteWords = (kMaxWrites + 1) / 2;
  static constexpr size_t kPayloadWords =
      kHeaderWords + kPhaseWords + kWriteWords + kMaxVecElements;
  using Ring = SeqlockRing<kPayloadWords>;

  void Record(size_t ring, TxnId txn, bool commit, AbortReason reason,
              TxnId blocker, const Op* op, bool sampled,
              std::span<const ItemId> writes,
              const uint32_t* phase_us, const TimestampVector* vec,
              uint64_t time_us);

  FlightRecorderOptions options_;
  uint64_t ring_mask_;  ///< ring count - 1 (a power of two).
  std::unique_ptr<Ring[]> rings_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_by_reason_[kNumAbortReasons] = {};
};

}  // namespace mdts

#endif  // MDTS_OBS_FLIGHT_H_
