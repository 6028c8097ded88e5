#ifndef MDTS_WAL_WAL_H_
#define MDTS_WAL_WAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/timestamp_vector.h"
#include "core/types.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace mdts {

/// Taurus-style parallel write-ahead log (PAPERS.md: "Taurus: Lightweight
/// Parallel Logging for In-Memory Database Management Systems"): N
/// append-only log streams written in parallel, one per worker, with no
/// central sequencer. Taurus recovers the global commit order from a
/// vectorized LSN carried by every record; here that vector is the
/// transaction's MT(k) timestamp vector, which the protocol already
/// maintains - the multidimensional timestamps double as the recovery
/// ordering for free.
///
/// Named `wal` (not `log`) to avoid colliding with the paper's op-log
/// parser in src/core/log.h.
///
/// Durability contract: a commit record is DURABLE once an fdatasync
/// covering its bytes has completed (WalAppendTicket::end_offset <=
/// SyncedBytes(stream)). The sync policy decides when that happens:
/// kEveryCommit on every append, kGroupCommit once `group_commit_ops`
/// records are pending on the stream (or an explicit SyncAll() boundary
/// comes first), kNone only at Close().
/// Recovery promises to rebuild every durable record; records beyond the
/// last fsync may survive (the OS often flushes more) but are not owed.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `len` bytes.
/// `seed` chains multi-buffer computations (pass a previous return value).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// When fdatasync runs relative to appends.
enum class WalSyncPolicy : uint8_t {
  kNone = 0,     ///< Never during the run (Close still syncs). Fastest,
                 ///< no durability until shutdown.
  kGroupCommit,  ///< Group commit: fsync once group_commit_ops records are
                 ///< pending on a stream, or on an explicit SyncAll()
                 ///< boundary.
  kEveryCommit,  ///< fsync after every record. Strongest, slowest.
};

/// Stable snake_case identifier ("none", "group_commit", "every_commit").
const char* WalSyncPolicyName(WalSyncPolicy policy);

struct WalOptions {
  /// Directory holding the stream files `wal-<i>.log`. Created if missing.
  /// Existing stream files are truncated: recover BEFORE constructing a
  /// fresh ParallelWal over the same directory, and re-append (checkpoint)
  /// the recovered records into the new log so a second crash still finds
  /// them.
  std::string dir;

  /// Number of parallel streams. Appending threads are spread across them
  /// by thread slot, so with >= num_streams worker threads each stream is
  /// written (mostly) by one worker - Taurus's per-worker layout.
  size_t num_streams = 4;

  /// Timestamp vector size; must match the engine's EngineOptions::k.
  size_t k = 3;

  WalSyncPolicy sync_policy = WalSyncPolicy::kGroupCommit;

  /// kGroupCommit: pending-record count that triggers a stream fsync.
  size_t group_commit_ops = 32;

  /// Registry that reads `wal.appends`, `wal.fsyncs` and `wal.bytes` from
  /// stats() through a collector at snapshot time, and receives the
  /// `wal.group_commit_size` histogram (records per fsync). Null disables
  /// both. Must outlive the ParallelWal.
  MetricsRegistry* metrics = nullptr;

  /// Optional process-crash injection (src/fault): when armed, the
  /// `at_append`-th AppendCommit "crashes the process" - the WAL stops
  /// accepting records and Close() truncates every stream file to the
  /// bytes that would have survived a real crash at that point (see
  /// WalCrashPoint). Must outlive the ParallelWal.
  const WalCrashPlan* crash = nullptr;

  /// Invoked exactly once, at the moment an injected crash fires (either
  /// the armed plan's triggering append or an external CrashNow call) -
  /// the last chance to dump in-memory diagnostics (the flight recorder)
  /// before the harness's planned _Exit. Runs on the crashing thread,
  /// possibly while a stream lock is held: must not call back into the WAL.
  std::function<void()> on_crash;
};

/// One decoded commit record: the transaction, its MT(k) vector (the
/// Taurus LSN vector), and the items it wrote.
struct WalCommitRecord {
  TxnId txn = 0;
  uint32_t stream = 0;  ///< Stream the record was read from.
  uint64_t seq = 0;     ///< 0-based record index within its stream.
  TimestampVector vec;
  std::vector<ItemId> writes;

  explicit WalCommitRecord(size_t k) : vec(k) {}
};

/// Per-stream recovery outcome.
struct WalStreamRecovery {
  std::string path;
  uint64_t file_bytes = 0;   ///< Size found on disk.
  uint64_t valid_bytes = 0;  ///< Prefix that parsed cleanly.
  uint64_t records = 0;
  bool torn = false;  ///< valid_bytes < file_bytes: tail truncated.
};

/// Result of ParallelWal::Recover: every valid record from every stream,
/// merged into one global order, plus the committed item state they imply.
struct WalRecovery {
  bool ok = false;
  std::string error;  ///< Set when !ok.
  size_t k = 0;
  std::vector<WalStreamRecovery> streams;
  uint64_t torn_streams = 0;

  /// All valid records, merged by vector order: raw lexicographic
  /// comparison of the k elements (ties broken by stream then seq). The
  /// undefined sentinel is INT64_MIN, so an element a committed writer
  /// never got (because Algorithm 1 assigned it to the live vector only
  /// AFTER the commit record was written) sorts low - exactly the
  /// direction that keeps a stale committed writer below its successors,
  /// whose commit-time vectors already carry the ordering elements (the
  /// order between conflicting writers is fixed at the later writer's
  /// admission, which precedes its commit). Raw order therefore refines
  /// the Definition-6 order on every conflicting committed pair.
  std::vector<WalCommitRecord> records;

  /// Committed item state: item -> index (into `records`) of its last
  /// writer in the merged order.
  std::map<ItemId, size_t> item_writer;

  /// The record that owns `item`'s committed state, null if never written.
  const WalCommitRecord* WriterOf(ItemId item) const {
    auto it = item_writer.find(item);
    return it == item_writer.end() ? nullptr : &records[it->second];
  }
};

/// Work counters (published as `wal.appends`, `wal.fsyncs`, `wal.bytes`
/// by a WalOptions::metrics collector when a registry is attached).
struct WalStats {
  uint64_t appends = 0;          ///< Acknowledged appends.
  uint64_t fsyncs = 0;
  uint64_t bytes = 0;            ///< Frame bytes of acknowledged appends.
  uint64_t append_failures = 0;  ///< Appends refused (crashed / closed WAL).
};

/// Durability handle for one appended record: the record is durable once
/// SyncedBytes(stream) >= end_offset.
struct WalAppendTicket {
  uint32_t stream = 0;
  uint64_t end_offset = 0;  ///< File offset one past the record's frame.
  /// Microseconds the append spent inside the policy-triggered fdatasync
  /// covering this record (0 when the append returned without syncing).
  /// The engine's fsync-phase attribution source.
  uint64_t sync_wait_us = 0;
};

namespace wal_internal {

/// Stream file header: magic "MDTSWAL1", u32 version, u32 k, u32 stream.
inline constexpr size_t kStreamHeaderBytes = 20;
inline constexpr uint64_t kStreamMagic = 0x314C4157'5354444Dull;  // MDTSWAL1
inline constexpr uint32_t kStreamVersion = 1;
/// Frame: u32 payload length, u32 CRC-32(payload), payload. Payload:
/// u32 txn, u32 nwrites, k x i64 elements (raw; undefined slots hold the
/// kUndefinedElement sentinel), nwrites x u32 items. Little-endian.
inline constexpr size_t kFrameHeaderBytes = 8;
/// Parse guard: a frame claiming a longer payload is treated as torn.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 24;

void EncodeStreamHeader(uint32_t k, uint32_t stream,
                        std::vector<uint8_t>* out);
bool DecodeStreamHeader(const uint8_t* data, size_t len, uint32_t* k,
                        uint32_t* stream);

/// Appends one framed record to `out`.
void EncodeFrame(TxnId txn, const TimestampVector& vec,
                 std::span<const ItemId> writes, std::vector<uint8_t>* out);

/// Decodes the frame at `data`; returns the bytes consumed, or 0 when the
/// buffer holds no complete valid frame (torn tail). `out` must be
/// constructed with the right k.
size_t DecodeFrame(const uint8_t* data, size_t len, size_t k,
                   WalCommitRecord* out);

}  // namespace wal_internal

/// Thread-safe parallel WAL writer plus its static recovery routine.
class ParallelWal {
 public:
  explicit ParallelWal(const WalOptions& options);
  ~ParallelWal();

  ParallelWal(const ParallelWal&) = delete;
  ParallelWal& operator=(const ParallelWal&) = delete;

  /// False when the directory / stream files could not be created; every
  /// AppendCommit then refuses.
  bool ok() const { return ok_; }

  /// Appends a commit record for `txn` to this thread's stream and applies
  /// the sync policy; returns true iff the record was accepted (false once
  /// the WAL is crashed or closed - the record is NOT durable then). When
  /// `ticket` is non-null it receives the record's durability handle.
  /// Thread-safe.
  bool AppendCommit(TxnId txn, const TimestampVector& vec,
                    std::span<const ItemId> writes,
                    WalAppendTicket* ticket = nullptr);

  /// Group-commit boundary: flushes and fsyncs every stream's pending
  /// records (no-op on streams with nothing pending, and after a crash).
  void SyncAll();

  /// Closes the stream files. A clean close syncs
  /// everything first; a crashed close truncates each file to its crash
  /// image (see WalCrashPoint). Idempotent; the destructor calls it.
  void Close();

  /// True once the injected crash plan has fired.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Crashes the WAL NOW, from outside the append path: every further
  /// AppendCommit refuses and Close() truncates each stream to its crash
  /// image. Used by callers whose crash trigger is not an append - the
  /// multiversion crash sweep fires this right after a version install,
  /// before the commit append that would have logged it. The point picks
  /// the image: kBeforeFsync loses every unsynced byte, kMidRecord leaves
  /// a torn partial-frame tail on one stream, kBetweenStreams completes
  /// one stream's group fsync while the peers lose theirs. Idempotent and
  /// thread-safe; a no-op for kNone or an already crashed/unusable WAL.
  void CrashNow(WalCrashPoint point);

  /// Bytes of `stream` covered by a completed fdatasync (frozen at the
  /// crash point once crashed). Records with end_offset <= this are owed
  /// by recovery.
  uint64_t SyncedBytes(uint32_t stream) const;

  WalStats stats() const;
  size_t num_streams() const { return streams_.size(); }
  const WalOptions& options() const { return options_; }

  /// Reads every `wal-<i>.log` stream under `dir`, truncating torn tails
  /// (on disk too, when `truncate_torn`), and merges the records by vector
  /// order. ok == false only for unusable input (no streams, k mismatch
  /// across streams); torn tails and empty streams are normal outcomes.
  static WalRecovery Recover(const std::string& dir,
                             bool truncate_torn = true);

 private:
  struct Stream {
    mutable std::mutex mu;
    int fd = -1;
    std::string path;
    std::vector<uint8_t> buf;      // Encoded, not yet write()n.
    uint64_t flushed = 0;          // Bytes written to the fd.
    uint64_t synced = 0;           // Bytes covered by fdatasync.
    uint64_t pending_records = 0;  // Records appended since the last sync.
    uint64_t appended = 0;         // Records ever acknowledged.
    uint64_t frame_bytes = 0;      // Their frame bytes (headers excluded).
    /// Crash image override (kMidRecord / kBetweenStreams trigger stream);
    /// ~0 means "use `synced`".
    uint64_t surviving_override = ~0ull;
  };

  /// write()s the buffered bytes; requires s.mu.
  void FlushLocked(Stream& s);
  /// Flush + fdatasync; advances `synced`, records the group size.
  void SyncLocked(Stream& s);
  /// Applies the armed crash plan at the triggering append; requires s.mu.
  /// `frame` is the record that was being appended.
  void TriggerCrashLocked(Stream& s, const std::vector<uint8_t>& frame);

  WalOptions options_;
  bool ok_ = false;
  std::atomic<bool> closed_{false};
  std::atomic<bool> crashed_{false};
  // Appends that reached the crash gate (WalCrashPlan::at_append).
  std::atomic<uint64_t> appends_total_{0};
  std::atomic<uint64_t> append_failures_{0};
  std::atomic<uint64_t> fsyncs_total_{0};
  mutable std::deque<Stream> streams_;  // Deque: Stream is not movable.

  Histogram* m_group_size_ = nullptr;
};

}  // namespace mdts

#endif  // MDTS_WAL_WAL_H_
