#include "wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace mdts {

namespace {

namespace fs = std::filesystem;

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::string StreamPath(const std::string& dir, uint32_t stream) {
  return (fs::path(dir) / ("wal-" + std::to_string(stream) + ".log"))
      .string();
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int b = 0; b < 4; ++b) out->push_back(uint8_t(v >> (8 * b)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int b = 0; b < 8; ++b) out->push_back(uint8_t(v >> (8 * b)));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int b = 3; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

// Loops until the whole span is written; returns false on I/O error.
bool WriteFully(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= size_t(n);
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kNone:
      return "none";
    case WalSyncPolicy::kGroupCommit:
      return "group_commit";
    case WalSyncPolicy::kEveryCommit:
      return "every_commit";
  }
  return "unknown";
}

namespace wal_internal {

void EncodeStreamHeader(uint32_t k, uint32_t stream,
                        std::vector<uint8_t>* out) {
  PutU64(out, kStreamMagic);
  PutU32(out, kStreamVersion);
  PutU32(out, k);
  PutU32(out, stream);
}

bool DecodeStreamHeader(const uint8_t* data, size_t len, uint32_t* k,
                        uint32_t* stream) {
  if (len < kStreamHeaderBytes) return false;
  if (GetU64(data) != kStreamMagic) return false;
  if (GetU32(data + 8) != kStreamVersion) return false;
  *k = GetU32(data + 12);
  *stream = GetU32(data + 16);
  return *k > 0 && *k <= 64;
}

void EncodeFrame(TxnId txn, const TimestampVector& vec,
                 std::span<const ItemId> writes, std::vector<uint8_t>* out) {
  const size_t k = vec.size();
  const uint32_t payload_len =
      uint32_t(8 + 8 * k + 4 * writes.size());
  const size_t frame_start = out->size();
  PutU32(out, payload_len);
  PutU32(out, 0);  // CRC patched below.
  PutU32(out, txn);
  PutU32(out, uint32_t(writes.size()));
  for (size_t m = 0; m < k; ++m) {
    // Raw elements: undefined slots carry the kUndefinedElement sentinel,
    // from which the decoder rebuilds the defined-mask via Set().
    PutU64(out, uint64_t(vec.IsDefined(m) ? vec.Get(m) : kUndefinedElement));
  }
  for (ItemId item : writes) PutU32(out, item);
  const uint8_t* payload = out->data() + frame_start + kFrameHeaderBytes;
  const uint32_t crc = Crc32(payload, payload_len);
  for (int b = 0; b < 4; ++b) {
    (*out)[frame_start + 4 + size_t(b)] = uint8_t(crc >> (8 * b));
  }
}

size_t DecodeFrame(const uint8_t* data, size_t len, size_t k,
                   WalCommitRecord* out) {
  if (len < kFrameHeaderBytes) return 0;
  const uint32_t payload_len = GetU32(data);
  if (payload_len > kMaxPayloadBytes) return 0;
  if (len < kFrameHeaderBytes + payload_len) return 0;
  const uint8_t* payload = data + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != GetU32(data + 4)) return 0;
  if (payload_len < 8 + 8 * k) return 0;
  out->txn = GetU32(payload);
  const uint32_t nwrites = GetU32(payload + 4);
  if (payload_len != 8 + 8 * k + 4 * size_t(nwrites)) return 0;
  out->vec.Reset();
  for (size_t m = 0; m < k; ++m) {
    const auto v = TsElement(GetU64(payload + 8 + 8 * m));
    if (v != kUndefinedElement) out->vec.Set(m, v);
  }
  out->writes.assign(nwrites, 0);
  for (uint32_t w = 0; w < nwrites; ++w) {
    out->writes[w] = GetU32(payload + 8 + 8 * k + 4 * size_t(w));
  }
  return kFrameHeaderBytes + payload_len;
}

}  // namespace wal_internal

ParallelWal::ParallelWal(const WalOptions& options) : options_(options) {
  if (options_.num_streams == 0) options_.num_streams = 1;
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) return;
  if (options_.metrics != nullptr) {
    m_group_size_ = options_.metrics->GetHistogram("wal.group_commit_size");
  }
  for (uint32_t i = 0; i < options_.num_streams; ++i) {
    Stream& s = streams_.emplace_back();
    s.path = StreamPath(options_.dir, i);
    s.fd = ::open(s.path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (s.fd < 0) return;
    std::vector<uint8_t> header;
    wal_internal::EncodeStreamHeader(uint32_t(options_.k), i, &header);
    if (!WriteFully(s.fd, header.data(), header.size())) return;
    // The header is flushed but not synced: a crash before the first sync
    // legitimately leaves an empty (truncated-to-zero) stream.
    s.flushed = header.size();
  }
  ok_ = true;
  if (options_.metrics != nullptr) {
    options_.metrics->AddCollector(this, [this](MetricsSnapshot& out) {
      const WalStats st = stats();
      out.counters.emplace_back("wal.appends", st.appends);
      out.counters.emplace_back("wal.fsyncs", st.fsyncs);
      out.counters.emplace_back("wal.bytes", st.bytes);
    });
  }
}

ParallelWal::~ParallelWal() { Close(); }

void ParallelWal::FlushLocked(Stream& s) {
  if (s.buf.empty()) return;
  if (WriteFully(s.fd, s.buf.data(), s.buf.size())) {
    s.flushed += s.buf.size();
  }
  s.buf.clear();
}

void ParallelWal::SyncLocked(Stream& s) {
  if (s.pending_records == 0 && s.buf.empty()) return;
  FlushLocked(s);
  ::fdatasync(s.fd);
  s.synced = s.flushed;
  fsyncs_total_.fetch_add(1, std::memory_order_relaxed);
  if (m_group_size_ != nullptr) m_group_size_->Record(s.pending_records);
  s.pending_records = 0;
}

void ParallelWal::TriggerCrashLocked(Stream& s,
                                     const std::vector<uint8_t>& frame) {
  switch (options_.crash->point) {
    case WalCrashPoint::kBeforeFsync:
      // The record (and any peers pending since the last sync) is buffered
      // but never fsynced: the crash image is the last synced prefix.
      s.buf.insert(s.buf.end(), frame.begin(), frame.end());
      break;
    case WalCrashPoint::kMidRecord: {
      // The OS flushed everything up to a point inside this record's
      // frame: the image ends with a torn partial record. Earlier pending
      // records survive (they precede the torn bytes in the same prefix).
      const uint64_t torn = std::clamp<uint64_t>(options_.crash->torn_bytes,
                                                 1, frame.size() - 1);
      s.buf.insert(s.buf.end(), frame.begin(), frame.begin() + long(torn));
      FlushLocked(s);
      s.surviving_override = s.flushed;
      break;
    }
    case WalCrashPoint::kBetweenStreams:
      // This stream's group commit completed; the process died before the
      // peer streams synced theirs, so the streams diverge.
      s.buf.insert(s.buf.end(), frame.begin(), frame.end());
      FlushLocked(s);
      ::fdatasync(s.fd);
      s.synced = s.flushed;
      s.surviving_override = s.flushed;
      break;
    case WalCrashPoint::kNone:
      break;
  }
}

void ParallelWal::CrashNow(WalCrashPoint point) {
  if (!ok_ || point == WalCrashPoint::kNone) return;
  bool expected = false;
  if (!crashed_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return;  // Already crashed; the first image wins.
  }
  // Unlike TriggerCrashLocked there is no in-flight frame: the crash comes
  // from outside the append path (e.g. between a version install and its
  // commit append). Stream 0 stands in as the trigger stream for the
  // point-specific image; the peers keep the default last-synced prefix.
  Stream& s = streams_[0];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    switch (point) {
      case WalCrashPoint::kBeforeFsync:
        // Every unsynced byte on every stream is lost.
        break;
      case WalCrashPoint::kMidRecord: {
        // The stream's pending records reach the disk followed by a partial
        // frame header - the torn tail recovery must detect and truncate.
        static constexpr uint8_t kTornTail[] = {0x28, 0x00, 0x00,
                                                0x00, 0x5A, 0xA5};
        s.buf.insert(s.buf.end(), std::begin(kTornTail), std::end(kTornTail));
        FlushLocked(s);
        s.surviving_override = s.flushed;
        break;
      }
      case WalCrashPoint::kBetweenStreams:
        // This stream's group commit completed; the peers lose theirs.
        FlushLocked(s);
        ::fdatasync(s.fd);
        s.synced = s.flushed;
        s.surviving_override = s.flushed;
        break;
      case WalCrashPoint::kNone:
        break;
    }
  }
  if (options_.on_crash) options_.on_crash();
}

bool ParallelWal::AppendCommit(TxnId txn, const TimestampVector& vec,
                               std::span<const ItemId> writes,
                               WalAppendTicket* ticket) {
  if (!ok_ || closed_.load(std::memory_order_acquire) ||
      crashed_.load(std::memory_order_acquire)) {
    append_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  assert(vec.size() == options_.k);
  std::vector<uint8_t> frame;
  frame.reserve(wal_internal::kFrameHeaderBytes + 8 + 8 * options_.k +
                4 * writes.size());
  wal_internal::EncodeFrame(txn, vec, writes, &frame);

  const uint32_t idx =
      uint32_t(obs_internal::ThreadSlot() % streams_.size());
  Stream& s = streams_[idx];
  std::lock_guard<std::mutex> lock(s.mu);
  if (crashed_.load(std::memory_order_acquire)) {
    append_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t n = appends_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.crash != nullptr && options_.crash->armed() &&
      n >= options_.crash->at_append) {
    bool expected = false;
    if (crashed_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
      TriggerCrashLocked(s, frame);
      if (options_.on_crash) options_.on_crash();
    }
    append_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  s.buf.insert(s.buf.end(), frame.begin(), frame.end());
  ++s.appended;
  s.frame_bytes += frame.size();
  ++s.pending_records;
  if (ticket != nullptr) {
    ticket->stream = idx;
    ticket->end_offset = s.flushed + s.buf.size();
    ticket->sync_wait_us = 0;
  }
  // Clock reads only when the caller asked for the ticket (phase
  // attribution); the unticketed hot path stays clock-free.
  const auto sync_timed = [&] {
    if (ticket == nullptr) {
      SyncLocked(s);
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    SyncLocked(s);
    ticket->sync_wait_us = uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  switch (options_.sync_policy) {
    case WalSyncPolicy::kEveryCommit:
      sync_timed();
      break;
    case WalSyncPolicy::kGroupCommit:
      if (s.pending_records >= options_.group_commit_ops) sync_timed();
      break;
    case WalSyncPolicy::kNone:
      // Keep the user-space buffer bounded; write() without sync.
      if (s.buf.size() >= (1u << 20)) FlushLocked(s);
      break;
  }
  return true;
}

void ParallelWal::SyncAll() {
  if (!ok_ || crashed_.load(std::memory_order_acquire)) return;
  for (Stream& s : streams_) {
    std::lock_guard<std::mutex> lock(s.mu);
    if (crashed_.load(std::memory_order_acquire)) return;
    SyncLocked(s);
  }
}

void ParallelWal::Close() {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true)) return;
  if (!ok_) return;
  const bool crashed = crashed_.load(std::memory_order_acquire);
  for (Stream& s : streams_) {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.fd < 0) continue;
    if (crashed) {
      // Materialize the crash image: unsynced bytes are lost, torn
      // fragments and already-synced prefixes survive.
      const uint64_t surviving = s.surviving_override != ~0ull
                                     ? s.surviving_override
                                     : s.synced;
      s.buf.clear();
      if (::ftruncate(s.fd, off_t(surviving)) == 0) {
        ::fdatasync(s.fd);
      }
    } else {
      FlushLocked(s);
      ::fdatasync(s.fd);
      s.synced = s.flushed;
    }
    ::close(s.fd);
    s.fd = -1;
  }
  // Only a usable WAL registered the collector; this folds its final counts
  // into the registry.
  if (options_.metrics != nullptr) options_.metrics->RemoveCollector(this);
}

uint64_t ParallelWal::SyncedBytes(uint32_t stream) const {
  const Stream& s = streams_.at(stream);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.synced;
}

WalStats ParallelWal::stats() const {
  WalStats out;
  out.append_failures = append_failures_.load(std::memory_order_relaxed);
  out.fsyncs = fsyncs_total_.load(std::memory_order_relaxed);
  for (const Stream& s : streams_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.appends += s.appended;
    out.bytes += s.frame_bytes;
  }
  return out;
}

WalRecovery ParallelWal::Recover(const std::string& dir, bool truncate_torn) {
  using wal_internal::DecodeFrame;
  using wal_internal::DecodeStreamHeader;
  using wal_internal::kStreamHeaderBytes;
  WalRecovery out;
  for (uint32_t i = 0;; ++i) {
    const std::string path = StreamPath(dir, i);
    std::error_code ec;
    if (!fs::exists(path, ec) || ec) break;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      out.error = "cannot read " + path;
      return out;
    }
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    WalStreamRecovery info;
    info.path = path;
    info.file_bytes = bytes.size();
    if (bytes.empty()) {
      // A stream that crashed before its first fsync: legitimately empty.
      out.streams.push_back(std::move(info));
      continue;
    }
    uint32_t k = 0;
    uint32_t stream_id = 0;
    if (!DecodeStreamHeader(bytes.data(), bytes.size(), &k, &stream_id)) {
      // Header never made it to disk intact; the whole file is a torn tail.
      info.torn = true;
      info.valid_bytes = 0;
      ++out.torn_streams;
      if (truncate_torn) fs::resize_file(path, 0, ec);
      out.streams.push_back(std::move(info));
      continue;
    }
    if (out.k == 0) {
      out.k = k;
    } else if (out.k != k) {
      out.error = path + ": k=" + std::to_string(k) +
                  " does not match earlier streams (k=" +
                  std::to_string(out.k) + ")";
      return out;
    }
    size_t off = kStreamHeaderBytes;
    uint64_t seq = 0;
    for (;;) {
      WalCommitRecord rec(k);
      const size_t consumed =
          DecodeFrame(bytes.data() + off, bytes.size() - off, k, &rec);
      if (consumed == 0) break;
      rec.stream = i;
      rec.seq = seq++;
      out.records.push_back(std::move(rec));
      off += consumed;
    }
    info.valid_bytes = off;
    info.records = seq;
    info.torn = off < bytes.size();
    if (info.torn) {
      ++out.torn_streams;
      if (truncate_torn) fs::resize_file(path, off, ec);
    }
    out.streams.push_back(std::move(info));
  }
  if (out.streams.empty()) {
    out.error = "no WAL streams found in " + dir;
    return out;
  }
  // Merge by vector order: raw lexicographic element comparison (the
  // undefined sentinel INT64_MIN sorts low — see WalRecovery::records for
  // why this refines the Definition-6 order on conflicting pairs).
  std::sort(out.records.begin(), out.records.end(),
            [](const WalCommitRecord& a, const WalCommitRecord& b) {
              const size_t k = a.vec.size();
              for (size_t m = 0; m < k; ++m) {
                const TsElement av =
                    a.vec.IsDefined(m) ? a.vec.Get(m) : kUndefinedElement;
                const TsElement bv =
                    b.vec.IsDefined(m) ? b.vec.Get(m) : kUndefinedElement;
                if (av != bv) return av < bv;
              }
              if (a.stream != b.stream) return a.stream < b.stream;
              return a.seq < b.seq;
            });
  for (size_t r = 0; r < out.records.size(); ++r) {
    for (ItemId item : out.records[r].writes) {
      out.item_writer[item] = r;
    }
  }
  out.ok = true;
  return out;
}

}  // namespace mdts
