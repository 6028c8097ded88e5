#include "obs/flight.h"

#include <algorithm>
#include <bit>
#include <ctime>
#include <string>

#include "common/bench_json.h"

namespace mdts {

const char* TxnPhaseName(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kAdmission:
      return "admission";
    case TxnPhase::kLock:
      return "lock";
    case TxnPhase::kDecide:
      return "decide";
    case TxnPhase::kMvRead:
      return "mv_read";
    case TxnPhase::kWalAppend:
      return "wal_append";
    case TxnPhase::kFsync:
      return "fsync";
    case TxnPhase::kAck:
      return "ack";
    case TxnPhase::kNumPhases:
      break;
  }
  return "unknown";
}

uint64_t FlightRecorder::CoarseNowUs() {
  timespec ts;
#ifdef CLOCK_MONOTONIC_COARSE
  clock_gettime(CLOCK_MONOTONIC_COARSE, &ts);
#else
  clock_gettime(CLOCK_MONOTONIC, &ts);
#endif
  return static_cast<uint64_t>(ts.tv_sec) * 1000000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

std::string FlightRecord::ToJson() const {
  std::string out = "{\"seq\": " + std::to_string(seq);
  out += ", \"time_us\": " + std::to_string(time_us);
  out += ", \"ring\": " + std::to_string(ring);
  out += ", \"txn\": " + std::to_string(txn);
  out += std::string(", \"event\": \"") + (commit ? "commit" : "abort") + "\"";
  if (!commit) {
    out += std::string(", \"reason\": \"") + AbortReasonName(reason) + "\"";
    if (blocker != 0) out += ", \"blocker\": " + std::to_string(blocker);
    if (has_op) {
      out += std::string(", \"op_type\": \"") +
             (op.type == OpType::kWrite ? "W" : "R") + "\"";
      out += ", \"op_item\": " + std::to_string(op.item);
    }
  }
  out += ", \"writes_total\": " + std::to_string(writes_total);
  out += ", \"writes\": [";
  for (size_t q = 0; q < writes.size(); ++q) {
    if (q != 0) out += ", ";
    out += std::to_string(writes[q]);
  }
  out += "]";
  if (phases_sampled) {
    out += ", \"phases\": {";
    bool first = true;
    for (size_t p = 0; p < kNumTxnPhases; ++p) {
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + TxnPhaseName(static_cast<TxnPhase>(p)) +
             "\": " + std::to_string(phase_us[p]);
    }
    out += "}";
  }
  out += ", \"k\": " + std::to_string(k);
  out += ", \"vec\": [";
  for (size_t m = 0; m < vec.size(); ++m) {
    if (m != 0) out += ", ";
    out += vec[m] == kUndefinedElement ? std::string("\"*\"")
                                       : std::to_string(vec[m]);
  }
  out += "]}";
  return out;
}

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : options_(options),
      ring_mask_(std::bit_ceil(std::max<size_t>(options.rings, 1)) - 1),
      rings_(std::make_unique<Ring[]>(ring_mask_ + 1)) {
  const size_t capacity = std::max<size_t>(options.capacity, 2);
  for (size_t r = 0; r <= ring_mask_; ++r) rings_[r].Init(capacity);
  options_.rings = ring_mask_ + 1;
  options_.capacity = rings_[0].capacity();
}

void FlightRecorder::Record(size_t ring, TxnId txn, bool commit,
                            AbortReason reason, TxnId blocker, const Op* op,
                            bool sampled, std::span<const ItemId> writes,
                            const uint32_t* phase_us,
                            const TimestampVector* vec, uint64_t time_us) {
  const size_t k = vec != nullptr ? vec->size() : 0;
  const size_t k_rec = std::min(k, kMaxVecElements);
  const size_t nw = std::min(writes.size(), kMaxWrites);
  uint64_t flags = 0;
  if (commit) flags |= 1;
  if (op != nullptr) flags |= 2;
  if (sampled) flags |= 4;
  if (op != nullptr && op->type == OpType::kWrite) flags |= 8;

  rings_[ring & ring_mask_].Write([&](const Ring::Payload& p) {
    p.Put(0, seq_.fetch_add(1, std::memory_order_relaxed) + 1);
    p.Put(1, time_us);
    p.Put(2, static_cast<uint64_t>(txn) | (flags << 32) |
                 (static_cast<uint64_t>(reason) << 40) |
                 (static_cast<uint64_t>(k_rec) << 48) |
                 (static_cast<uint64_t>(nw) << 56));
    p.Put(3, static_cast<uint64_t>(blocker) |
                 (static_cast<uint64_t>(op != nullptr ? op->item : 0) << 32));
    p.Put(4, writes.size());
    // Dead words are not stored: Drain() decodes phase words only when the
    // sampled flag is set, write words only up to nw, and vector words only
    // up to k_rec, so whatever a slot's previous occupant left there is
    // unreachable. A typical record (k <= 4, unsampled) then touches two
    // cache lines instead of three - on a cycling ring every line is cold,
    // so the skipped stores are the record's main cost.
    if (phase_us != nullptr) {
      for (size_t w = 0; w < kPhaseWords; ++w) {
        const size_t ph = w * 2;
        uint64_t v = phase_us[ph];
        if (ph + 1 < kNumTxnPhases) {
          v |= static_cast<uint64_t>(phase_us[ph + 1]) << 32;
        }
        p.Put(kHeaderWords + w, v);
      }
    }
    for (size_t w = 0; w * 2 < nw; ++w) {
      const size_t q = w * 2;
      uint64_t v = writes[q];
      if (q + 1 < nw) v |= static_cast<uint64_t>(writes[q + 1]) << 32;
      p.Put(kHeaderWords + kPhaseWords + w, v);
    }
    for (size_t m = 0; m < k_rec; ++m) {
      p.Put(kHeaderWords + kPhaseWords + kWriteWords + m,
            std::bit_cast<uint64_t>(static_cast<int64_t>(vec->Get(m))));
    }
  });
}

void FlightRecorder::RecordCommit(size_t ring, TxnId txn,
                                  const TimestampVector& vec,
                                  std::span<const ItemId> writes,
                                  const uint32_t* phase_us, uint64_t time_us) {
  commits_.fetch_add(1, std::memory_order_relaxed);
  Record(ring, txn, /*commit=*/true, AbortReason::kNone, 0, nullptr,
         phase_us != nullptr, writes, phase_us, &vec, time_us);
}

void FlightRecorder::RecordAbort(size_t ring, TxnId txn, AbortReason reason,
                                 TxnId blocker, const Op* op,
                                 const TimestampVector* vec,
                                 uint64_t time_us) {
  aborts_by_reason_[static_cast<size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  Record(ring, txn, /*commit=*/false, reason, blocker, op, false, {}, nullptr,
         vec, time_us);
}

std::vector<FlightRecord> FlightRecorder::Drain() const {
  std::vector<FlightRecord> out;
  for (size_t ri = 0; ri <= ring_mask_; ++ri) {
    rings_[ri].ForEach([&](const auto& words) {
      FlightRecord rec;
      rec.seq = words[0];
      rec.time_us = words[1];
      rec.ring = static_cast<uint32_t>(ri);
      rec.txn = static_cast<TxnId>(words[2] & 0xFFFFFFFFu);
      const uint64_t flags = (words[2] >> 32) & 0xFF;
      rec.commit = (flags & 1) != 0;
      rec.has_op = (flags & 2) != 0;
      rec.phases_sampled = (flags & 4) != 0;
      rec.reason = static_cast<AbortReason>((words[2] >> 40) & 0xFF);
      const size_t k_rec = (words[2] >> 48) & 0xFF;
      const size_t nw = (words[2] >> 56) & 0xFF;
      rec.blocker = static_cast<TxnId>(words[3] & 0xFFFFFFFFu);
      if (rec.has_op) {
        rec.op.txn = rec.txn;
        rec.op.type = (flags & 8) != 0 ? OpType::kWrite : OpType::kRead;
        rec.op.item = static_cast<ItemId>(words[3] >> 32);
      }
      rec.writes_total = static_cast<uint32_t>(words[4]);
      if (rec.phases_sampled) {
        // Unsampled records skip the phase stores (see Record), so the
        // words may hold a previous occupant's slices - leave the zeros.
        for (size_t p = 0; p < kNumTxnPhases; ++p) {
          const uint64_t v = words[kHeaderWords + p / 2];
          rec.phase_us[p] =
              static_cast<uint32_t>(p % 2 == 0 ? v & 0xFFFFFFFFu : v >> 32);
        }
      }
      for (size_t q = 0; q < nw; ++q) {
        const uint64_t v = words[kHeaderWords + kPhaseWords + q / 2];
        rec.writes.push_back(
            static_cast<ItemId>(q % 2 == 0 ? v & 0xFFFFFFFFu : v >> 32));
      }
      rec.k = k_rec;  // The recorded vector's size (cells may differ in k).
      for (size_t m = 0; m < k_rec; ++m) {
        rec.vec.push_back(static_cast<TsElement>(std::bit_cast<int64_t>(
            words[kHeaderWords + kPhaseWords + kWriteWords + m])));
      }
      out.push_back(std::move(rec));
    });
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

uint64_t FlightRecorder::aborts() const {
  uint64_t total = 0;
  for (size_t r = 0; r < kNumAbortReasons; ++r) {
    total += aborts_by_reason_[r].load(std::memory_order_relaxed);
  }
  return total;
}

AbortReasonCounts FlightRecorder::abort_reasons() const {
  AbortReasonCounts c;
  for (size_t r = 0; r < kNumAbortReasons; ++r) {
    c.counts[r] = aborts_by_reason_[r].load(std::memory_order_relaxed);
  }
  return c;
}

std::string FlightRecorder::ToJson() const {
  const std::vector<FlightRecord> records = Drain();
  std::string out = "{\"meta\": {\"rings\": " + std::to_string(ring_mask_ + 1);
  out += ", \"capacity\": " + std::to_string(capacity());
  out += ", \"k\": " + std::to_string(options_.k) + "}";
  out += ", \"totals\": {\"commits\": " + std::to_string(commits());
  out += ", \"aborts\": " + std::to_string(aborts());
  out += ", \"abort_reasons\": " + abort_reasons().ToJson() + "}";
  out += ", \"records\": [";
  for (size_t q = 0; q < records.size(); ++q) {
    if (q != 0) out += ", ";
    out += records[q].ToJson();
  }
  out += "]";
  out += "}";
  return out;
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

}  // namespace mdts
