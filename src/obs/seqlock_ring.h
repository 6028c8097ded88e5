#ifndef MDTS_OBS_SEQLOCK_RING_H_
#define MDTS_OBS_SEQLOCK_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

namespace mdts {

/// Bounded ring of fixed-size records of `kWords` 64-bit words: the one
/// event ring behind FlightRecorder (transaction records and control
/// events), SpanRing and the Tracer. Writers never block and never lose a
/// newer record (the ring overwrites its oldest slot); a drain may run
/// concurrently with writers and skips any slot it caught mid-write.
///
/// Write discipline: a relaxed fetch_add ticket picks the slot; the writer
/// claims it (stamp := busy), stores the payload words relaxed, then
/// publishes stamp := ticket + 2 with a release store, and finally
/// prefetches the next slot for write. A writer stores only the words its
/// record uses: words a record leaves out keep a previous occupant's
/// values, so the record must encode how many words a reader may decode.
/// The claim is an exchange, not a plain store, because a writer lapped by
/// `capacity` newer tickets still holds its slot: the newer writer sees
/// the busy stamp and takes a fresh ticket instead of interleaving its
/// stores with the lapped writer's. Without lapping that never loops.
template <size_t kWords>
class alignas(64) SeqlockRing {
  struct Slot {
    /// 0 = never written, kBusy = claimed, else ticket + 2 once the
    /// payload below is complete.
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> w[kWords] = {};
  };

  static constexpr uint64_t kBusy = 1;
  static constexpr size_t kSlotLines = (sizeof(Slot) + 63) / 64;

 public:
  /// Handed to Write's fill callback: stores payload words into the slot.
  struct Payload {
    std::atomic<uint64_t>* w;
    void Put(size_t idx, uint64_t v) const {
      w[idx].store(v, std::memory_order_relaxed);
    }
  };

  /// Allocates `capacity` slots, rounded up to a power of two. Call once,
  /// before any Write or drain (rings live in arrays, so this is not a
  /// constructor).
  void Init(size_t capacity) {
    mask_ = std::bit_ceil(std::max<size_t>(capacity, 1)) - 1;
    slots_ = std::make_unique<Slot[]>(mask_ + 1);
  }

  size_t capacity() const { return mask_ + 1; }

  /// Appends one record: `fill(payload)` stores its words with
  /// payload.Put(idx, value). Safe for any number of concurrent writers.
  template <typename Fill>
  void Write(Fill&& fill) {
    uint64_t ticket;
    Slot* s;
    do {
      ticket = head_.fetch_add(1, std::memory_order_relaxed);
      s = &slots_[ticket & mask_];
    } while (s->stamp.exchange(kBusy, std::memory_order_acquire) == kBusy);
    // The fence keeps the payload stores from becoming visible before the
    // claim; the drain pairs it with an acquire fence before its re-check
    // (Boehm, "Can seqlocks get along with programming language memory
    // models?", MSPC 2012). Neither fence emits an instruction on x86.
    std::atomic_thread_fence(std::memory_order_release);
    fill(Payload{s->w});
    s->stamp.store(ticket + 2, std::memory_order_release);
    // Warm the NEXT slot before leaving: slots cycle, so its lines are
    // cold, and the payload stores above would otherwise stall the
    // caller's next locked instruction while the RFOs complete. The
    // prefetch gives them the whole gap until the next record to arrive.
    Prefetch(slots_[(ticket + 1) & mask_]);
  }

  /// Appends a trivially copyable record that fits the slot (all words).
  template <typename T>
  void WriteValue(const T& value) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8 * kWords);
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    Write([&](const Payload& p) {
      for (size_t i = 0; i < kWords; ++i) p.Put(i, words[i]);
    });
  }

  /// Prefetches (for write) the slot the next record will land in.
  void PrefetchNext() const {
    Prefetch(slots_[head_.load(std::memory_order_relaxed) & mask_]);
  }

  /// Calls `fn(record)` for every published slot, oldest ticket first when
  /// writers are quiescent: the record is the slot's words copied into a
  /// `T` (by default the raw words; a WriteValue type otherwise). Under
  /// concurrent writers it is best-effort: a slot rewritten during its copy
  /// is skipped, never returned torn.
  template <typename T = std::array<uint64_t, kWords>, typename Fn>
  void ForEach(Fn&& fn) const {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8 * kWords);
    uint64_t words[kWords];
    const uint64_t head = head_.load(std::memory_order_acquire);
    for (uint64_t q = 0; q <= mask_; ++q) {
      const Slot& s = slots_[(head + q) & mask_];
      const uint64_t s1 = s.stamp.load(std::memory_order_acquire);
      if (s1 <= kBusy) continue;  // Never written, or being written.
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = s.w[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.stamp.load(std::memory_order_relaxed) != s1) continue;  // Torn.
      T record;
      std::memcpy(&record, words, sizeof(T));
      fn(static_cast<const T&>(record));
    }
  }

 private:
  static void Prefetch(const Slot& slot) {
    const char* p = reinterpret_cast<const char*>(&slot);
    for (size_t line = 0; line < kSlotLines; ++line) {
      __builtin_prefetch(p + 64 * line, 1, 0);
    }
  }

  std::atomic<uint64_t> head_{0};  ///< Next ticket; slot = ticket & mask.
  uint64_t mask_ = 0;              ///< capacity - 1.
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace mdts

#endif  // MDTS_OBS_SEQLOCK_RING_H_
