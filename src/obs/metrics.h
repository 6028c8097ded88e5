#ifndef MDTS_OBS_METRICS_H_
#define MDTS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mdts {

namespace obs_internal {
/// Dense per-thread index (0, 1, 2, ...) assigned on first use, process
/// wide. Histograms stripe their slots by it so concurrent writers from
/// distinct threads touch distinct cache lines.
size_t ThreadSlot();

/// Appends v in decimal; the text and JSON writers of src/obs share it.
void AppendU64(std::string* out, uint64_t v);
}  // namespace obs_internal

/// Monotonically increasing event counter, safe for concurrent writers:
/// one relaxed atomic word. No hot path writes a registry counter - the
/// engine, the WAL and DMT(k) publish through pull collectors - so its
/// writers (watchdog raises, collector folds) are rare.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time level instrument (set/add semantics), safe for concurrent
/// writers. Unlike Counter it can move down. Like it, a single atomic word:
/// gauge updates are rare (per restart / per sampling window), never
/// per-operation hot-path events.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the gauge to at least v (CAS max). Watchdog sources publish
  /// per-transaction consecutive-abort peaks this way; the sampler then
  /// consumes the window's peak with Exchange(0).
  void SetMax(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  /// Atomically reads and replaces the value (windowed-max consumption).
  int64_t Exchange(int64_t v) {
    return v_.exchange(v, std::memory_order_relaxed);
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Read-only copy of a histogram's state at one instant.
struct HistogramSnapshot {
  /// buckets[b] counts recorded values v with bit_width(v) == b, i.e.
  /// bucket 0 holds v == 0 and bucket b >= 1 holds 2^(b-1) <= v < 2^b:
  /// log-scale, one bucket per power of two.
  static constexpr size_t kBuckets = 65;
  std::array<uint64_t, kBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // Meaningful only when count > 0.
  uint64_t max = 0;

  /// Worst recorded value and its caller-supplied tag (a transaction id in
  /// the engine's phase histograms, linking the bucket to a trace span).
  /// Only populated by RecordWithExemplar; (0, 0) when never tagged.
  uint64_t exemplar_value = 0;
  uint64_t exemplar_tag = 0;

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0;
  }
  /// Approximate percentile: the upper bound of the bucket where the
  /// cumulative count crosses p (exact to within the 2x bucket resolution).
  uint64_t Percentile(double p) const;
};

/// Log-scale (power-of-two buckets) histogram for latencies and sizes,
/// safe for concurrent writers. Layout: kSlots cache-line-padded slots.
/// Each of the first kSlots - 1 threads (by obs_internal::ThreadSlot())
/// owns one slot exclusively and bumps it with a plain relaxed load +
/// store - no lock prefix; threads beyond that share the last slot through
/// fetch_add (correct, merely slower).
class Histogram {
 public:
  static constexpr size_t kSlots = 8;
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    const size_t t = obs_internal::ThreadSlot();
    const size_t b = BucketOf(value);
    if (t < kSlots - 1) {
      Slot& s = slots_[t];
      RelaxedBump(s.buckets[b], 1);
      RelaxedBump(s.sum, value);
      const uint64_t mn = s.min.load(std::memory_order_relaxed);
      if (value < mn) s.min.store(value, std::memory_order_relaxed);
      const uint64_t mx = s.max.load(std::memory_order_relaxed);
      if (value > mx) s.max.store(value, std::memory_order_relaxed);
    } else {
      Slot& s = slots_[kSlots - 1];
      s.buckets[b].fetch_add(1, std::memory_order_relaxed);
      s.sum.fetch_add(value, std::memory_order_relaxed);
      AtomicMin(s.min, value);
      AtomicMax(s.max, value);
    }
  }

  /// Record plus exemplar maintenance: when `value` is at least the worst
  /// value seen so far, (value, tag) becomes the histogram's exemplar - so
  /// the snapshot's top bucket always points at a concrete culprit (the
  /// engine tags with the transaction id, which also names the matching
  /// trace span). The two exemplar stores are relaxed and unpaired; a racy
  /// mix of two same-magnitude exemplars is tolerated - the exemplar is a
  /// debugging pointer, not an accounting value.
  void RecordWithExemplar(uint64_t value, uint64_t tag) {
    Record(value);
    if (value >= ex_value_.load(std::memory_order_relaxed)) {
      ex_value_.store(value, std::memory_order_relaxed);
      ex_tag_.store(tag, std::memory_order_relaxed);
    }
  }

  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };

  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;  // bit_width(v).
  }
  static void RelaxedBump(std::atomic<uint64_t>& a, uint64_t n) {
    a.store(a.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }
  static void AtomicMin(std::atomic<uint64_t>& a, uint64_t v);
  static void AtomicMax(std::atomic<uint64_t>& a, uint64_t v);

  Slot slots_[kSlots];
  std::atomic<uint64_t> ex_value_{0};
  std::atomic<uint64_t> ex_tag_{0};
};

/// Deterministic (name-sorted) copy of a registry's state.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// "name value" lines, histograms as "name count=... p50=... p99=...".
  std::string ToText() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
  /// Writes ToJson() to `path`; false (with a message on stderr) on error.
  bool WriteJsonFile(const std::string& path) const;

  /// Counter value by exact name, 0 when absent.
  uint64_t CounterValue(const std::string& name) const;
  /// Sum of counters whose name starts with `prefix`.
  uint64_t CounterSum(const std::string& prefix) const;
  /// Gauge value by exact name, 0 when absent.
  int64_t GaugeValue(const std::string& name) const;
};

/// Pull source of counter and gauge values: appends (name, value) pairs to
/// the snapshot's counters and gauges, in any order.
using MetricsCollector = std::function<void(MetricsSnapshot& out)>;

/// Named counter/histogram registry. Get* registers on first use and
/// returns a pointer that stays valid for the registry's lifetime (deque
/// storage), so hot paths resolve each metric once and then touch only the
/// lock-free instruments. Components that already keep their own counts
/// register a collector instead and pay nothing until a snapshot reads
/// them. Snapshot order is sorted by name, and entries that share a name
/// are summed, making snapshots of equal states byte-identical.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Registers `fn` under `owner` (one collector per owner). Snapshot()
  /// calls it under the registry mutex, so it must not call back into this
  /// registry. Its counters must be cumulative for the owner's lifetime.
  void AddCollector(const void* owner, MetricsCollector fn);
  /// Calls `owner`'s collector one last time, adds its counter values into
  /// this registry's own counters, and unregisters it - so a cumulative
  /// counter never decreases when its owner goes away. Gauges are levels
  /// of the owner and are not carried over; their names stay listed at the
  /// plain gauge's value. No-op for an unknown owner.
  void RemoveCollector(const void* owner);

  MetricsSnapshot Snapshot() const;

 private:
  Counter* CounterLocked(const std::string& name);
  Gauge* GaugeLocked(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::vector<std::pair<const void*, MetricsCollector>> collectors_;
};

/// The process-wide registry every component publishes into by default.
MetricsRegistry& GlobalMetrics();

}  // namespace mdts

#endif  // MDTS_OBS_METRICS_H_
