#ifndef MDTS_OBS_SAMPLER_H_
#define MDTS_OBS_SAMPLER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace mdts {

/// One timestamped registry snapshot in the sampler ring.
struct Sample {
  uint64_t seq = 0;   // Strictly increasing across the sampler's lifetime.
  double time = 0.0;  // Seconds: steady-clock (thread mode) or whatever
                      // monotone clock the manual driver passes (the DMT
                      // simulation passes simulated time).
  MetricsSnapshot snapshot;
};

/// Bucket-wise difference cur - prev of two snapshots of the SAME
/// histogram (cur taken later). count/sum/buckets subtract exactly; the
/// window's min is unknowable from cumulative state (reported as 0) and
/// max is bounded by cur.max, which Percentile() uses as its clamp.
HistogramSnapshot HistogramDelta(const HistogramSnapshot& cur,
                                 const HistogramSnapshot& prev);

struct SamplerOptions {
  /// Registry to snapshot. Required; must outlive the sampler.
  MetricsRegistry* registry = nullptr;

  /// Background-thread cadence (Start()). Manual TickOnce drivers ignore
  /// it; it is still exported as the interval hint in SeriesJson().
  uint64_t interval_ms = 100;

  /// Ring capacity: how many windows /series.json can look back on. At the
  /// default 100 ms cadence, 600 samples = one minute of history.
  size_t capacity = 600;
};

/// Windowed time-series sampler: periodically snapshots a MetricsRegistry
/// into a fixed-capacity ring and derives per-window rates (counter deltas
/// over dt) and histogram-delta percentiles on export. Runs either on its
/// own background thread (Start/Stop) or driven manually via TickOnce -
/// the DMT simulation ticks it on simulated time, which is what makes the
/// starvation-watchdog tests deterministic.
///
/// Thread safety: TickOnce, SeriesJson, Ring and alerts may be called
/// concurrently (one mutex serializes them); watchdogs must be added
/// before the first tick.
class Sampler {
 public:
  explicit Sampler(const SamplerOptions& options);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Registers a starvation watchdog evaluated at every tick, after the
  /// snapshot is taken (so the sample still shows the window's peak).
  void AddStarvationWatchdog(const StarvationWatchdogOptions& options);

  /// Takes one sample at the given timestamp (seconds, any monotone
  /// clock). A non-increasing timestamp - e.g. a second simulation run
  /// restarting its clock at 0 - rebases that and all later ticks to
  /// resume just past the previous sample, so the ring's timestamps are
  /// always strictly monotone while within-run spacing stays exact.
  void TickOnce(double now_seconds);

  /// Takes one sample at the steady-clock time since construction.
  void TickOnce();

  /// Spawns the background thread sampling every interval_ms. No-op if
  /// already running.
  void Start();

  /// Stops and joins the background thread (idempotent; the destructor
  /// calls it). Manual TickOnce remains usable afterwards.
  void Stop();

  /// Copy of the ring, oldest first.
  std::vector<Sample> Ring() const;

  /// Alerts across every registered watchdog, in raise order.
  std::vector<WatchdogAlert> alerts() const;

  /// Total ticks taken (>= ring size once the ring has wrapped).
  uint64_t samples_taken() const;

  /// The ring as derived windows, newest state last:
  ///   {"interval_ms": ..., "samples_taken": ...,
  ///    "windows": [{"seq", "t", "dt", "rates": {counter: delta/dt},
  ///                 "gauges": {...}, "histograms": {name: {"count",
  ///                 "p50", "p99"}}}, ...],
  ///    "alerts": [WatchdogAlert...]}
  /// Windows need two samples; rates list counters with nonzero deltas,
  /// histograms entries with nonzero window counts.
  std::string SeriesJson() const;

  const SamplerOptions& options() const { return options_; }

 private:
  void TickLocked(double now);
  double SteadySeconds() const;

  SamplerOptions options_;
  mutable std::mutex mu_;
  std::deque<Sample> ring_;
  std::deque<StarvationWatchdog> watchdogs_;
  uint64_t seq_ = 0;
  double last_time_ = 0.0;
  double time_offset_ = 0.0;  // Rebase across clock-restarting drivers.
  bool ticked_ = false;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace mdts

#endif  // MDTS_OBS_SAMPLER_H_
