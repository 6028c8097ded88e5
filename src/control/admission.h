#ifndef MDTS_CONTROL_ADMISSION_H_
#define MDTS_CONTROL_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace mdts {

/// What the controller did in one actuation (AdmissionDecision::action).
enum class AdmissionAction : uint8_t {
  kGrow,             ///< Additive batch-size increase.
  kShrink,           ///< Multiplicative batch-size decrease.
  kEmergencyShrink,  ///< Watchdog-alert path: straight to kMinBatch.
  kWidenK,           ///< active_k + 1 (MT(k+) widening).
  kNarrowK,          ///< active_k - 1.
};

/// Stable snake_case identifier ("grow", "shrink", ...).
const char* AdmissionActionName(AdmissionAction action);

/// One controller actuation, with the window signals that justified it.
/// The trace of these is the controller's deterministic decision record:
/// driven by manual Sampler::TickOnce on simulated time over a fixed
/// workload schedule, two runs produce bit-identical traces (ToString has
/// no wall-clock, pointer, or locale dependence).
struct AdmissionDecision {
  uint64_t seq = 0;   ///< Sampler window sequence that triggered it.
  double time = 0.0;  ///< Window timestamp (the tick's `now`).
  AdmissionAction action = AdmissionAction::kGrow;
  uint32_t batch_size = 0;  ///< Advisory batch size AFTER the action.
  uint32_t k = 0;           ///< Active protocol width AFTER the action.
  double abort_rate = 0.0;  ///< Window rejects / (commits + rejects).
  /// Vector-capacity share of the window's rejects: the kLexOrder +
  /// kEncodingExhausted + kVersionConflict fraction - the reject classes
  /// a wider k can actually absorb (more elements = more encoding room).
  double vector_frac = 0.0;
  uint64_t window_commits = 0;
  uint64_t window_rejects = 0;
  uint64_t window_fallbacks = 0;  ///< engine.batch_fallbacks delta.

  /// One line, fixed field order: "seq=3 t=1.5 action=shrink batch=4 k=3
  /// abort_rate=0.71 vector_frac=0.12 commits=9 rejects=22 fallbacks=1".
  std::string ToString() const;
};

struct AdmissionControlOptions {
  /// Registry carrying the engine's counters ("engine.commits",
  /// "engine.rejected.<reason>", "engine.batch_fallbacks",
  /// "engine.lock_contention") - the controller's sensors, read from one
  /// snapshot per tick, so every window is exact - and receiving its own
  /// "engine.adaptive.*" gauges/counters. Required; must outlive the
  /// controller.
  MetricsRegistry* registry = nullptr;

  /// Engine whose runtime width the k actuator drives (SetActiveK).
  /// Optional: null means the controller only tracks k internally (tests
  /// that exercise the state machine without an engine).
  ShardedMtkEngine* engine = nullptr;

  /// Flight recorder receiving one control event per actuation. Optional.
  FlightRecorder* flight = nullptr;

  /// Window classification. A window is PRESSURED when its abort rate is
  /// >= abort_rate_shrink, its engine.batch_fallbacks delta is nonzero, or
  /// its lock-contention-per-op exceeds kContentionPerOpShrink; QUIET when
  /// the abort rate is <= abort_rate_quiet and none of those fire. In
  /// between, streaks reset but nothing actuates (hysteresis band).
  double abort_rate_shrink = 0.5;
  double abort_rate_quiet = 0.2;

  /// k actuator bounds: [min_k, engine's physical k] (max_k caps it
  /// further when nonzero).
  uint32_t min_k = 1;
  uint32_t max_k = 0;  ///< 0 = the engine's physical k (or initial k).
};

/// Closed-loop admission controller: consumes the engine's registry
/// counters window by window (drive it from Sampler::AddTickHook, after
/// the watchdogs) and feeds two actuators back into admission - the
/// advisory batch size (AIMD with hysteresis and cool-down) and the
/// engine's runtime MT(k+) width (SetActiveK). The starvation watchdog's
/// alert path plugs into EmergencyShrink, replacing its alert-only
/// behavior with an immediate collapse to kMinBatch.
///
/// Thread safety: TickOnce / EmergencyShrink / decisions() serialize on
/// one mutex; batch_size() and active_k() are lock-free reads, safe to
/// call from admission loops concurrent with ticking. Determinism: given
/// the same tick sequence over the same counter history, the controller
/// makes the same decisions - it reads only registry values and its own
/// state, never a clock.
class AdmissionController {
 public:
  /// Batch-size actuator range and AIMD steps. The controller starts at
  /// kMaxBatch (optimistic).
  static constexpr uint32_t kMinBatch = 1;
  static constexpr uint32_t kMaxBatch = 32;
  static constexpr uint32_t kGrowStep = 4;      ///< Additive increase.
  static constexpr uint32_t kShrinkFactor = 2;  ///< Divisor per shrink.

  /// Lock-contention-per-op above which a window counts as pressured.
  static constexpr double kContentionPerOpShrink = 2.0;

  /// Dwell / cool-down (in sampler windows): grow only after this many
  /// consecutive quiet windows, and never within kCooldownWindows of a
  /// shrink - the cliff-oscillation guard: a shrink's effect needs at
  /// least one full window to show in the sensors, so reacting faster
  /// than the cool-down would re-decide on pre-shrink evidence.
  static constexpr uint64_t kQuietWindowsToGrow = 2;
  static constexpr uint64_t kCooldownWindows = 2;

  /// k actuator: widen by one after kWidenDwell consecutive pressured
  /// windows whose rejects are dominated (>= kWidenRejectFrac) by the
  /// vector-capacity classes; narrow by one after kNarrowDwell
  /// consecutive quiet windows.
  static constexpr double kWidenRejectFrac = 0.5;
  static constexpr uint64_t kWidenDwell = 2;
  static constexpr uint64_t kNarrowDwell = 8;

  /// Windows with fewer than this many decided operations carry no signal
  /// (a batch boundary can land anywhere in them); they are skipped
  /// without touching any streak.
  static constexpr uint64_t kMinWindowOps = 16;

  /// Decisions retained for decisions()/TraceString(); the oldest are
  /// dropped past this. Plenty for any test or bench run.
  static constexpr size_t kTraceCapacity = 4096;

  explicit AdmissionController(const AdmissionControlOptions& options);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Consumes the window that ended at `now` (sampler-window semantics:
  /// pass the Sampler tick's seq/now straight through) and actuates.
  void TickOnce(uint64_t seq, double now);

  /// Watchdog-alert path: collapse the batch size to kMinBatch immediately
  /// and start a fresh cool-down. `seq`/`now` tag the decision (pass the
  /// alert's last_seq/last_time). No-op when already at kMinBatch.
  void EmergencyShrink(uint64_t seq, double now);

  /// Current advisory batch size. Lock-free.
  uint32_t batch_size() const {
    return batch_.load(std::memory_order_relaxed);
  }

  /// Current active protocol width the controller believes in. Lock-free.
  uint32_t active_k() const { return k_.load(std::memory_order_relaxed); }

  /// Copy of the retained decision trace, oldest first.
  std::vector<AdmissionDecision> decisions() const;

  /// The trace as ToString() lines joined with '\n' (bit-identical across
  /// deterministic replays).
  std::string TraceString() const;

  uint64_t grows() const { return grows_.load(std::memory_order_relaxed); }
  uint64_t shrinks() const {
    return shrinks_.load(std::memory_order_relaxed);
  }
  uint64_t k_switches() const {
    return k_switches_.load(std::memory_order_relaxed);
  }

  const AdmissionControlOptions& options() const { return options_; }

 private:
  /// Cumulative sensor values, read from one registry snapshot.
  struct Sensors {
    uint64_t commits = 0;
    uint64_t rejects = 0;
    uint64_t vector_rejects = 0;  ///< The vector-capacity reject classes.
    uint64_t fallbacks = 0;
    uint64_t contention = 0;
  };
  Sensors ReadSensors() const;

  /// Applies `action`, records it (trace, counts, flight), and publishes
  /// the new batch/k gauges. mu_ held.
  void ActuateLocked(uint64_t seq, double now, AdmissionAction action,
                     uint32_t new_batch, uint32_t new_k, double abort_rate,
                     double vector_frac, uint64_t commits, uint64_t rejects,
                     uint64_t fallbacks);

  AdmissionControlOptions options_;
  uint32_t physical_k_;  ///< Upper bound for the k actuator.

  // Published levels ("engine.adaptive.batch_size" / ".k"); the action
  // counts below reach the registry through its collector.
  Gauge* g_batch_ = nullptr;
  Gauge* g_k_ = nullptr;

  mutable std::mutex mu_;
  // Last-seen cumulative sensor values (window deltas subtract these).
  Sensors last_;
  // Streak state (see the constants above).
  uint64_t quiet_streak_ = 0;
  uint64_t widen_streak_ = 0;
  uint64_t narrow_streak_ = 0;
  uint64_t cooldown_ = 0;
  std::vector<AdmissionDecision> trace_;

  // Lock-free read side; the registry collector reads only these.
  std::atomic<uint32_t> batch_{kMaxBatch};
  std::atomic<uint32_t> k_;
  std::atomic<uint64_t> grows_{0};
  std::atomic<uint64_t> shrinks_{0};
  std::atomic<uint64_t> k_switches_{0};
};

}  // namespace mdts

#endif  // MDTS_CONTROL_ADMISSION_H_
