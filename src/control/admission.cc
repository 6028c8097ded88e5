#include "control/admission.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace mdts {

namespace {

/// Deterministic short float rendering for trace lines (%.6g, no locale).
void AppendNum(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  *out += buf;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  *out += buf;
}

}  // namespace

const char* AdmissionActionName(AdmissionAction action) {
  switch (action) {
    case AdmissionAction::kGrow:
      return "grow";
    case AdmissionAction::kShrink:
      return "shrink";
    case AdmissionAction::kEmergencyShrink:
      return "emergency_shrink";
    case AdmissionAction::kWidenK:
      return "widen_k";
    case AdmissionAction::kNarrowK:
      return "narrow_k";
  }
  return "unknown";
}

std::string AdmissionDecision::ToString() const {
  std::string out = "seq=";
  AppendU64(&out, seq);
  out += " t=";
  AppendNum(&out, time);
  out += " action=";
  out += AdmissionActionName(action);
  out += " batch=";
  AppendU64(&out, batch_size);
  out += " k=";
  AppendU64(&out, k);
  out += " abort_rate=";
  AppendNum(&out, abort_rate);
  out += " vector_frac=";
  AppendNum(&out, vector_frac);
  out += " commits=";
  AppendU64(&out, window_commits);
  out += " rejects=";
  AppendU64(&out, window_rejects);
  out += " fallbacks=";
  AppendU64(&out, window_fallbacks);
  return out;
}

AdmissionController::AdmissionController(
    const AdmissionControlOptions& options)
    : options_(options), k_(1) {
  assert(options_.registry != nullptr);
  if (options_.min_k < 1) options_.min_k = 1;

  // k bounds: the engine's physical vector size caps widening; without an
  // engine the cap is max_k (or min_k when unset - nothing to widen into).
  uint32_t start_k = options_.min_k;
  if (options_.engine != nullptr) {
    physical_k_ = static_cast<uint32_t>(options_.engine->options().k);
    start_k = static_cast<uint32_t>(options_.engine->active_k());
  } else {
    physical_k_ = options_.max_k != 0 ? options_.max_k : options_.min_k;
    start_k = physical_k_;
  }
  if (options_.max_k != 0 && options_.max_k < physical_k_) {
    physical_k_ = options_.max_k;
  }
  if (physical_k_ < options_.min_k) physical_k_ = options_.min_k;
  if (start_k < options_.min_k) start_k = options_.min_k;
  if (start_k > physical_k_) start_k = physical_k_;
  k_.store(start_k, std::memory_order_relaxed);

  MetricsRegistry* reg = options_.registry;
  g_batch_ = reg->GetGauge("engine.adaptive.batch_size");
  g_k_ = reg->GetGauge("engine.adaptive.k");
  g_batch_->Set(kMaxBatch);
  g_k_->Set(start_k);

  // Baseline the sensors at attach time so the first window only covers
  // activity after construction.
  last_ = ReadSensors();

  // Atomics only: TickOnce snapshots the registry while holding mu_.
  reg->AddCollector(this, [this](MetricsSnapshot& out) {
    out.counters.emplace_back("engine.adaptive.grows", grows());
    out.counters.emplace_back("engine.adaptive.shrinks", shrinks());
    out.counters.emplace_back("engine.adaptive.k_switches", k_switches());
  });
}

AdmissionController::~AdmissionController() {
  options_.registry->RemoveCollector(this);
}

AdmissionController::Sensors AdmissionController::ReadSensors() const {
  const MetricsSnapshot snap = options_.registry->Snapshot();
  Sensors s;
  s.commits = snap.CounterValue("engine.commits");
  s.rejects = snap.CounterSum("engine.rejected.");
  // The reject classes a wider vector can absorb: conflicts lost to
  // encoding capacity or to an order fixed through the (too-few) shared
  // elements - as opposed to staleness, throttling, or invalid input,
  // which no amount of dimensions helps.
  for (const AbortReason r :
       {AbortReason::kLexOrder, AbortReason::kEncodingExhausted,
        AbortReason::kVersionConflict}) {
    s.vector_rejects +=
        snap.CounterValue(std::string("engine.rejected.") + AbortReasonName(r));
  }
  s.fallbacks = snap.CounterValue("engine.batch_fallbacks");
  s.contention = snap.CounterValue("engine.lock_contention");
  return s;
}

void AdmissionController::ActuateLocked(uint64_t seq, double now,
                                        AdmissionAction action,
                                        uint32_t new_batch, uint32_t new_k,
                                        double abort_rate, double vector_frac,
                                        uint64_t commits, uint64_t rejects,
                                        uint64_t fallbacks) {
  batch_.store(new_batch, std::memory_order_relaxed);
  k_.store(new_k, std::memory_order_relaxed);
  if (options_.engine != nullptr &&
      (action == AdmissionAction::kWidenK ||
       action == AdmissionAction::kNarrowK)) {
    options_.engine->SetActiveK(new_k);
  }
  g_batch_->Set(new_batch);
  g_k_->Set(new_k);
  switch (action) {
    case AdmissionAction::kGrow:
      grows_.fetch_add(1, std::memory_order_relaxed);
      break;
    case AdmissionAction::kShrink:
    case AdmissionAction::kEmergencyShrink:
      shrinks_.fetch_add(1, std::memory_order_relaxed);
      break;
    case AdmissionAction::kWidenK:
    case AdmissionAction::kNarrowK:
      k_switches_.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  AdmissionDecision d;
  d.seq = seq;
  d.time = now;
  d.action = action;
  d.batch_size = new_batch;
  d.k = new_k;
  d.abort_rate = abort_rate;
  d.vector_frac = vector_frac;
  d.window_commits = commits;
  d.window_rejects = rejects;
  d.window_fallbacks = fallbacks;
  if (trace_.size() >= kTraceCapacity) {
    trace_.erase(trace_.begin());
  }
  trace_.push_back(d);

  if (options_.flight != nullptr) {
    // Control events share the transaction records' dump; the timestamp is
    // the window time in microseconds, so sim-time driven runs stay
    // deterministic (no wall clock).
    options_.flight->RecordControl(
        AdmissionActionName(action), new_batch, new_k,
        static_cast<uint64_t>(now * 1e6));
  }
}

void AdmissionController::TickOnce(uint64_t seq, double now) {
  std::lock_guard<std::mutex> g(mu_);

  // Window deltas from the cumulative counters.
  const Sensors cur = ReadSensors();
  const uint64_t commits = cur.commits - last_.commits;
  const uint64_t rejects = cur.rejects - last_.rejects;
  const uint64_t vector_rejects = cur.vector_rejects - last_.vector_rejects;
  const uint64_t fallbacks = cur.fallbacks - last_.fallbacks;
  const uint64_t contention = cur.contention - last_.contention;
  last_ = cur;

  if (cooldown_ > 0) --cooldown_;

  const uint64_t ops = commits + rejects;
  if (ops < kMinWindowOps) return;  // No signal this window.

  const double abort_rate =
      static_cast<double>(rejects) / static_cast<double>(ops);
  const double vector_frac =
      rejects > 0 ? static_cast<double>(vector_rejects) /
                        static_cast<double>(rejects)
                  : 0.0;
  const double contention_per_op =
      static_cast<double>(contention) / static_cast<double>(ops);
  const bool pressured = abort_rate >= options_.abort_rate_shrink ||
                         fallbacks > 0 ||
                         contention_per_op > kContentionPerOpShrink;
  const bool quiet = !pressured && abort_rate <= options_.abort_rate_quiet;

  const uint32_t batch = batch_.load(std::memory_order_relaxed);
  const uint32_t k = k_.load(std::memory_order_relaxed);

  // Batch actuator: multiplicative shrink on pressure (outside the
  // cool-down), additive grow after a quiet dwell. The middle band only
  // resets the quiet streak - hysteresis against dithering at the cliff.
  if (pressured) {
    quiet_streak_ = 0;
    if (cooldown_ == 0 && batch > kMinBatch) {
      const uint32_t nb = std::max(batch / kShrinkFactor, kMinBatch);
      cooldown_ = kCooldownWindows;
      ActuateLocked(seq, now, AdmissionAction::kShrink, nb, k, abort_rate,
                    vector_frac, commits, rejects, fallbacks);
    }
  } else if (quiet) {
    ++quiet_streak_;
    if (quiet_streak_ >= kQuietWindowsToGrow && cooldown_ == 0 &&
        batch < kMaxBatch) {
      const uint32_t nb = std::min(batch + kGrowStep, kMaxBatch);
      quiet_streak_ = 0;
      ActuateLocked(seq, now, AdmissionAction::kGrow, nb, k, abort_rate,
                    vector_frac, commits, rejects, fallbacks);
    }
  } else {
    quiet_streak_ = 0;
  }

  // k actuator: widen while vector-capacity rejects dominate a pressured
  // window (the extra dimensions buy encoding room exactly there), narrow
  // back once the load has been quiet long enough that the dimensions
  // stopped paying. Both re-read the batch gauge - a shrink above may
  // have changed it within this same tick.
  const uint32_t cur_batch = batch_.load(std::memory_order_relaxed);
  if (pressured && vector_frac >= kWidenRejectFrac && rejects > 0) {
    narrow_streak_ = 0;
    ++widen_streak_;
    if (widen_streak_ >= kWidenDwell && k < physical_k_) {
      widen_streak_ = 0;
      ActuateLocked(seq, now, AdmissionAction::kWidenK, cur_batch, k + 1,
                    abort_rate, vector_frac, commits, rejects, fallbacks);
    }
  } else if (quiet) {
    widen_streak_ = 0;
    ++narrow_streak_;
    if (narrow_streak_ >= kNarrowDwell && k > options_.min_k) {
      narrow_streak_ = 0;
      ActuateLocked(seq, now, AdmissionAction::kNarrowK, cur_batch, k - 1,
                    abort_rate, vector_frac, commits, rejects, fallbacks);
    }
  } else {
    widen_streak_ = 0;
    narrow_streak_ = 0;
  }
}

void AdmissionController::EmergencyShrink(uint64_t seq, double now) {
  std::lock_guard<std::mutex> g(mu_);
  const uint32_t batch = batch_.load(std::memory_order_relaxed);
  cooldown_ = kCooldownWindows;
  quiet_streak_ = 0;
  if (batch <= kMinBatch) return;
  ActuateLocked(seq, now, AdmissionAction::kEmergencyShrink, kMinBatch,
                k_.load(std::memory_order_relaxed), 0.0, 0.0, 0, 0, 0);
}

std::vector<AdmissionDecision> AdmissionController::decisions() const {
  std::lock_guard<std::mutex> g(mu_);
  return trace_;
}

std::string AdmissionController::TraceString() const {
  std::lock_guard<std::mutex> g(mu_);
  std::string out;
  for (const AdmissionDecision& d : trace_) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace mdts
