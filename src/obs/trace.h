#ifndef MDTS_OBS_TRACE_H_
#define MDTS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "obs/seqlock_ring.h"

/// The event tracer is always compiled in and gated at runtime: until
/// Tracer::Enable(), each MDTS_TRACE_* macro costs one relaxed atomic load
/// plus a predictable branch.

namespace mdts {

/// One trace event in (a subset of) the Chrome trace_event model.
/// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
struct TraceEvent {
  const char* name = "";      // Static/interned string; never freed.
  char ph = 'i';              // 'X' complete, 'i' instant, 'B'/'E' pair.
  uint32_t pid = 1;           // Timeline group (1 = real time, 2 = sim).
  uint32_t tid = 0;           // Lane within the group.
  uint64_t ts_us = 0;         // Microseconds (steady clock or sim time).
  uint64_t dur_us = 0;        // 'X' only.
  const char* arg_name = nullptr;  // Optional single numeric argument.
  uint64_t arg = 0;
};

/// Process-wide ring-buffer event tracer with Chrome trace_event JSON
/// export (load the file in chrome://tracing or https://ui.perfetto.dev).
///
/// Each emitting thread owns a private SeqlockRing (registered on first
/// emit), so concurrent Emit calls never contend; when a ring wraps, the
/// oldest events of that thread are overwritten. Exporting (ToJson /
/// WriteFile / event_count) is safe while threads emit: it skips the few
/// slots caught mid-write and is exact once emitters are quiescent. Only
/// Reset requires quiescence: stop worker threads (or Disable() and finish
/// in-flight operations) first.
///
/// Real-time lanes (pid 1) default tid to the emitting thread; simulated
/// timelines (the DMT event loop) pass pid 2 and an explicit tid per site.
class Tracer {
 public:
  static Tracer& Get();

  /// Turns event capture on. Each emitting thread gets a ring of
  /// `events_per_thread` slots (at least 16, rounded up to a power of two;
  /// 64 bytes each).
  void Enable(size_t events_per_thread = 1 << 16);
  void Disable();

  static bool Enabled() {
    return Get().enabled_.load(std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's ring. Caller must have
  /// checked Enabled() (the MDTS_TRACE_* macros do).
  void Emit(const TraceEvent& event);

  /// Microseconds on the steady clock since process start.
  static uint64_t NowUs();

  /// All captured events as Chrome trace JSON, each lane (pid, tid) sorted
  /// by timestamp.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; false (with a message on stderr) on error.
  bool WriteFile(const std::string& path) const;

  /// Drops every captured event and buffer. Requires emitter quiescence;
  /// threads re-register on their next emit.
  void Reset();

  /// Events currently retained across all rings (post-wrap).
  size_t event_count() const;

 private:
  struct Ring {
    SeqlockRing<(sizeof(TraceEvent) + 7) / 8> events;
    uint32_t default_tid = 0;
  };

  Ring* LocalRing();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> epoch_{0};  // Bumped by Reset: invalidates caches.
  mutable std::mutex mu_;
  std::deque<Ring> rings_;
  size_t events_per_thread_ = 1 << 16;
  uint32_t next_tid_ = 1;
};

/// RAII 'X' (complete) event over the enclosing scope, real-time lane.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(name), armed_(Tracer::Enabled()) {
    if (armed_) start_ = Tracer::NowUs();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (armed_ && Tracer::Enabled()) {
      TraceEvent e;
      e.name = name_;
      e.ph = 'X';
      e.ts_us = start_;
      e.dur_us = Tracer::NowUs() - start_;
      Tracer::Get().Emit(e);
    }
  }

 private:
  const char* name_;
  bool armed_;
  uint64_t start_ = 0;
};

}  // namespace mdts

/// Scoped 'X' event on the calling thread's real-time lane.
#define MDTS_TRACE_SPAN(name) ::mdts::TraceSpan mdts_trace_span_(name)

/// Instant event on the calling thread's real-time lane.
#define MDTS_TRACE_INSTANT(name_str)                      \
  do {                                                    \
    if (::mdts::Tracer::Enabled()) {                      \
      ::mdts::TraceEvent mdts_te_;                        \
      mdts_te_.name = (name_str);                         \
      mdts_te_.ts_us = ::mdts::Tracer::NowUs();           \
      ::mdts::Tracer::Get().Emit(mdts_te_);               \
    }                                                     \
  } while (0)

/// Instant event with one numeric argument, real-time lane.
#define MDTS_TRACE_INSTANT_ARG(name_str, arg_name_str, arg_v) \
  do {                                                        \
    if (::mdts::Tracer::Enabled()) {                          \
      ::mdts::TraceEvent mdts_te_;                            \
      mdts_te_.name = (name_str);                             \
      mdts_te_.ts_us = ::mdts::Tracer::NowUs();               \
      mdts_te_.arg_name = (arg_name_str);                     \
      mdts_te_.arg = (arg_v);                                 \
      ::mdts::Tracer::Get().Emit(mdts_te_);                   \
    }                                                         \
  } while (0)

/// Fully explicit event (simulated timelines: pid 2, tid = site,
/// ts = simulated microseconds). `ph_c` is one of 'i', 'B', 'E', 'X'.
#define MDTS_TRACE_AT(name_str, ph_c, pid_v, tid_v, ts_v)  \
  do {                                                     \
    if (::mdts::Tracer::Enabled()) {                       \
      ::mdts::TraceEvent mdts_te_;                         \
      mdts_te_.name = (name_str);                          \
      mdts_te_.ph = (ph_c);                                \
      mdts_te_.pid = (pid_v);                              \
      mdts_te_.tid = (tid_v);                              \
      mdts_te_.ts_us = (ts_v);                             \
      ::mdts::Tracer::Get().Emit(mdts_te_);                \
    }                                                      \
  } while (0)

#define MDTS_TRACE_AT_ARG(name_str, ph_c, pid_v, tid_v, ts_v, arg_name_str, \
                          arg_v)                                            \
  do {                                                                      \
    if (::mdts::Tracer::Enabled()) {                                        \
      ::mdts::TraceEvent mdts_te_;                                          \
      mdts_te_.name = (name_str);                                           \
      mdts_te_.ph = (ph_c);                                                 \
      mdts_te_.pid = (pid_v);                                               \
      mdts_te_.tid = (tid_v);                                               \
      mdts_te_.ts_us = (ts_v);                                              \
      mdts_te_.arg_name = (arg_name_str);                                   \
      mdts_te_.arg = (arg_v);                                               \
      ::mdts::Tracer::Get().Emit(mdts_te_);                                 \
    }                                                                       \
  } while (0)

#endif  // MDTS_OBS_TRACE_H_
