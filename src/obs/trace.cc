#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>

#include "common/bench_json.h"

namespace mdts {

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // Leaked: emitters may outlive
  return *tracer;                        // static destruction order.
}

uint64_t Tracer::NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

void Tracer::Enable(size_t events_per_thread) {
  {
    std::lock_guard<std::mutex> g(mu_);
    events_per_thread_ = events_per_thread < 16 ? 16 : events_per_thread;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

Tracer::Ring* Tracer::LocalRing() {
  thread_local uint64_t cached_epoch = ~uint64_t{0};
  thread_local Ring* cached = nullptr;
  const uint64_t e = epoch_.load(std::memory_order_acquire);
  if (cached == nullptr || cached_epoch != e) {
    std::lock_guard<std::mutex> g(mu_);
    cached = &rings_.emplace_back();  // Deque: addresses stay stable.
    cached->events.Init(events_per_thread_);
    cached->default_tid = next_tid_++;
    cached_epoch = epoch_.load(std::memory_order_relaxed);
  }
  return cached;
}

void Tracer::Emit(const TraceEvent& event) {
  Ring* r = LocalRing();
  TraceEvent e = event;
  if (e.pid == 1 && e.tid == 0) e.tid = r->default_tid;
  r->events.WriteValue(e);
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> g(mu_);
  size_t total = 0;
  for (const Ring& r : rings_) {
    r.events.ForEach([&](const auto&) { ++total; });
  }
  return total;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> g(mu_);
  rings_.clear();
  next_tid_ = 1;
  epoch_.fetch_add(1, std::memory_order_release);
}

std::string Tracer::ToJson() const {
  // Collect the retained window of every ring (oldest first), then bucket
  // into lanes and sort each lane by timestamp so every (pid, tid) lane is
  // monotone - the invariant the schema test checks and Perfetto's track
  // builder expects.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<TraceEvent>> lanes;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const Ring& r : rings_) {
      r.events.ForEach<TraceEvent>([&](const TraceEvent& e) {
        lanes[{e.pid, e.tid}].push_back(e);
      });
    }
  }
  for (auto& [lane, events] : lanes) {
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts_us < b.ts_us;
                     });
  }

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto append = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  // Name the timeline groups so the viewer labels them.
  std::map<uint32_t, const char*> pids;
  for (const auto& [lane, events] : lanes) {
    (void)events;
    pids.emplace(lane.first, lane.first == 2 ? "mdts-sim" : "mdts");
  }
  for (const auto& [pid, name] : pids) {
    append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
           JsonStr(name) + "}}");
  }
  char buf[64];
  for (const auto& [lane, events] : lanes) {
    for (const TraceEvent& e : events) {
      std::string line = "{\"name\":" + JsonStr(e.name) + ",\"ph\":\"";
      line += e.ph;
      line += "\",\"pid\":" + std::to_string(lane.first) +
              ",\"tid\":" + std::to_string(lane.second);
      std::snprintf(buf, sizeof buf, ",\"ts\":%" PRIu64, e.ts_us);
      line += buf;
      if (e.ph == 'X') {
        std::snprintf(buf, sizeof buf, ",\"dur\":%" PRIu64, e.dur_us);
        line += buf;
      }
      if (e.ph == 'i') line += ",\"s\":\"t\"";  // Thread-scoped instant.
      if (e.arg_name != nullptr) {
        std::snprintf(buf, sizeof buf, ":%" PRIu64 "}", e.arg);
        line += ",\"args\":{" + JsonStr(e.arg_name) + buf;
      }
      line += "}";
      append(line);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::WriteFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

}  // namespace mdts
