#include "obs/sampler.h"

#include <cassert>
#include <cstdio>

namespace mdts {

namespace {

using obs_internal::AppendU64;

void AppendNum(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  *out += buf;
}

// Round-trip precision: window timestamps may differ only in the rebase
// epsilon, and consumers (and the tests) check strict monotonicity.
void AppendTime(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
}

}  // namespace

HistogramSnapshot HistogramDelta(const HistogramSnapshot& cur,
                                 const HistogramSnapshot& prev) {
  HistogramSnapshot d;
  for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    d.buckets[b] = cur.buckets[b] - prev.buckets[b];
    d.count += d.buckets[b];
  }
  d.sum = cur.sum - prev.sum;
  d.min = 0;        // Unknowable from cumulative state.
  d.max = cur.max;  // Upper bound; Percentile() clamps against it.
  return d;
}

Sampler::Sampler(const SamplerOptions& options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  assert(options_.registry != nullptr);
  if (options_.capacity < 2) options_.capacity = 2;
}

Sampler::~Sampler() { Stop(); }

void Sampler::AddStarvationWatchdog(
    const StarvationWatchdogOptions& options) {
  std::lock_guard<std::mutex> g(mu_);
  watchdogs_.emplace_back(options, options_.registry);
}

double Sampler::SteadySeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Sampler::TickOnce(double now_seconds) {
  std::lock_guard<std::mutex> g(mu_);
  TickLocked(now_seconds);
}

void Sampler::TickOnce() { TickOnce(SteadySeconds()); }

void Sampler::TickLocked(double raw_now) {
  // Strict ring monotonicity even when a driver restarts its clock
  // (successive simulation runs reusing one sampler): the first sample
  // that would step backwards rebases the offset so it lands just past
  // the previous one, and the SAME offset then applies to the rest of
  // that run - within-run spacing (and therefore window rates) stays
  // exact instead of every later sample collapsing onto a 1 ns window.
  double now = raw_now + time_offset_;
  if (ticked_ && now <= last_time_) {
    time_offset_ = last_time_ + 1e-9 - raw_now;
    now = raw_now + time_offset_;
  }
  last_time_ = now;
  ticked_ = true;
  ++seq_;
  // Snapshot before the watchdogs consume their windowed gauges, so this
  // sample still shows the window's consecutive-abort peak.
  Sample s;
  s.seq = seq_;
  s.time = now;
  s.snapshot = options_.registry->Snapshot();
  ring_.push_back(std::move(s));
  if (ring_.size() > options_.capacity) ring_.pop_front();
  for (StarvationWatchdog& w : watchdogs_) {
    w.Evaluate(seq_, now);
  }
}

void Sampler::Start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> g(stop_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] {
    const auto interval = std::chrono::milliseconds(options_.interval_ms);
    std::unique_lock<std::mutex> lk(stop_mu_);
    while (!stop_requested_) {
      // Wait first so Stop() during the initial interval exits promptly.
      if (stop_cv_.wait_for(lk, interval, [this] { return stop_requested_; }))
        break;
      lk.unlock();
      TickOnce();
      lk.lock();
    }
  });
}

void Sampler::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> g(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<Sample> Sampler::Ring() const {
  std::lock_guard<std::mutex> g(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<WatchdogAlert> Sampler::alerts() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<WatchdogAlert> out;
  for (const StarvationWatchdog& w : watchdogs_) {
    out.insert(out.end(), w.alerts().begin(), w.alerts().end());
  }
  return out;
}

uint64_t Sampler::samples_taken() const {
  std::lock_guard<std::mutex> g(mu_);
  return seq_;
}

std::string Sampler::SeriesJson() const {
  std::lock_guard<std::mutex> g(mu_);
  std::string out = "{\"interval_ms\": ";
  AppendU64(&out, options_.interval_ms);
  out += ", \"samples_taken\": ";
  AppendU64(&out, seq_);
  out += ", \"windows\": [";
  for (size_t n = 1; n < ring_.size(); ++n) {
    const Sample& prev = ring_[n - 1];
    const Sample& cur = ring_[n];
    const double dt = cur.time - prev.time;
    if (n > 1) out += ",";
    out += "\n{\"seq\": ";
    AppendU64(&out, cur.seq);
    out += ", \"t\": ";
    AppendTime(&out, cur.time);
    out += ", \"dt\": ";
    AppendNum(&out, dt);
    // Counter rates: both snapshots are name-sorted, so one merge walk
    // pairs them up. A counter first seen this window rates from zero.
    out += ", \"rates\": {";
    bool first = true;
    size_t pi = 0;
    for (const auto& [name, v] : cur.snapshot.counters) {
      while (pi < prev.snapshot.counters.size() &&
             prev.snapshot.counters[pi].first < name) {
        ++pi;
      }
      const uint64_t before = pi < prev.snapshot.counters.size() &&
                                      prev.snapshot.counters[pi].first == name
                                  ? prev.snapshot.counters[pi].second
                                  : 0;
      if (v == before) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": ";
      AppendNum(&out, dt > 0
                          ? static_cast<double>(v - before) / dt
                          : static_cast<double>(v - before));
    }
    out += "}, \"gauges\": {";
    first = true;
    for (const auto& [name, v] : cur.snapshot.gauges) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": " + std::to_string(v);
    }
    out += "}, \"histograms\": {";
    first = true;
    pi = 0;
    for (const auto& [name, h] : cur.snapshot.histograms) {
      while (pi < prev.snapshot.histograms.size() &&
             prev.snapshot.histograms[pi].first < name) {
        ++pi;
      }
      const bool matched = pi < prev.snapshot.histograms.size() &&
                           prev.snapshot.histograms[pi].first == name;
      const HistogramSnapshot d =
          matched ? HistogramDelta(h, prev.snapshot.histograms[pi].second)
                  : h;
      if (d.count == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"count\": ";
      AppendU64(&out, d.count);
      out += ", \"p50\": ";
      AppendU64(&out, d.Percentile(50));
      out += ", \"p99\": ";
      AppendU64(&out, d.Percentile(99));
      out += "}";
    }
    out += "}}";
  }
  out += "\n], \"alerts\": [";
  bool first = true;
  for (const StarvationWatchdog& w : watchdogs_) {
    for (const WatchdogAlert& a : w.alerts()) {
      if (!first) out += ",";
      first = false;
      out += "\n" + a.ToJson();
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace mdts
