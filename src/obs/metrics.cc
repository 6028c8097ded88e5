#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/bench_json.h"

namespace mdts {

namespace obs_internal {

size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  *out += buf;
}

}  // namespace obs_internal

void Histogram::AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot out;
  uint64_t min = UINT64_MAX;
  for (const Slot& s : slots_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    out.sum += s.sum.load(std::memory_order_relaxed);
    const uint64_t mn = s.min.load(std::memory_order_relaxed);
    if (mn < min) min = mn;
    const uint64_t mx = s.max.load(std::memory_order_relaxed);
    if (mx > out.max) out.max = mx;
  }
  for (uint64_t b : out.buckets) out.count += b;
  out.min = out.count ? min : 0;
  out.exemplar_value = ex_value_.load(std::memory_order_relaxed);
  out.exemplar_tag = ex_tag_.load(std::memory_order_relaxed);
  return out;
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  const double target = static_cast<double>(count) * p / 100.0;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      if (b == 0) return 0;
      const uint64_t upper = b >= 64 ? UINT64_MAX : (uint64_t{1} << b) - 1;
      return upper < max ? upper : max;
    }
  }
  return max;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  return CounterLocked(name);
}

Counter* MetricsRegistry::CounterLocked(const std::string& name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_storage_.emplace_back();
  Counter* c = &counter_storage_.back();
  counters_.emplace(name, c);
  return c;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  return GaugeLocked(name);
}

Gauge* MetricsRegistry::GaugeLocked(const std::string& name) {
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  gauge_storage_.emplace_back();
  Gauge* p = &gauge_storage_.back();
  gauges_.emplace(name, p);
  return p;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  histogram_storage_.emplace_back();
  Histogram* h = &histogram_storage_.back();
  histograms_.emplace(name, h);
  return h;
}

void MetricsRegistry::AddCollector(const void* owner, MetricsCollector fn) {
  std::lock_guard<std::mutex> g(mu_);
  collectors_.emplace_back(owner, std::move(fn));
}

void MetricsRegistry::RemoveCollector(const void* owner) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = std::find_if(collectors_.begin(), collectors_.end(),
                         [owner](const auto& c) { return c.first == owner; });
  if (it == collectors_.end()) return;
  MetricsSnapshot last;
  it->second(last);
  collectors_.erase(it);
  for (const auto& [name, v] : last.counters) CounterLocked(name)->Add(v);
  for (const auto& [name, v] : last.gauges) GaugeLocked(name);
}

namespace {

/// Sorts (name, value) pairs by name and sums the values of equal names.
template <typename V>
void SortAndSum(std::vector<std::pair<std::string, V>>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t kept = 0;
  for (size_t r = 0; r < entries.size(); ++r) {
    if (kept > 0 && entries[kept - 1].first == entries[r].first) {
      entries[kept - 1].second += entries[r].second;
    } else {
      if (kept != r) entries[kept] = std::move(entries[r]);
      ++kept;
    }
  }
  entries.resize(kept);
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> g(mu_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {  // std::map: sorted by name.
    out.counters.emplace_back(name, c->Value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g2] : gauges_) {
    out.gauges.emplace_back(name, g2->Value());
  }
  if (!collectors_.empty()) {
    for (const auto& [owner, fn] : collectors_) fn(out);
    SortAndSum(out.counters);
    SortAndSum(out.gauges);
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h->Snapshot());
  }
  return out;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Leaked:
  return *registry;  // metrics must outlive any static user at exit.
}

namespace {

using obs_internal::AppendU64;

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  *out += buf;
}

}  // namespace

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    out += name;
    out += " ";
    AppendU64(&out, v);
    out += "\n";
  }
  for (const auto& [name, v] : gauges) {
    out += name;
    out += " ";
    AppendI64(&out, v);
    out += "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += name;
    out += " count=";
    AppendU64(&out, h.count);
    out += " sum=";
    AppendU64(&out, h.sum);
    out += " min=";
    AppendU64(&out, h.min);
    out += " max=";
    AppendU64(&out, h.max);
    out += " p50=";
    AppendU64(&out, h.Percentile(50));
    out += " p99=";
    AppendU64(&out, h.Percentile(99));
    out += "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    AppendU64(&out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": ";
    AppendI64(&out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": ";
    AppendU64(&out, h.count);
    out += ", \"sum\": ";
    AppendU64(&out, h.sum);
    out += ", \"min\": ";
    AppendU64(&out, h.min);
    out += ", \"max\": ";
    AppendU64(&out, h.max);
    out += ", \"p50\": ";
    AppendU64(&out, h.Percentile(50));
    out += ", \"p99\": ";
    AppendU64(&out, h.Percentile(99));
    out += ", \"buckets\": {";
    bool bfirst = true;
    for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "\"";
      AppendU64(&out, b);
      out += "\": ";
      AppendU64(&out, h.buckets[b]);
    }
    out += "}}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool MetricsSnapshot::WriteJsonFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

uint64_t MetricsSnapshot::CounterSum(const std::string& prefix) const {
  uint64_t total = 0;
  for (const auto& [n, v] : counters) {
    if (n.compare(0, prefix.size(), prefix) == 0) total += v;
  }
  return total;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace mdts
