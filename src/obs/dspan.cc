#include "obs/dspan.h"

#include <algorithm>
#include <bit>

namespace mdts {

const char* DistSegmentName(DistSegment segment) {
  switch (segment) {
    case DistSegment::kNetwork:
      return "network";
    case DistSegment::kLockWait:
      return "lock_wait";
    case DistSegment::kBackoff:
      return "backoff";
    case DistSegment::kSiteDownRetry:
      return "site_down_retry";
    case DistSegment::kProcessing:
      return "processing";
    case DistSegment::kNumSegments:
      break;
  }
  return "unknown";
}

std::string DistSpan::ToJson() const {
  std::string out = "{\"id\": " + std::to_string(id);
  out += ", \"parent\": " + std::to_string(parent);
  out += ", \"txn\": " + std::to_string(txn);
  out += ", \"incarnation\": " + std::to_string(incarnation);
  out += ", \"site\": " + std::to_string(site);
  out += std::string(", \"class\": \"") + DistSegmentName(segment) + "\"";
  out += std::string(", \"hop\": ") + (hop ? "true" : "false");
  out += std::string(", \"aborted\": ") + (aborted ? "true" : "false");
  out += ", \"start_us\": " + std::to_string(start_us);
  out += ", \"end_us\": " + std::to_string(end_us);
  out += ", \"defined\": " + std::to_string(defined) + "}";
  return out;
}

SpanRing::SpanRing(const SpanRingOptions& options)
    : ring_mask_(std::bit_ceil(std::max<size_t>(options.rings, 1)) - 1),
      rings_(std::make_unique<Ring[]>(ring_mask_ + 1)) {
  for (size_t r = 0; r <= ring_mask_; ++r) {
    rings_[r].Init(std::max<size_t>(options.capacity, 2));
  }
}

void SpanRing::Record(uint32_t site, const DistSpan& span) {
  // Single-writer (the simulation thread): plain load+store on the totals
  // instead of locked RMWs - a concurrent Drain still reads them
  // atomically, and the LOCK prefixes would otherwise dominate the record
  // cost on this sub-100ns path.
  recorded_.store(recorded_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  if (span.aborted) {
    aborted_.store(aborted_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }
  if (span.hop) {
    hops_.store(hops_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
  rings_[site & ring_mask_].WriteValue(span);
}

std::vector<DistSpan> SpanRing::Drain() const {
  std::vector<DistSpan> out;
  for (size_t ri = 0; ri <= ring_mask_; ++ri) {
    rings_[ri].ForEach<DistSpan>(
        [&](const DistSpan& span) { out.push_back(span); });
  }
  std::sort(out.begin(), out.end(),
            [](const DistSpan& a, const DistSpan& b) { return a.id < b.id; });
  return out;
}

std::string SpanRing::ToJson() const {
  const std::vector<DistSpan> spans = Drain();
  std::string out = "{\"meta\": {\"rings\": " + std::to_string(rings());
  out += ", \"capacity\": " + std::to_string(capacity()) + "}";
  out += ", \"totals\": {\"recorded\": " + std::to_string(recorded());
  out += ", \"aborted\": " + std::to_string(aborted());
  out += ", \"hops\": " + std::to_string(hops()) + "}";
  out += ", \"spans\": [";
  for (size_t q = 0; q < spans.size(); ++q) {
    if (q != 0) out += ", ";
    out += spans[q].ToJson();
  }
  out += "]}";
  return out;
}

std::string TxnPathRecord::ToJson() const {
  std::string out = "{\"txn\": " + std::to_string(txn);
  out += std::string(", \"committed\": ") + (committed ? "true" : "false");
  out += ", \"attempts\": " + std::to_string(attempts);
  out += ", \"root\": " + std::to_string(root);
  out += ", \"start_us\": " + std::to_string(start_us);
  out += ", \"end_us\": " + std::to_string(end_us);
  out += ", \"latency_us\": " + std::to_string(latency_us());
  out += ", \"critical_path_us\": {";
  for (size_t s = 0; s < kNumDistSegments; ++s) {
    if (s != 0) out += ", ";
    out += std::string("\"") + DistSegmentName(static_cast<DistSegment>(s)) +
           "\": " + std::to_string(seg_us[s]);
  }
  out += "}, \"k\": " + std::to_string(k);
  out += ", \"vec\": [";
  for (size_t m = 0; m < vec.size(); ++m) {
    if (m != 0) out += ", ";
    out += vec[m] == kUndefinedElement ? std::string("\"*\"")
                                       : std::to_string(vec[m]);
  }
  out += "], \"spans\": [";
  for (size_t q = 0; q < spans.size(); ++q) {
    if (q != 0) out += ", ";
    out += spans[q].ToJson();
  }
  out += "]}";
  return out;
}

PathCollector::PathCollector(size_t top_n) : top_n_(top_n < 1 ? 1 : top_n) {}

void PathCollector::Add(TxnPathRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  ++agg_.paths;
  if (record.committed) ++agg_.committed;
  agg_.total_us += record.latency_us();
  for (size_t s = 0; s < kNumDistSegments; ++s) {
    agg_.seg_us[s] += record.seg_us[s];
  }
  // Keep the slowest top_n, sorted descending; ties resolve to the earlier
  // arrival so retention stays deterministic for a deterministic run.
  const auto pos = std::upper_bound(
      slowest_.begin(), slowest_.end(), record,
      [](const TxnPathRecord& a, const TxnPathRecord& b) {
        return a.latency_us() > b.latency_us();
      });
  if (pos == slowest_.end() && slowest_.size() >= top_n_) return;
  slowest_.insert(pos, std::move(record));
  if (slowest_.size() > top_n_) slowest_.pop_back();
}

void PathCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  agg_ = Aggregates{};
  slowest_.clear();
}

PathCollector::Aggregates PathCollector::aggregates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return agg_;
}

std::vector<TxnPathRecord> PathCollector::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowest_;
}

std::string PathCollector::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"meta\": {\"retained\": ";
  out += std::to_string(slowest_.size());
  out += ", \"top_n\": " + std::to_string(top_n_) + "}";
  out += ", \"aggregates\": {\"paths\": " + std::to_string(agg_.paths);
  out += ", \"committed\": " + std::to_string(agg_.committed);
  out += ", \"total_us\": " + std::to_string(agg_.total_us);
  out += ", \"segments\": {";
  for (size_t s = 0; s < kNumDistSegments; ++s) {
    if (s != 0) out += ", ";
    out += std::string("\"") + DistSegmentName(static_cast<DistSegment>(s)) +
           "\": " + std::to_string(agg_.seg_us[s]);
  }
  out += "}}, \"txns\": [";
  for (size_t q = 0; q < slowest_.size(); ++q) {
    if (q != 0) out += ", ";
    out += slowest_[q].ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace mdts
