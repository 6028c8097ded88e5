#ifndef MDTS_COMMON_BENCH_CLOCK_H_
#define MDTS_COMMON_BENCH_CLOCK_H_

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <vector>

namespace mdts {

/// Monotonic wall-clock timer for benchmarks: wraps steady_clock so no
/// bench re-derives the duration arithmetic (or accidentally uses the
/// adjustable system clock).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Rank-based percentile over an ascending-sorted sample vector, using the
/// ceiling rank idx = ceil(n * pct / 100) clamped to [1, n]. For pct = 99
/// this reproduces the formula the DMT(k) simulation has always used for
/// p99 response times, so switching callers to this helper changes no
/// reported number.
template <typename T>
T PercentileSorted(const std::vector<T>& sorted, int pct) {
  assert(!sorted.empty());
  const size_t idx =
      (sorted.size() * static_cast<size_t>(pct) + 99) / 100;
  return sorted[std::min(std::max<size_t>(idx, 1), sorted.size()) - 1];
}

/// Sorts the samples in place, then returns the pct-th percentile.
template <typename T>
T Percentile(std::vector<T>& samples, int pct) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, pct);
}

/// The middle sample (the upper middle one for an even count); 0 when
/// there is none.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// One arm of a rotated-rounds measurement: its median reading, and the
/// median and quartiles over rounds of its per-round delta against its
/// parent, (parent - arm) / parent in percent (positive: the arm reads
/// lower than its parent). A root arm has no delta (has_delta is false).
struct RoundsArm {
  double median = 0;
  bool has_delta = false;
  double delta_pct = 0;
  double delta_q1_pct = 0, delta_q3_pct = 0;
};

/// Runs each of parents.size() arms once per round for `rounds` rounds;
/// run(i) returns arm i's reading. Round r runs the arms in the order
/// r, r + 1, ... (mod n), so machine-wide drift and the cost of going
/// first or last fall on every arm alike; with two arms this is the A/B,
/// B/A alternation. parents[i] is the arm that arm i is measured against,
/// or -1 for a root. Each delta is taken within one round, and the
/// headline is the median of those per-round deltas, not a comparison of
/// per-arm medians: shared hosts show multi-hundred-ms interference
/// bursts that depress whichever arm they land on by 10% or more, and a
/// burst corrupts one round's delta (voted out by the median over rounds)
/// where it would shift a per-arm median. An arm measured twice against
/// itself (a null arm) shows the noise floor in its quartiles.
template <typename Run>
std::vector<RoundsArm> MeasureRounds(int rounds,
                                     const std::vector<int>& parents,
                                     Run&& run) {
  const size_t n = parents.size();
  std::vector<std::vector<double>> readings(n), deltas(n);
  std::vector<double> round_reading(n);
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < n; ++i) {
      const size_t arm = (static_cast<size_t>(r) + i) % n;
      round_reading[arm] = run(arm);
      readings[arm].push_back(round_reading[arm]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (parents[i] < 0) continue;
      const double base = round_reading[static_cast<size_t>(parents[i])];
      if (base > 0) {
        deltas[i].push_back((base - round_reading[i]) / base * 100.0);
      }
    }
  }
  std::vector<RoundsArm> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].median = Median(readings[i]);
    if (deltas[i].empty()) continue;
    out[i].has_delta = true;
    out[i].delta_pct = Median(deltas[i]);
    out[i].delta_q1_pct = Percentile(deltas[i], 25);
    out[i].delta_q3_pct = Percentile(deltas[i], 75);
  }
  return out;
}

}  // namespace mdts

#endif  // MDTS_COMMON_BENCH_CLOCK_H_
