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

/// A paired A/B measurement: each arm's median reading, and the per-pair
/// deltas (a - b) / a in percent - their median, the headline, and their
/// quartiles, the spread a reader judges the headline against.
struct PairedAb {
  double med_a = 0, med_b = 0;
  double delta_pct = 0;
  double delta_q1_pct = 0, delta_q3_pct = 0;
};

/// Runs `pairs` adjacent A/B pairs, each arm returning one reading, with
/// the order flipped every other pair so machine-wide drift taxes both
/// arms alike instead of always the second. The headline is the median of
/// the per-pair deltas, not a comparison of per-arm medians: shared hosts
/// show multi-hundred-ms interference bursts that depress whichever arm
/// they land on by 10% or more, and a burst corrupts one pair's delta
/// (voted out by the median over pairs) where it would shift a per-arm
/// median.
template <typename A, typename B>
PairedAb MeasurePairs(int pairs, A&& run_a, B&& run_b) {
  PairedAb r;
  std::vector<double> as, bs, deltas;
  for (int p = 0; p < pairs; ++p) {
    double a = 0, b = 0;
    if (p % 2 == 0) {
      a = run_a();
      b = run_b();
    } else {
      b = run_b();
      a = run_a();
    }
    as.push_back(a);
    bs.push_back(b);
    if (a > 0) deltas.push_back((a - b) / a * 100.0);
  }
  r.med_a = Median(as);
  r.med_b = Median(bs);
  r.delta_pct = Median(deltas);
  if (!deltas.empty()) {
    r.delta_q1_pct = Percentile(deltas, 25);
    r.delta_q3_pct = Percentile(deltas, 75);
  }
  return r;
}

}  // namespace mdts

#endif  // MDTS_COMMON_BENCH_CLOCK_H_
