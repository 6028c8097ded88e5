#include "common/status.h"

#include <map>

#include "common/backoff.h"
#include "common/bench_clock.h"
#include "common/bench_json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/vector_table.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace mdts {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad log");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad log");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad log");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OUT_OF_RANGE: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "INTERNAL: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// --- Rng / Zipf ---

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
  EXPECT_EQ(rng.Uniform(4, 4), 4);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(9), b(9), c(10);
  EXPECT_EQ(a.Uniform(0, 1 << 20), b.Uniform(0, 1 << 20));
  // Overwhelmingly likely to differ.
  bool differed = false;
  for (int i = 0; i < 8 && !differed; ++i) {
    differed = a.Uniform(0, 1 << 20) != c.Uniform(0, 1 << 20);
  }
  EXPECT_TRUE(differed);
}

TEST(RngTest, ExponentialIsPositiveWithRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Exponential(2.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfPicker picker(10, 0.0);
  Rng rng(17);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[picker.Pick(&rng)];
  for (const auto& [item, c] : counts) {
    EXPECT_NEAR(c, 2000, 300) << "item " << item;
  }
}

TEST(ZipfTest, SkewFavorsLowIds) {
  ZipfPicker picker(10, 1.2);
  Rng rng(19);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[picker.Pick(&rng)];
  EXPECT_GT(counts[0], counts[9] * 5);
  EXPECT_GT(counts[0], counts[1]);
}

// --- BackoffPolicy (shared by sim restarts and dist retries) ---

TEST(BackoffTest, MeanDelayGrowsExponentiallyAndCaps) {
  BackoffPolicy p{1.0, 2.0, 10.0};
  EXPECT_DOUBLE_EQ(p.MeanDelay(0), 1.0);
  EXPECT_DOUBLE_EQ(p.MeanDelay(1), 2.0);
  EXPECT_DOUBLE_EQ(p.MeanDelay(2), 4.0);
  EXPECT_DOUBLE_EQ(p.MeanDelay(3), 8.0);
  EXPECT_DOUBLE_EQ(p.MeanDelay(4), 10.0);   // Capped.
  EXPECT_DOUBLE_EQ(p.MeanDelay(100), 10.0);  // Stays capped (no overflow).
}

TEST(BackoffTest, MultiplierOneIsFlatJitteredDelay) {
  // The closed-loop simulator's restart policy: every attempt draws from
  // the same exponential as a bare rng.Exponential(base) would.
  BackoffPolicy p{3.0, 1.0, 3.0};
  Rng a(99), b(99);
  for (uint32_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_DOUBLE_EQ(p.ExpJitterDelay(attempt, &a), b.Exponential(3.0));
  }
}

TEST(BackoffTest, EqualJitterStaysWithinHalfToFullMean) {
  BackoffPolicy p{2.0, 2.0, 16.0};
  Rng rng(7);
  for (uint32_t attempt = 0; attempt < 8; ++attempt) {
    const double m = p.MeanDelay(attempt);
    for (int i = 0; i < 200; ++i) {
      const double d = p.EqualJitterDelay(attempt, &rng);
      EXPECT_GE(d, m / 2.0);
      EXPECT_LT(d, m);
    }
  }
}

TEST(BackoffTest, DeterministicPerSeed) {
  BackoffPolicy p{1.5, 2.0, 24.0};
  Rng a(42), b(42);
  for (uint32_t attempt = 0; attempt < 20; ++attempt) {
    EXPECT_DOUBLE_EQ(p.ExpJitterDelay(attempt, &a),
                     p.ExpJitterDelay(attempt, &b));
  }
}

// --- TablePrinter ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long-header"});
  t.AddRow({"xxxxx", "y"});
  const std::string out = t.ToString();
  EXPECT_EQ(out,
            "| a     | long-header |\n"
            "|-------|-------------|\n"
            "| xxxxx | y           |\n");
}

TEST(TablePrinterTest, PadsAndTruncatesRows) {
  TablePrinter t({"a", "b"});
  t.AddRow({"only-one"});
  t.AddRow({"1", "2", "3-dropped"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("only-one"), std::string::npos);
  EXPECT_EQ(out.find("3-dropped"), std::string::npos);
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

// --- VectorTable (the reusable Algorithm-1 encoder) ---

TEST(VectorTableTest, VirtualEntityInitialized) {
  VectorTable t(3);
  EXPECT_EQ(t.Ts(0).ToString(), "<0,*,*>");
  EXPECT_EQ(t.Ts(5).ToString(), "<*,*,*>");
}

TEST(VectorTableTest, SetEncodesAndRefusesReversal) {
  VectorTable t(2);
  EXPECT_TRUE(t.Set(0, 1));  // T0 -> T1: <1,*>.
  EXPECT_EQ(t.Ts(1).ToString(), "<1,*>");
  EXPECT_TRUE(t.Set(1, 2));  // <2,*>.
  EXPECT_TRUE(t.Set(1, 2));  // Idempotent (already determined).
  EXPECT_FALSE(t.Set(2, 1)) << "reversal must be refused";
}

TEST(VectorTableTest, EqualCaseUsesCountersAtLastColumn) {
  VectorTable t(2);
  EXPECT_TRUE(t.Set(0, 1));
  EXPECT_TRUE(t.Set(0, 2));  // Both now <1,*>: wait, Set(0,2) gives <1,*>.
  EXPECT_TRUE(t.Set(1, 2));  // kEqual at last column -> ucount pair.
  EXPECT_EQ(t.Ts(1).ToString(), "<1,1>");
  EXPECT_EQ(t.Ts(2).ToString(), "<1,2>");
}

TEST(VectorTableTest, EqualCaseUsesPairConstantsMidColumn) {
  VectorTable t(3);
  EXPECT_TRUE(t.Set(0, 1));
  EXPECT_TRUE(t.Set(0, 2));
  EXPECT_TRUE(t.Set(1, 2));  // kEqual at column 2 (not last): {1,2}.
  EXPECT_EQ(t.Ts(1).ToString(), "<1,1,*>");
  EXPECT_EQ(t.Ts(2).ToString(), "<1,2,*>");
}

TEST(VectorTableTest, SeedAfterOrdersRestartAfterBlocker) {
  VectorTable t(2);
  EXPECT_TRUE(t.Set(0, 1));
  EXPECT_TRUE(t.Set(1, 2));  // T2 = <2,*>.
  t.SeedAfter(3, 2);
  EXPECT_EQ(t.Ts(3).ToString(), "<3,*>");
  EXPECT_TRUE(VectorLess(t.Ts(2), t.Ts(3)));
  // Seeding after an entity with undefined first element seeds to 1.
  t.SeedAfter(4, 9);
  EXPECT_EQ(t.Ts(4).ToString(), "<1,*>");
}

TEST(VectorTableTest, CountersTrackWork) {
  VectorTable t(2);
  (void)t.Set(0, 1);
  (void)t.Set(1, 2);
  EXPECT_GT(t.element_comparisons(), 0u);
  EXPECT_GT(t.elements_assigned(), 0u);
}

TEST(VectorTableTest, TransitivityAcrossManyEntities) {
  VectorTable t(4);
  for (uint32_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(t.Set(i - 1, i));
  }
  // Chain implies every earlier < every later.
  for (uint32_t a = 0; a <= 20; ++a) {
    for (uint32_t b = a + 1; b <= 20; ++b) {
      EXPECT_TRUE(VectorLess(t.Ts(a), t.Ts(b))) << a << " vs " << b;
      EXPECT_FALSE(t.Set(b, a));
    }
  }
}

TEST(BenchClockTest, PercentileMatchesCeilRankFormula) {
  // 1..100: the pct-th percentile under ceil-rank indexing is pct itself.
  std::vector<double> v;
  for (int n = 100; n >= 1; --n) v.push_back(n);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 1), 1.0);

  // The exact expression the DMT(k) simulation used for p99 before the
  // helper existed: idx = (n * 99 + 99) / 100, sample[min(idx, n) - 1].
  for (size_t n : {1u, 2u, 7u, 99u, 100u, 101u, 250u}) {
    std::vector<double> s;
    for (size_t m = 0; m < n; ++m) s.push_back(static_cast<double>(m));
    const size_t idx = (n * 99 + 99) / 100;
    EXPECT_DOUBLE_EQ(PercentileSorted(s, 99), s[std::min(idx, n) - 1])
        << "n=" << n;
  }
  std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(PercentileSorted(one, 0), 42.0);
}

TEST(BenchClockTest, MeasureRoundsRotatesAndPricesEachArmAgainstItsParent) {
  // Scripted arms: arm 0 is the root, arm 1 reads 10% below it, arm 2 10%
  // below arm 1, and arm 3 is a null arm - arm 0 again with +-1% noise.
  // Drift moves a whole round; in round 3 a burst halves arm 2 alone.
  constexpr size_t kRounds = 7;
  const std::vector<int> parents = {-1, 0, 1, 0};
  const size_t n = parents.size();
  std::vector<size_t> order;
  const std::vector<RoundsArm> arms =
      MeasureRounds(kRounds, parents, [&](size_t arm) {
        const size_t round = order.size() / n;
        order.push_back(arm);
        const double base = 100.0 + 10.0 * static_cast<double>(round);
        switch (arm) {
          case 0:
            return base;
          case 1:
            return base * 0.9;
          case 2:
            return base * 0.81 * (round == 3 ? 0.5 : 1.0);
          default:
            return base * (round % 2 == 0 ? 1.01 : 0.99);
        }
      });

  // Round r runs the arms in the order r, r + 1, ... (mod n).
  ASSERT_EQ(order.size(), kRounds * n);
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(order[r * n + i], (r + i) % n) << "round " << r;
    }
  }

  ASSERT_EQ(arms.size(), n);
  EXPECT_FALSE(arms[0].has_delta);
  EXPECT_DOUBLE_EQ(arms[0].median, 130.0);  // Readings 100, 110, ..., 160.
  // Each delta is against the arm's own parent: arm 2 costs 10% of arm 1,
  // not 19% of the root. The burst round's 55% is voted out.
  EXPECT_TRUE(arms[1].has_delta);
  EXPECT_NEAR(arms[1].delta_pct, 10.0, 1e-9);
  EXPECT_NEAR(arms[2].delta_pct, 10.0, 1e-9);
  EXPECT_NEAR(arms[2].delta_q1_pct, 10.0, 1e-9);
  EXPECT_NEAR(arms[2].delta_q3_pct, 10.0, 1e-9);
  // The null arm's deltas straddle 0, at the noise amplitude.
  EXPECT_LE(std::abs(arms[3].delta_pct), 1.0 + 1e-9);
  EXPECT_NEAR(arms[3].delta_q1_pct, -1.0, 1e-9);
  EXPECT_NEAR(arms[3].delta_q3_pct, 1.0, 1e-9);
}

TEST(BenchClockTest, StopwatchIsMonotonic) {
  Stopwatch sw;
  const uint64_t a = sw.ElapsedNanos();
  const uint64_t b = sw.ElapsedNanos();
  EXPECT_GE(b, a);
  sw.Reset();
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(BenchJsonTest, UpsertCreatesAndReplacesRecords) {
  const std::string path = "bench_json_test.tmp.json";
  std::remove(path.c_str());
  ASSERT_TRUE(UpsertBenchRecord(path, "alpha",
                                {{"ops", JsonNum(123)}, {"name", JsonStr("a")}}));
  ASSERT_TRUE(UpsertBenchRecord(path, "beta", {{"ops", JsonNum(4.5)}}));
  // Re-upserting alpha replaces its record instead of appending.
  ASSERT_TRUE(UpsertBenchRecord(path, "alpha", {{"ops", JsonNum(999)}}));

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string contents = ss.str();
  EXPECT_EQ(contents.find("123"), std::string::npos);
  EXPECT_NE(contents.find("999"), std::string::npos);
  EXPECT_NE(contents.find("\"bench\": \"beta\""), std::string::npos);
  // Valid array shape: starts with '[', ends with "]\n", two record lines.
  EXPECT_EQ(contents.front(), '[');
  EXPECT_EQ(contents.substr(contents.size() - 2), "]\n");
  size_t record_lines = 0;
  std::istringstream lines(contents);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] == '{') ++record_lines;
  }
  EXPECT_EQ(record_lines, 2u);
  std::remove(path.c_str());
}

TEST(BenchJsonTest, JsonEscapingAndNumbers) {
  EXPECT_EQ(JsonStr("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonNum(2.5), "2.5");
  EXPECT_EQ(JsonNum(1e6), "1e+06");
  EXPECT_EQ(JsonNum(std::nan("")), "null");
}

TEST(VectorTableTest, ReleaseBelowReclaimsAndKeepsVirtual) {
  VectorTable t(3);
  for (uint32_t i = 1; i <= 50; ++i) ASSERT_TRUE(t.Set(i - 1, i));
  const size_t before = t.live_vectors();
  EXPECT_GE(before, 50u);
  EXPECT_EQ(t.ReleaseBelow(41), 40u);
  EXPECT_EQ(t.base_id(), 41u);
  EXPECT_EQ(t.live_vectors(), before - 40);
  // Entity 0 is permanent and the surviving ids keep their vectors.
  EXPECT_EQ(t.Ts(0).ToString().substr(0, 2), "<0");
  EXPECT_TRUE(VectorLess(t.Ts(41), t.Ts(50)));
  // Releasing below the current base is a no-op.
  EXPECT_EQ(t.ReleaseBelow(10), 0u);
}

}  // namespace
}  // namespace mdts
