#include "core/timestamp_vector.h"

#include <set>
#include <vector>

#include "common/rng.h"
#include "core/encoding.h"
#include "core/vector_table.h"
#include "gtest/gtest.h"

namespace mdts {
namespace {

TimestampVector Make(std::vector<TsElement> elems) {
  TimestampVector v(elems.size());
  for (size_t i = 0; i < elems.size(); ++i) {
    if (elems[i] != kUndefinedElement) v.Set(i, elems[i]);
  }
  return v;
}

constexpr TsElement U = kUndefinedElement;

TEST(TimestampVectorTest, InitiallyAllUndefined) {
  TimestampVector v(4);
  EXPECT_EQ(v.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_FALSE(v.IsDefined(i));
  EXPECT_EQ(v.DefinedPrefixLength(), 0u);
  EXPECT_EQ(v.DefinedCount(), 0u);
  EXPECT_EQ(v.ToString(), "<*,*,*,*>");
}

TEST(TimestampVectorTest, VirtualVectorIsZeroThenUndefined) {
  TimestampVector v = TimestampVector::Virtual(3);
  EXPECT_TRUE(v.IsDefined(0));
  EXPECT_EQ(v.Get(0), 0);
  EXPECT_FALSE(v.IsDefined(1));
  EXPECT_EQ(v.ToString(), "<0,*,*>");
}

TEST(TimestampVectorTest, SetAndReset) {
  TimestampVector v(3);
  v.Set(0, 5);
  v.Set(1, -2);
  EXPECT_EQ(v.DefinedPrefixLength(), 2u);
  EXPECT_EQ(v.ToString(), "<5,-2,*>");
  v.Reset();
  EXPECT_EQ(v.DefinedCount(), 0u);
}

// --- Definition 6 comparison semantics ---

TEST(CompareTest, LessAtFirstElement) {
  auto r = Compare(Make({1, 2}), Make({2, U}));
  EXPECT_EQ(r.order, VectorOrder::kLess);
  EXPECT_EQ(r.index, 0u);
}

TEST(CompareTest, GreaterDecidedAtSecondElement) {
  auto r = Compare(Make({1, 5, U}), Make({1, 3, 9}));
  EXPECT_EQ(r.order, VectorOrder::kGreater);
  EXPECT_EQ(r.index, 1u);
}

TEST(CompareTest, EqualWhenBothUndefined) {
  // Paper Example 1: TS(2) = <2,*> and TS(3) = <2,*> are equal, which is the
  // whole point of multidimensional timestamps.
  auto r = Compare(Make({2, U}), Make({2, U}));
  EXPECT_EQ(r.order, VectorOrder::kEqual);
  EXPECT_EQ(r.index, 1u);
}

TEST(CompareTest, EqualAtFirstElementWhenBothFullyUndefined) {
  auto r = Compare(Make({U, U}), Make({U, U}));
  EXPECT_EQ(r.order, VectorOrder::kEqual);
  EXPECT_EQ(r.index, 0u);
}

TEST(CompareTest, UndeterminedWhenExactlyOneUndefined) {
  auto r = Compare(Make({1, U}), Make({1, 4}));
  EXPECT_EQ(r.order, VectorOrder::kUndetermined);
  EXPECT_EQ(r.index, 1u);

  r = Compare(Make({1, 4}), Make({1, U}));
  EXPECT_EQ(r.order, VectorOrder::kUndetermined);
  EXPECT_EQ(r.index, 1u);
}

TEST(CompareTest, UndefinedElementNotEqualToAnyInteger) {
  // "We assume that an undefined element is not equal to any integer":
  // <1,*> vs <1,0> must be undetermined, not equal, even though the
  // undefined slot could later take value 0.
  auto r = Compare(Make({1, U}), Make({1, 0}));
  EXPECT_EQ(r.order, VectorOrder::kUndetermined);
}

TEST(CompareTest, IdenticalFullyDefinedVectors) {
  auto r = Compare(Make({3, 7}), Make({3, 7}));
  EXPECT_EQ(r.order, VectorOrder::kIdentical);
  EXPECT_EQ(r.index, 2u);
}

TEST(CompareTest, PaperFigure6Vectors) {
  // Input of Fig. 6: TS(1) = <1,3,2,2>, TS(2) = <1,3,5,2>; the 3rd elements
  // are the first unequal pair and decide TS(1) < TS(2).
  auto r = Compare(Make({1, 3, 2, 2}), Make({1, 3, 5, 2}));
  EXPECT_EQ(r.order, VectorOrder::kLess);
  EXPECT_EQ(r.index, 2u);
}

TEST(CompareTest, NegativeElementsOrderCorrectly) {
  // lcount counts downward, so negative elements are routine.
  auto r = Compare(Make({1, 0}), Make({1, 2}));
  EXPECT_EQ(r.order, VectorOrder::kLess);
  r = Compare(Make({1, -3}), Make({1, 0}));
  EXPECT_EQ(r.order, VectorOrder::kLess);
}

// --- Lemma 1 (transitivity) and Lemma 2 (irreflexivity), randomized ---

class CompareLawsTest : public ::testing::TestWithParam<uint64_t> {};

TimestampVector RandomVector(Rng* rng, size_t k) {
  TimestampVector v(k);
  // Random defined prefix (the invariant the scheduler maintains).
  size_t prefix = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(k)));
  for (size_t i = 0; i < prefix; ++i) {
    v.Set(i, rng->Uniform(-4, 5));
  }
  return v;
}

TEST_P(CompareLawsTest, LessIsTransitiveAndIrreflexive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    size_t k = static_cast<size_t>(rng.Uniform(1, 6));
    TimestampVector a = RandomVector(&rng, k);
    TimestampVector b = RandomVector(&rng, k);
    TimestampVector c = RandomVector(&rng, k);
    // Lemma 2: irreflexive.
    EXPECT_FALSE(VectorLess(a, a));
    // Lemma 1: transitive.
    if (VectorLess(a, b) && VectorLess(b, c)) {
      EXPECT_TRUE(VectorLess(a, c))
          << a.ToString() << " < " << b.ToString() << " < " << c.ToString();
    }
    // Antisymmetry follows: not both a<b and b>a reversed.
    if (VectorLess(a, b)) {
      EXPECT_FALSE(VectorLess(b, a));
      EXPECT_EQ(Compare(b, a).order, VectorOrder::kGreater);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompareLawsTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1986u));

TEST(CompareTest, ComparisonIsSymmetricallyConsistent) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t k = static_cast<size_t>(rng.Uniform(1, 5));
    TimestampVector a = RandomVector(&rng, k);
    TimestampVector b = RandomVector(&rng, k);
    auto ab = Compare(a, b);
    auto ba = Compare(b, a);
    EXPECT_EQ(ab.index, ba.index);
    switch (ab.order) {
      case VectorOrder::kLess:
        EXPECT_EQ(ba.order, VectorOrder::kGreater);
        break;
      case VectorOrder::kGreater:
        EXPECT_EQ(ba.order, VectorOrder::kLess);
        break;
      default:
        EXPECT_EQ(ba.order, ab.order);
    }
  }
}

TEST(TimestampVectorDifferentialTest, OptimizedCompareMatchesNaive) {
  // The sentinel-loop comparator must agree with the literal Definition-6
  // reference on order AND decision position for arbitrary definedness
  // patterns, across inline (k <= 8) and heap (k > 8) storage, up to k = 40.
  Rng rng(20260805);
  for (size_t k : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 31u, 32u, 33u, 40u}) {
    const size_t pairs = k <= 9 ? 1200 : 300;
    for (size_t n = 0; n < pairs; ++n) {
      TimestampVector a(k);
      TimestampVector b(k);
      for (size_t m = 0; m < k; ++m) {
        // Small value range forces frequent equal defined prefixes, the
        // interesting regime; ~40% undefined exercises every break case.
        if (rng.Chance(0.6)) a.Set(m, static_cast<TsElement>(rng.Uniform(0, 2)));
        if (rng.Chance(0.6)) b.Set(m, static_cast<TsElement>(rng.Uniform(0, 2)));
      }
      const VectorCompareResult fast = Compare(a, b);
      const VectorCompareResult naive = CompareNaive(a, b);
      ASSERT_EQ(fast.order, naive.order)
          << "k=" << k << " a=" << a.ToString() << " b=" << b.ToString();
      ASSERT_EQ(fast.index, naive.index)
          << "k=" << k << " a=" << a.ToString() << " b=" << b.ToString();
      // Antisymmetry through the mirrored call.
      const VectorCompareResult rev = Compare(b, a);
      switch (naive.order) {
        case VectorOrder::kLess:
          ASSERT_EQ(rev.order, VectorOrder::kGreater);
          break;
        case VectorOrder::kGreater:
          ASSERT_EQ(rev.order, VectorOrder::kLess);
          break;
        default:
          ASSERT_EQ(rev.order, naive.order);
          break;
      }
      ASSERT_EQ(rev.index, naive.index);
    }
  }
}

TEST(TimestampVectorDifferentialTest, UnsetViaSentinelUndefines) {
  TimestampVector v(4);
  v.Set(1, 7);
  EXPECT_TRUE(v.IsDefined(1));
  v.Set(1, kUndefinedElement);  // Writing the sentinel un-defines.
  EXPECT_FALSE(v.IsDefined(1));
  EXPECT_EQ(v.DefinedCount(), 0u);
  EXPECT_EQ(v.DefinedPrefixLength(), 0u);
}

TEST(TimestampVectorDifferentialTest, PrefixAndCountAgreeWithScan) {
  Rng rng(99);
  for (size_t k : {1u, 8u, 9u, 32u, 33u, 45u}) {
    for (int n = 0; n < 200; ++n) {
      TimestampVector v(k);
      for (size_t m = 0; m < k; ++m) {
        if (rng.Chance(0.5)) v.Set(m, static_cast<TsElement>(rng.Uniform(0, 99)));
      }
      size_t prefix = 0;
      while (prefix < k && v.IsDefined(prefix)) ++prefix;
      size_t count = 0;
      for (size_t m = 0; m < k; ++m) count += v.IsDefined(m) ? 1 : 0;
      ASSERT_EQ(v.DefinedPrefixLength(), prefix) << "k=" << k;
      ASSERT_EQ(v.DefinedCount(), count) << "k=" << k;
    }
  }
}

TEST(TimestampVectorDifferentialTest, CopyAndMovePreserveHeapVectors) {
  TimestampVector big(12);  // Heap regime.
  big.Set(0, 1);
  big.Set(11, -4);
  TimestampVector copy = big;
  EXPECT_TRUE(copy == big);
  TimestampVector moved = std::move(copy);
  EXPECT_TRUE(moved == big);
  moved = big;  // Copy-assign over a heap vector.
  EXPECT_TRUE(moved == big);
  TimestampVector small(3);
  small.Set(1, 5);
  moved = small;  // Copy-assign shrinking heap -> inline.
  EXPECT_TRUE(moved == small);
  EXPECT_EQ(moved.size(), 3u);
}

TEST(StripedCountersTest, SingleStripeIsThePlainSequence) {
  // n = 1 is Algorithm 1's ucount = 1, 2, ... / lcount = 0, -1, ... pair.
  StripedCounters c;
  EXPECT_EQ(c.Upper(U), 1);
  EXPECT_EQ(c.Upper(1), 2);
  EXPECT_EQ(c.Upper(U), 3);
  EXPECT_EQ(c.Lower(1), 0);
  EXPECT_EQ(c.Lower(3), -1);
  EXPECT_EQ(c.Lower(-1), -2);
}

TEST(StripedCountersTest, DrawsRespectBoundsFromOtherStripes) {
  StripedCounters s0(0, 3), s1(1, 3);
  TsElement hi = U;
  for (int r = 0; r < 5; ++r) hi = s1.Upper(U);  // 4, 7, 10, 13, 16.
  EXPECT_EQ(hi, 16);
  // Stripe 0's own counter would hand out 3; the bound lifts it past 16
  // within its class, and later draws stay above that.
  const TsElement up = s0.Upper(hi);
  EXPECT_GT(up, hi);
  EXPECT_EQ(StripedCounters::StripeOf(up, 3), 0u);
  EXPECT_GT(s0.Upper(U), up);

  TsElement lo = 0;
  for (int r = 0; r < 5; ++r) lo = s1.Lower(lo + 100);  // 1, -2, ..., -11.
  EXPECT_EQ(lo, -11);
  const TsElement down = s0.Lower(lo);
  EXPECT_LT(down, lo);
  EXPECT_EQ(StripedCounters::StripeOf(down, 3), 0u);
  EXPECT_LT(s0.Lower(100), down);
}

TEST(StripedCountersTest, StripesNeverCollide) {
  std::vector<StripedCounters> stripes;
  for (uint32_t s = 0; s < 3; ++s) stripes.emplace_back(s, 3);
  Rng rng(7);
  std::set<TsElement> seen;
  TsElement last_up = U;
  TsElement last_down = 1;
  for (int draw = 0; draw < 600; ++draw) {
    StripedCounters& c = stripes[rng.Uniform(0, 2)];
    const bool bounded = rng.Uniform(0, 1) == 1;
    if (rng.Uniform(0, 1) == 0) {
      const TsElement v = c.Upper(bounded ? last_up : U);
      if (bounded && last_up != U) {
        EXPECT_GT(v, last_up);
      }
      last_up = v;
      EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
    } else {
      const TsElement v = c.Lower(bounded ? last_down : 1000000);
      if (bounded) {
        EXPECT_LT(v, last_down);
      }
      last_down = v;
      EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
    }
  }
}

TEST(StripedCountersTest, ObserveMovesPastAnyStripesValue) {
  // Stripe 1 of 3 hands out 3r + 1; having seen 10 (stripe 1's class is
  // 1, 4, 7, 10, 13) and -8 (class -8, -5, ...), it hands out 13 and -11.
  for (const TsElement seen : {TsElement{9}, TsElement{10}, TsElement{11}}) {
    StripedCounters c(1, 3);
    c.Observe(seen);
    const TsElement up = c.Upper(U);
    EXPECT_GT(up, seen);
    EXPECT_LE(up, seen + 3);
    EXPECT_EQ(StripedCounters::StripeOf(up, 3), 1u);
  }
  for (const TsElement seen : {TsElement{-7}, TsElement{-8}, TsElement{-9}}) {
    StripedCounters c(1, 3);
    c.Observe(seen);
    const TsElement down = c.Lower(1000);
    EXPECT_LT(down, seen);
    EXPECT_GE(down, seen - 3);
    EXPECT_EQ(StripedCounters::StripeOf(down, 3), 1u);
  }
  // Observing what the stripe already passed moves nothing.
  StripedCounters c;
  EXPECT_EQ(c.Upper(U), 1);
  c.Observe(1);
  EXPECT_EQ(c.Upper(U), 2);
}

TEST(ColumnClocksTest, StartAtThePaperConstantsThenPassEverythingSeen) {
  ColumnClocks clocks(3);  // Columns 0 and 1; column 2 is the counters'.
  EXPECT_EQ(clocks.columns(), 2u);
  // Both undefined: 1 < 2, as line 19's constants.
  EXPECT_EQ(clocks.Above(1, U), 1);
  EXPECT_EQ(clocks.Above(1, 1), 2);
  // One undefined: past the bound and past every value handed out.
  EXPECT_EQ(clocks.Above(1, 0), 3);
  EXPECT_EQ(clocks.Above(1, 7), 8);
  EXPECT_EQ(clocks.Below(1, 5), 0);
  EXPECT_EQ(clocks.Below(1, -4), -5);
  // The receive rule: values seen elsewhere move the clocks past them.
  clocks.Observe(1, 20);
  clocks.Observe(1, -30);
  EXPECT_EQ(clocks.Above(1, 2), 21);
  EXPECT_EQ(clocks.Below(1, 2), -31);
  // Columns are independent.
  EXPECT_EQ(clocks.Above(0, 0), 1);
}

TEST(VectorTableTest, SetNeverRewritesTheVirtualEntity) {
  // Set(0, b) gives b <1,*,*>; Set(a, b) hands a the leading 0 that
  // collides with TS(0) = <0,*,*>; Set(0, a) then finds '=' at column 2,
  // whose encoding would have to rewrite TS(0). It refuses instead.
  VectorTable table(3);
  const uint32_t a = 1, b = 2;
  ASSERT_TRUE(table.Set(0, b));
  ASSERT_TRUE(table.Set(a, b));
  EXPECT_EQ(table.Ts(a).ToString(), "<0,*,*>");
  EXPECT_FALSE(table.Set(0, a));
  EXPECT_EQ(table.Ts(0).ToString(), "<0,*,*>");
  EXPECT_EQ(table.Ts(a).ToString(), "<0,*,*>");
}

}  // namespace
}  // namespace mdts
