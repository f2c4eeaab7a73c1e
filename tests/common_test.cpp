/**
 * @file
 * Tests for common utilities: units, RNG determinism and moments,
 * statistics, table formatting, and the shared text helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "common/units.hpp"

namespace hcc {
namespace {

// --------------------------------------------------------------- units

TEST(Units, TimeConversionsRoundTrip)
{
    EXPECT_EQ(time::ns(1.0), 1000);
    EXPECT_EQ(time::us(1.0), 1000000);
    EXPECT_EQ(time::ms(1.0), 1000000000LL);
    EXPECT_DOUBLE_EQ(time::toUs(time::us(123.0)), 123.0);
    EXPECT_DOUBLE_EQ(time::toSec(time::sec(2.0)), 2.0);
}

TEST(Units, TransferTimeMatchesBandwidth)
{
    // 1 GB at 1 GB/s should take 1 second.
    const SimTime t = transferTime(1000000000ull, 1.0);
    EXPECT_NEAR(time::toSec(t), 1.0, 1e-9);
}

TEST(Units, TransferTimeNeverZeroForNonZeroBytes)
{
    EXPECT_GE(transferTime(1, 1e9), 1);
    EXPECT_EQ(transferTime(0, 10.0), 0);
}

TEST(Units, BandwidthInverseOfTransferTime)
{
    const Bytes b = size::mib(64);
    const SimTime t = transferTime(b, 12.5);
    EXPECT_NEAR(bandwidthGBs(b, t), 12.5, 0.01);
}

TEST(Units, FormatHelpers)
{
    EXPECT_EQ(formatTime(time::ms(1.5)), "1.500 ms");
    EXPECT_EQ(formatBytes(size::mib(2)), "2.00 MiB");
    EXPECT_EQ(formatBytes(100), "100 B");
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next32() == b.next32());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng r(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= (v == 2);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments)
{
    Rng r(11);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(r.normal(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalMedian)
{
    Rng r(13);
    SampleSet s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.lognormal(6.0, 0.3));
    EXPECT_NEAR(s.median(), 6.0, 0.1);
    // Right-skew: mean above median.
    EXPECT_GT(s.mean(), s.median());
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng parent(5);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next32() == b.next32());
    EXPECT_LT(same, 3);
}

// --------------------------------------------------------------- stats

TEST(RunningStatsTest, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsCombined)
{
    RunningStats a, b, all;
    Rng r(17);
    for (int i = 0; i < 1000; ++i) {
        const double x = r.normal(3.0, 1.5);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(SampleSetTest, PercentilesExact)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(SampleSetTest, CdfMonotoneAndEndsAtOne)
{
    SampleSet s;
    Rng r(23);
    for (int i = 0; i < 500; ++i)
        s.add(r.uniform(0.0, 10.0));
    const auto pts = s.cdf();
    ASSERT_EQ(pts.size(), 500u);
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_GE(pts[i].first, pts[i - 1].first);
        EXPECT_GT(pts[i].second, pts[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(SampleSetTest, CdfDropTopExcludesLargest)
{
    SampleSet s;
    for (double x : {1.0, 2.0, 3.0, 100.0, 200.0})
        s.add(x);
    const auto pts = s.cdf(2);
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_DOUBLE_EQ(pts.back().first, 3.0);
    // Mean is computed over all points regardless (paper's method).
    EXPECT_DOUBLE_EQ(s.mean(), 61.2);
}

TEST(StatsFunctions, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 8.0}), 5.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

// --------------------------------------------------------------- table

TEST(Table, AlignsAndCounts)
{
    TextTable t("demo");
    t.header({"app", "base", "cc"});
    t.row({"2dconv", "1.00", "19.69"});
    t.row({"cnn", "1.00", "1.17"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("19.69"), std::string::npos);
}

TEST(Table, CsvEmission)
{
    TextTable t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsArityMismatch)
{
    TextTable t;
    t.header({"a", "b"});
    EXPECT_THROW(t.row({"only-one"}), FatalError);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::ratio(5.8), "5.80x");
    EXPECT_EQ(TextTable::pct(24.0), "24.0%");
}

// ---------------------------------------------------------------- text

TEST(Text, JsonEscapeCoversEveryControlCharacter)
{
    EXPECT_EQ(jsonEscape("plain.name"), "plain.name");
    EXPECT_EQ(jsonEscape("q\"b\\n\nr\rt\tc\x01" "e\x1f"),
              "q\\\"b\\\\n\\nr\\rt\\tc\\u0001e\\u001f");
}

TEST(Text, CsvFieldQuotesPerRfc4180)
{
    EXPECT_EQ(csvField("plain\tfield"), "plain\tfield");
    EXPECT_EQ(csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("two\nlines"), "\"two\nlines\"");
    EXPECT_EQ(csvField("cr\r"), "\"cr\r\"");
}

TEST(Text, DoubleFormats)
{
    EXPECT_EQ(formatG(1.0), "1");
    EXPECT_EQ(formatG(0.25), "0.25");
    EXPECT_EQ(formatG(1e-5), "1e-05");
    EXPECT_EQ(formatG(1.0 / 3.0), "0.333333");
    EXPECT_EQ(formatShortest(160.0), "160");
    EXPECT_EQ(formatShortest(150.25), "150.25");
    EXPECT_EQ(formatShortest(1.0 / 3.0), "0.3333333333333333");
}

TEST(Text, SplitListTrimsAndDropsEmptyItems)
{
    EXPECT_EQ(splitList(" a, b ,,c,"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(splitList("").empty());
    EXPECT_TRUE(splitList(" , ").empty());
    EXPECT_EQ(trim(" \tx y\r "), "x y");
}

// ----------------------------------------------------------------- log

TEST(Log, FatalThrows)
{
    EXPECT_THROW(fatal("bad config value %d", 42), FatalError);
}

TEST(Log, FatalMessageContainsFormat)
{
    try {
        fatal("value %d out of range", 7);
        FAIL() << "fatal must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value 7 out of range"),
                  std::string::npos);
    }
}

} // namespace
} // namespace hcc
