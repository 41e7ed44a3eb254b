#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <vector>

#include "lib/stats.h"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddEvenAndEmptySamples)
{
    EXPECT_DOUBLE_EQ(median({7.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Expected values are what Python's statistics.quantiles(d, n=4)
// returns for the same samples.
TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    const std::array<double, 3> ten =
        quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(ten[0], 2.75);
    EXPECT_DOUBLE_EQ(ten[1], 5.5);
    EXPECT_DOUBLE_EQ(ten[2], 8.25);

    const std::array<double, 3> seven =
        quartiles({5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0});
    EXPECT_DOUBLE_EQ(seven[0], 2.0);
    EXPECT_DOUBLE_EQ(seven[1], 4.0);
    EXPECT_DOUBLE_EQ(seven[2], 7.0);

    const std::array<double, 3> three = quartiles({7, 1, 3});
    EXPECT_DOUBLE_EQ(three[0], 1.0);
    EXPECT_DOUBLE_EQ(three[1], 3.0);
    EXPECT_DOUBLE_EQ(three[2], 7.0);

    // Two samples extrapolate past both ends, as Python does.
    const std::array<double, 3> two = quartiles({2, 8});
    EXPECT_DOUBLE_EQ(two[0], 0.5);
    EXPECT_DOUBLE_EQ(two[1], 5.0);
    EXPECT_DOUBLE_EQ(two[2], 9.5);

    const std::array<double, 3> one = quartiles({4});
    EXPECT_DOUBLE_EQ(one[0], 4.0);
    EXPECT_DOUBLE_EQ(one[2], 4.0);
}

TEST(Stats, RelativeIqrIsQuartileDistanceOverMedian)
{
    EXPECT_DOUBLE_EQ(relativeIqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                     (8.25 - 2.75) / 5.5);
    EXPECT_DOUBLE_EQ(relativeIqr({3, 3, 3, 3}), 0.0);
    EXPECT_DOUBLE_EQ(relativeIqr({0, 0}), 0.0);
}

TEST(Stats, NearestRankPercentiles)
{
    std::vector<double> hundred(100);
    std::iota(hundred.begin(), hundred.end(), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted(hundred, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(percentileSorted(hundred, 0.9), 90.0);
    EXPECT_DOUBLE_EQ(percentileSorted(hundred, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(percentileSorted(hundred, 0.999), 100.0);
    EXPECT_DOUBLE_EQ(percentileSorted(hundred, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted({}, 0.5), 0.0);
}

TEST(Stats, WellSupportedNeedsTenSamplesBeyond)
{
    EXPECT_TRUE(wellSupported(1000, 0.99));
    EXPECT_FALSE(wellSupported(999, 0.99));
    EXPECT_FALSE(wellSupported(1000, 0.999));
    EXPECT_TRUE(wellSupported(100000, 0.9999));
}

TEST(Stats, SummarizePicksHighestSupportedPercentile)
{
    std::vector<double> samples(1000);
    std::iota(samples.rbegin(), samples.rend(), 1.0); // 1000 .. 1
    const Distribution d = summarize(samples);
    EXPECT_EQ(d.count, 1000u);
    EXPECT_DOUBLE_EQ(d.p50, 500.5);
    EXPECT_DOUBLE_EQ(d.p99, 990.0);
    EXPECT_DOUBLE_EQ(d.top_p, 0.99);
    EXPECT_DOUBLE_EQ(d.top, 990.0);
    EXPECT_EQ(percentileLabel(d.top_p), "p99");

    std::vector<double> few = {3.0, 1.0, 2.0};
    const Distribution small = summarize(few);
    EXPECT_DOUBLE_EQ(small.top_p, 0.5);
    EXPECT_DOUBLE_EQ(small.top, 2.0);
}

} // namespace
} // namespace perfbench
