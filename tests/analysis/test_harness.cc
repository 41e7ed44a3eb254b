/** @file Tests for harness conveniences. */

#include "analysis/harness.h"

#include <gtest/gtest.h>

namespace gaia {
namespace {

TEST(Harness, CalibratedQueuesSetAverages)
{
    const JobTrace trace(
        "t", {{1, 0, kSecondsPerHour, 1},
              {2, 0, 10 * kSecondsPerHour, 1}});
    const QueueConfig queues = calibratedQueues(trace);
    EXPECT_EQ(queues.queue(0).avg_length, kSecondsPerHour);
    EXPECT_EQ(queues.queue(1).avg_length, 10 * kSecondsPerHour);
    EXPECT_EQ(queues.queue(0).max_wait, 6 * kSecondsPerHour);
    EXPECT_EQ(queues.queue(1).max_wait, 24 * kSecondsPerHour);
}

TEST(Harness, CalibratedQueuesCustomWaits)
{
    const JobTrace trace("t", {{1, 0, kSecondsPerHour, 1}});
    const QueueConfig queues =
        calibratedQueues(trace, hours(2), hours(12));
    EXPECT_EQ(queues.queue(0).max_wait, hours(2));
    EXPECT_EQ(queues.queue(1).max_wait, hours(12));
}

TEST(Harness, DownsampleAverages)
{
    const std::vector<double> series = {1, 1, 3, 3, 5, 5};
    const auto down = downsample(series, 3);
    ASSERT_EQ(down.size(), 3u);
    EXPECT_DOUBLE_EQ(down[0], 1.0);
    EXPECT_DOUBLE_EQ(down[1], 3.0);
    EXPECT_DOUBLE_EQ(down[2], 5.0);
}

TEST(Harness, DownsampleNoOpWhenSmall)
{
    const std::vector<double> series = {1, 2};
    EXPECT_EQ(downsample(series, 10), series);
}

TEST(Harness, SparklineShape)
{
    EXPECT_EQ(sparkline({}), "");
    const std::string line = sparkline({0, 1, 2, 3}, 4);
    EXPECT_FALSE(line.empty());
    // Flat series renders at the lowest level everywhere.
    const std::string flat = sparkline({5, 5, 5}, 3);
    EXPECT_EQ(flat, "▁▁▁");
}

} // namespace
} // namespace gaia
