#include <gtest/gtest.h>

#include "lib/host_probe.h"

namespace perfbench {
namespace {

TEST(HostProbe, TakesMeasurableTime)
{
    HostProbe probe;
    const double first = probe.run();
    const double second = probe.run();
    EXPECT_GT(first, 0.0);
    EXPECT_GT(second, 0.0);
    EXPECT_LT(second, 60.0);
}

TEST(HostProbe, ScalesTimesAndRatesToTheReferenceSpeed)
{
    // A host twice as slow as the reference: the probe takes twice
    // as long, so times halve and rates double.
    const double slow = 2.0 * kReferenceProbeSeconds;
    EXPECT_DOUBLE_EQ(atReferenceSpeed(4.0, "s", slow), 2.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(4.0, "us", slow), 2.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(4.0, "ns", slow), 2.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1000.0, "1/s", slow), 2000.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(573.5, "MiB", slow), 573.5);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(12.0, "count", slow), 12.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(0.4, "ratio", slow), 0.4);
    EXPECT_DOUBLE_EQ(
        atReferenceSpeed(3.0, "s", kReferenceProbeSeconds), 3.0);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(3.0, "s", 0.0), 3.0);
}

} // namespace
} // namespace perfbench
