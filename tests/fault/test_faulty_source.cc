/** @file Tests for the fault-injecting carbon-source decorator. */

#include "fault/faulty_source.h"

#include <gtest/gtest.h>

#include <vector>

namespace gaia {
namespace {

/** Ramp trace: slot i carries 100 + i, so every slot is unique. */
CarbonTrace
rampTrace(std::size_t slots = 24 * 14)
{
    std::vector<double> values(slots);
    for (std::size_t i = 0; i < slots; ++i)
        values[i] = 100.0 + static_cast<double>(i);
    return CarbonTrace("ramp", std::move(values));
}

FaultSpec
onlySpec(double FaultSpec::*field, double rate)
{
    FaultSpec spec;
    spec.*field = rate;
    return spec;
}

TEST(FaultySource, GroundTruthPassesThrough)
{
    const CarbonTrace trace = rampTrace();
    const CarbonInfoService inner(trace);
    const FaultInjector injector(
        onlySpec(&FaultSpec::outage_rate, 1.0));
    const FaultyCarbonSource faulty(inner, injector);
    // Accounting reads the inner trace by reference — a flaky feed
    // does not change what the grid emitted.
    EXPECT_EQ(&faulty.trace(), &inner.trace());
    // Outages leave forecast values alone, so the decorator is as
    // memoizable as its inner source.
    EXPECT_TRUE(faulty.slotInvariantForecasts());
}

TEST(FaultySource, OutageOnlyAffectsAvailability)
{
    const CarbonTrace trace = rampTrace();
    const CarbonInfoService inner(trace);
    const FaultInjector injector(
        onlySpec(&FaultSpec::outage_rate, 1.0));
    const FaultyCarbonSource faulty(inner, injector);
    for (Seconds t : {Seconds(0), hours(3), hours(100)}) {
        EXPECT_FALSE(faulty.availableAt(t));
        // Queries still answer truthfully, like a cached client.
        EXPECT_DOUBLE_EQ(faulty.intensityAt(t),
                         inner.intensityAt(t));
    }
    const FaultInjector none{FaultSpec{}};
    const FaultyCarbonSource healthy(inner, none);
    EXPECT_TRUE(healthy.availableAt(hours(3)));
}

TEST(FaultySource, StaleWindowsFreezeTheFeed)
{
    const CarbonTrace trace = rampTrace();
    const CarbonInfoService inner(trace);
    FaultSpec spec;
    spec.stale_rate = 1.0;
    spec.stale_duration = hours(4);
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(inner, injector);

    // Every hour starts a 4h stale window, so at t = 10h + 100s the
    // earliest covering window starts at hour 7 — the feed froze
    // there.
    const Seconds now = hours(10) + 100;
    EXPECT_DOUBLE_EQ(faulty.intensityAt(now), 107.0);
    // Slots at or after the freeze answer the freeze slot's value.
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 7), 107.0);
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 12), 107.0);
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 40), 107.0);
    // History before the freeze is already recorded — untouched.
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 5), 105.0);
}

TEST(FaultySource, SpikesMultiplyOnlyFutureSlots)
{
    const CarbonTrace trace = rampTrace();
    const CarbonInfoService inner(trace);
    FaultSpec spec;
    spec.spike_rate = 1.0;
    spec.spike_duration = hours(2);
    spec.spike_factor = 3.0;
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(inner, injector);

    const Seconds now = 100; // inside slot 0
    // The current slot is a measurement — never multiplied.
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 0), 100.0);
    EXPECT_DOUBLE_EQ(faulty.intensityAt(now), 100.0);
    // Future slots carry the corrupted forecast.
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 5), 3.0 * 105.0);
    // Uniform multiplication preserves the forecast ranking.
    EXPECT_EQ(faulty.forecastMinSlot(now, hours(2), hours(6)), 2);
}

TEST(FaultySource, GapSlotsCarryTheLastObservationForward)
{
    const CarbonTrace trace = rampTrace();
    const CarbonInfoService inner(trace);
    const FaultInjector injector(
        onlySpec(&FaultSpec::gap_rate, 1.0));
    const FaultyCarbonSource faulty(inner, injector);
    // Every slot is a gap, so the walk-back lands on slot 0 (a gap
    // at the very start falls through to the inner value).
    const Seconds now = hours(1);
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 7), 100.0);
    EXPECT_DOUBLE_EQ(faulty.forecastAtSlot(now, 40), 100.0);
    EXPECT_DOUBLE_EQ(faulty.intensityAt(hours(9)), 100.0);
}

TEST(FaultySource, IntegralsWalkTheDistortedSlots)
{
    const CarbonTrace trace = rampTrace();
    const CarbonInfoService inner(trace);
    FaultSpec spec;
    spec.spike_rate = 1.0;
    spec.spike_duration = hours(2);
    spec.spike_factor = 2.0;
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(inner, injector);
    const Seconds now = 0;
    // [1h, 3h): two future slots at doubled intensity.
    const double expected =
        2.0 * (101.0 + 102.0) * kSecondsPerHour;
    EXPECT_DOUBLE_EQ(faulty.forecastIntegrate(now, hours(1),
                                              hours(3)),
                     expected);
    // Percentile over a distorted window sees distorted values.
    EXPECT_DOUBLE_EQ(faulty.forecastPercentile(now, hours(1),
                                               hours(2), 0.5),
                     2.0 * 101.0);
}

} // namespace
} // namespace gaia
