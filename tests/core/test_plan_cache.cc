/** @file Tests for PlanCache: semantics, counters, concurrency,
 *  and memoized-vs-direct policy equivalence. */

#include "core/plan_cache.h"

#include <atomic>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/executor.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/cis.h"
#include "core/policies.h"
#include "tests/common/reference_oracles.h"

namespace gaia {
namespace {

TEST(PlanCacheFlag, TogglesProcessWideMemoization)
{
    EXPECT_TRUE(planMemoizationEnabled());
    setPlanMemoization(false);
    EXPECT_FALSE(planMemoizationEnabled());
    setPlanMemoization(true);
    EXPECT_TRUE(planMemoizationEnabled());
}

TEST(PlanCache, WindowBestPicksFirstMinimum)
{
    PlanCache cache;
    const PlanCache::BoundaryKey key{hours(1), 4, hours(2)};
    // Slots 1 and 3 tie for the minimum; strict < keeps slot 1.
    const auto slot_value = [](Seconds b) {
        const double values[] = {9.0, 2.0, 5.0, 2.0, 7.0};
        return values[b / kSecondsPerHour];
    };
    const PlanCache::WindowBest best =
        cache.windowBest(key, 0, slot_value);
    EXPECT_EQ(best.start, hours(1));
    EXPECT_EQ(best.integral, 2.0);
    EXPECT_EQ(cache.misses(), 1u);

    // Second lookup is a hit and must not recompute.
    const PlanCache::WindowBest again = cache.windowBest(
        key, 0, [](Seconds) -> double { ADD_FAILURE(); return 0.0; });
    EXPECT_EQ(again.start, best.start);
    EXPECT_EQ(again.integral, best.integral);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCache, SlotTableComputesEachSlotOnce)
{
    PlanCache cache;
    int computes = 0;
    const auto slot_value = [&](Seconds b) {
        ++computes;
        return static_cast<double>(b);
    };

    // First key covers slots [1, 4); filling also covers the gap
    // from slot 0, so 4 computations.
    cache.windowBest({hours(1), 3, hours(2)}, 0, slot_value);
    EXPECT_EQ(computes, 4);

    // An overlapping key of the same length extends by one slot and
    // reads its slice in place.
    std::vector<double> integrals;
    cache.startIntegrals({hours(2), 3, hours(2)}, hours(1), slot_value,
                         [&](const double *values) {
                             integrals.assign(values, values + 3);
                         });
    EXPECT_EQ(computes, 5);
    EXPECT_EQ(integrals[0], static_cast<double>(hours(2)));
    EXPECT_EQ(integrals[2], static_cast<double>(hours(4)));
    EXPECT_EQ(cache.misses(), 2u);

    // A key the table already covers is a hit and computes nothing.
    cache.startIntegrals({hours(1), 4, hours(2)}, 0, slot_value,
                         [](const double *) {});
    EXPECT_EQ(computes, 5);
    EXPECT_EQ(cache.hits(), 1u);

    // A different window length gets its own table.
    cache.windowBest({hours(1), 2, hours(5)}, 0, slot_value);
    EXPECT_EQ(computes, 8);
}

TEST(PlanCache, KeysMustStartAfterTheReadersArrivalSlot)
{
    PlanCache cache;
    const auto slot_value = [](Seconds b) {
        return static_cast<double>(b);
    };
    // A key starting in the reader's own arrival slot would replay a
    // value an earlier arrival saw as a forecast.
    EXPECT_DEATH(cache.startIntegrals({hours(3), 2, hours(1)},
                                      hours(3) + 10, slot_value,
                                      [](const double *) {}),
                 "arrival slot");
    EXPECT_DEATH(cache.windowBest({hours(3), 2, hours(1)},
                                  hours(3) + 3599, slot_value),
                 "arrival slot");
}

TEST(PlanCache, StartIntegralsSliceSurvivesLaterExtensions)
{
    PlanCache cache;
    const auto slot_value = [](Seconds b) {
        return static_cast<double>(b) + 0.5;
    };
    const auto slice = [&](Seconds first) {
        std::vector<double> values;
        cache.startIntegrals({first, 2, hours(3)}, 0, slot_value,
                             [&](const double *v) {
                                 values.assign(v, v + 2);
                             });
        return values;
    };
    const std::vector<double> expected = slice(hours(1));

    // Each key extends the table, which may move it in memory.
    for (int k = 0; k < 200; ++k)
        slice(hours(1 + k));
    EXPECT_EQ(slice(hours(1)), expected);
}

TEST(PlanCache, MinSlotCachesPerRange)
{
    PlanCache cache;
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return SlotIndex{7};
    };
    EXPECT_EQ(cache.minSlot(2, 9, compute), 7);
    EXPECT_EQ(cache.minSlot(2, 9, compute), 7);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.minSlot(3, 9, compute), 7);
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCache, ZeroLookupSummaryIsSane)
{
    PlanCache cache;
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    std::ostringstream out;
    cache.printSummary(out);
    EXPECT_NE(out.str().find("0 lookups"), std::string::npos);
}

TEST(PlanCache, ConcurrentHammerKeepsCountersConsistent)
{
    PlanCache cache;
    Executor pool(4);
    const int kTasks = 8;
    const int kIters = 200;
    const int kKeys = 16;
    std::atomic<int> slot_computes{0};

    TaskGroup group(pool);
    for (int t = 0; t < kTasks; ++t) {
        group.run([&] {
            for (int i = 0; i < kIters; ++i) {
                const Seconds first = hours(1 + i % kKeys);
                const PlanCache::BoundaryKey key{first, 3,
                                                 hours(2)};
                const auto slot_value = [&](Seconds b) {
                    ++slot_computes;
                    return static_cast<double>(b) * 2.0;
                };
                const PlanCache::WindowBest best =
                    cache.windowBest(key, 0, slot_value);
                // Values double with the boundary, so the first
                // candidate always wins.
                ASSERT_EQ(best.start, first);
                double head = 0.0;
                double tail = 0.0;
                cache.startIntegrals(key, 0, slot_value,
                                     [&](const double *integrals) {
                                         head = integrals[0];
                                         tail = integrals[2];
                                     });
                ASSERT_EQ(head, static_cast<double>(first) * 2.0);
                ASSERT_EQ(tail, static_cast<double>(first +
                                                    hours(2)) *
                                    2.0);
                ASSERT_EQ(cache.minSlot(
                              slotOf(first), slotOf(first) + 3,
                              [&] { return slotOf(first); }),
                          slotOf(first));
            }
        });
    }
    group.wait();

    const std::uint64_t lookups =
        static_cast<std::uint64_t>(kTasks) * kIters * 3;
    EXPECT_EQ(cache.hits() + cache.misses(), lookups);
    // Each distinct windowBest and minSlot key computes exactly
    // once; startIntegrals always follows a windowBest of the same
    // key, whose table then covers its range, so it never misses.
    EXPECT_EQ(cache.misses(),
              static_cast<std::uint64_t>(kKeys) * 2);
    // The shared slot table computed each slot exactly once.
    EXPECT_EQ(slot_computes.load(), kKeys + 3);
}

/** Jobs planned with and without the cache must match bit for bit
 *  (the invariant the golden CSV tests pin end to end). */
TEST(PlanCacheEquivalence, MemoizedPlansMatchDirect)
{
    const std::vector<double> hourly = {400, 120, 330, 50,  210, 600,
                                        90,  480, 70,  310, 150, 260,
                                        30,  520, 440, 80,  360, 200};
    const CarbonTrace trace("test", hourly);
    const CarbonInfoService cis(trace);
    const QueueSpec queue{"q", 3 * kSecondsPerDay, hours(6),
                          hours(2)};

    const LowestSlotPolicy lowest_slot;
    const LowestWindowPolicy lowest_window;
    const CarbonTimePolicy carbon_time;
    const std::vector<const SchedulingPolicy *> policies = {
        &lowest_slot, &lowest_window, &carbon_time};

    // Arrivals at slot starts, mid-slot, and just before slot ends.
    const std::vector<Seconds> arrivals = {
        0, 1, 599, 1800, 3599, 3600, 5000, 7205, 10799, 14400};

    PlanCache cache;
    for (const SchedulingPolicy *policy : policies) {
        for (const Seconds now : arrivals) {
            const Job job{1, now, hours(1), 1};
            PlanContext direct{now, &cis, &queue};
            PlanContext memo{now, &cis, &queue};
            memo.cache = &cache;
            const SchedulePlan a = policy->plan(job, direct);
            const SchedulePlan b = policy->plan(job, memo);
            EXPECT_EQ(a.plannedStart(), b.plannedStart())
                << policy->name() << " at now=" << now;
            EXPECT_EQ(a.plannedEnd(), b.plannedEnd())
                << policy->name() << " at now=" << now;
        }
    }
    // The repeat arrivals in each slot actually exercised hits.
    EXPECT_GT(cache.hits(), 0u);
}

/** Memoized per-boundary integrals must be bitwise the reference
 *  loop's values — first on the miss that fills the table, then on
 *  every replayed hit. */
TEST(PlanCacheEquivalence, StartIntegralsMatchReferenceBitwise)
{
    Rng rng(314);
    for (int t = 0; t < 10; ++t) {
        const CarbonTrace trace = randomTrace(rng, 72);
        PlanCache cache;
        const Seconds window = hours(rng.uniformInt(1, 6));
        // Keys start at least one slot after the reader's arrival.
        const Seconds first =
            hours(rng.uniformInt(1, 25));
        const Seconds now = first - 1;
        const std::int64_t count = rng.uniformInt(1, 12);
        const PlanCache::BoundaryKey key{first, count, window};
        const auto slot_value = [&](Seconds b) {
            return trace.integrate(b, b + window);
        };
        for (int pass = 0; pass < 2; ++pass) {
            std::vector<double> integrals;
            cache.startIntegrals(key, now, slot_value,
                                 [&](const double *values) {
                                     integrals.assign(values,
                                                      values + count);
                                 });
            for (std::int64_t i = 0; i < count; ++i) {
                const Seconds b = first + i * kSecondsPerHour;
                ASSERT_EQ(integrals[static_cast<std::size_t>(i)],
                          refIntegrate(trace, b, b + window))
                    << "trace " << t << " boundary " << b
                    << " pass " << pass;
            }
        }
        EXPECT_GT(cache.hits(), 0u);
    }
}

} // namespace
} // namespace gaia
