/**
 * @file
 * Brute-force reference implementations shared by the differential
 * test suites.
 *
 * Each production fast path in this repo is pinned to a naive loop
 * that re-derives the same answer the slow way: the carbon-trace
 * prefix/RMQ tables (test_cis_fastpath, test_plan_cache), the
 * Wait-Awhile greedy (test_policy_optimality), the elastic
 * CarbonScaler allocator (test_elastic_oracle), and the post-drain
 * accounting pass the engine replaced by settling each job at its
 * completion (test_accounting_oracle). The loops live here
 * so every suite tests against the *same* reference arithmetic —
 * bitwise agreement between two suites then means agreement with a
 * single shared oracle, not two coincidentally-similar ones.
 *
 * Everything is header-only and inline; helpers that assert use
 * gtest's EXPECT so a broken reference fails the calling test.
 */

#ifndef GAIA_TESTS_COMMON_REFERENCE_ORACLES_H
#define GAIA_TESTS_COMMON_REFERENCE_ORACLES_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "core/elastic.h"
#include "sim/cluster.h"
#include "sim/results.h"
#include "trace/carbon_trace.h"

namespace gaia {

/**
 * Reference integral with the fast path's rounding discipline: the
 * same per-segment products and the same summation structure —
 * partial segments plus one full-hour block collapsed to a double —
 * except the block is summed by looping over the hours instead of
 * differencing the precomputed prefix table. Bitwise agreement then
 * pins the table (and its indexing) exactly.
 */
inline double
refIntegrate(const CarbonTrace &trace, Seconds from, Seconds to)
{
    if (from == to)
        return 0.0;
    const std::vector<double> &v = trace.values();
    CompensatedSum total;
    Seconds cursor = from;
    if (cursor < 0) {
        const Seconds seg_end = std::min<Seconds>(kSecondsPerHour, to);
        total.add(v.front() * static_cast<double>(seg_end - cursor));
        cursor = seg_end;
    }
    const Seconds end_of_trace = trace.duration();
    if (cursor < to && cursor < end_of_trace) {
        const Seconds stop = std::min(to, end_of_trace);
        const SlotIndex slot = slotOf(cursor);
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        if (slot_end >= stop) {
            total.add(v[static_cast<std::size_t>(slot)] *
                      static_cast<double>(stop - cursor));
            cursor = stop;
        } else {
            if (cursor != slotStart(slot)) {
                total.add(v[static_cast<std::size_t>(slot)] *
                          static_cast<double>(slot_end - cursor));
                cursor = slot_end;
            }
            const auto full_begin =
                static_cast<std::size_t>(slotOf(cursor));
            const auto full_end =
                static_cast<std::size_t>(slotOf(stop));
            if (full_end > full_begin) {
                // The looped stand-in for the prefix difference.
                CompensatedSum block;
                for (std::size_t s = full_begin; s < full_end; ++s)
                    block.add(v[s] * 3600.0);
                total.add(block.round());
                cursor = static_cast<Seconds>(full_end) *
                         kSecondsPerHour;
            }
            if (cursor < stop) {
                total.add(v[full_end] *
                          static_cast<double>(stop - cursor));
                cursor = stop;
            }
        }
    }
    while (cursor < to) {
        const Seconds slot_end =
            slotStart(slotOf(cursor)) + kSecondsPerHour;
        const Seconds segment_end = std::min(slot_end, to);
        total.add(v.back() *
                  static_cast<double>(segment_end - cursor));
        cursor = segment_end;
    }
    return total.round();
}

/** Plain-double version of the replaced loop (old rounding). */
inline double
naiveIntegrate(const CarbonTrace &trace, Seconds from, Seconds to)
{
    double total = 0.0;
    Seconds cursor = from;
    while (cursor < to) {
        const SlotIndex slot = slotOf(std::max<Seconds>(cursor, 0));
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        const Seconds segment_end = std::min(slot_end, to);
        total += trace.atSlot(slot) *
                 static_cast<double>(segment_end - cursor);
        cursor = segment_end;
    }
    return total;
}

/** Reference argmin: the first-win linear scan the RMQ replaced. */
inline SlotIndex
refMinSlot(const CarbonTrace &trace, Seconds from, Seconds to)
{
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    SlotIndex best = first;
    double best_value = trace.atSlot(first);
    for (SlotIndex s = first + 1; s <= last; ++s) {
        const double v = trace.atSlot(s);
        if (v < best_value) {
            best_value = v;
            best = s;
        }
    }
    return best;
}

/**
 * Random trace mixing smooth values with quantized flat runs — the
 * region models clamp to a floor, so real traces contain long runs
 * of exactly-equal values whose ties the fast paths must preserve.
 */
inline CarbonTrace
randomTrace(Rng &rng, std::size_t slots)
{
    std::vector<double> values;
    values.reserve(slots);
    while (values.size() < slots) {
        if (rng.bernoulli(0.3)) {
            // Flat run at a quantized level (exact-tie material).
            const double level =
                25.0 * static_cast<double>(rng.uniformInt(1, 12));
            const std::int64_t run = rng.uniformInt(1, 8);
            for (std::int64_t i = 0;
                 i < run && values.size() < slots; ++i)
                values.push_back(level);
        } else {
            values.push_back(rng.uniform(10.0, 700.0));
        }
    }
    return CarbonTrace("prop", std::move(values));
}

/** Smooth random trace (no ties) for brute-force comparisons. */
inline CarbonTrace
randomTrace(std::uint64_t seed, std::size_t slots = 48)
{
    Rng rng(seed);
    std::vector<double> values;
    values.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i)
        values.push_back(rng.uniform(10.0, 800.0));
    return CarbonTrace("rand", std::move(values));
}

/** Random window, biased to also cover the clamp regions. */
inline std::pair<Seconds, Seconds>
randomWindow(Rng &rng, const CarbonTrace &trace)
{
    const Seconds lo = -2 * kSecondsPerHour;
    const Seconds hi = trace.duration() + 6 * kSecondsPerHour;
    Seconds a = rng.uniformInt(lo, hi);
    Seconds b = rng.uniformInt(lo, hi);
    if (a > b)
        std::swap(a, b);
    return {a, b};
}

/**
 * Brute-force reference for Wait-Awhile: minimize total carbon of
 * J seconds of execution within [t, t+J+W] by greedily buying the
 * cheapest seconds — since the cost of each second is independent,
 * the continuous relaxation's optimum equals picking the cheapest
 * per-second prices, evaluated here by scanning hour slices.
 */
inline double
cheapestExecutionCost(const CarbonTrace &trace, Seconds now,
                      Seconds length, Seconds wait)
{
    const Seconds deadline = now + length + wait;
    struct Slice
    {
        double price;
        Seconds available;
    };
    std::vector<Slice> slices;
    for (SlotIndex s = slotOf(now); slotStart(s) < deadline; ++s) {
        const Seconds from = std::max(now, slotStart(s));
        const Seconds to =
            std::min(deadline, slotStart(s) + kSecondsPerHour);
        if (to > from)
            slices.push_back({trace.atSlot(s), to - from});
    }
    std::sort(slices.begin(), slices.end(),
              [](const Slice &a, const Slice &b) {
                  return a.price < b.price;
              });
    double cost = 0.0;
    Seconds remaining = length;
    for (const Slice &slice : slices) {
        if (remaining <= 0)
            break;
        const Seconds take = std::min(remaining, slice.available);
        cost += slice.price * static_cast<double>(take);
        remaining -= take;
    }
    EXPECT_EQ(remaining, 0);
    return cost;
}

/**
 * Flat-sort knapsack reference for the CarbonScaler greedy: list
 * every (slot, step) chunk, sort globally by (cost-per-work ratio,
 * slot, step), and consume in that order with the exact arithmetic
 * of planElasticGreedy (full capacity, or the final ceil-trimmed
 * partial chunk).
 *
 * On concave profiles the greedy's eligibility order coincides with
 * this global sort: within a slot, concavity makes ratios
 * non-decreasing in the step index, so the sort never reaches a
 * marginal chunk before its slot's lower steps; and a chunk the
 * greedy's eligibility rule hides is always preceded (in ratio) by
 * an eligible chunk of the same slot. Identical consumption order
 * plus identical per-chunk arithmetic makes the two allocations
 * bitwise equal — which test_elastic_oracle asserts.
 */
inline ElasticAllocation
planElasticFlatSort(const ElasticWindow &window, Seconds length)
{
    struct Chunk
    {
        double ratio;
        int slot;
        int step;
    };
    std::vector<Chunk> chunks;
    chunks.reserve(
        static_cast<std::size_t>(window.slotCount()) *
        static_cast<std::size_t>(window.stepCount()));
    for (int s = 0; s < window.slotCount(); ++s)
        for (int k = 0; k < window.stepCount(); ++k)
            chunks.push_back({window.ratio(s, k), s, k});
    std::sort(chunks.begin(), chunks.end(),
              [](const Chunk &a, const Chunk &b) {
                  if (a.ratio != b.ratio)
                      return a.ratio < b.ratio;
                  if (a.slot != b.slot)
                      return a.slot < b.slot;
                  return a.step < b.step;
              });

    ElasticAllocation alloc(window.slotCount(), window.stepCount());
    double remaining = static_cast<double>(length);
    for (const Chunk &c : chunks) {
        if (remaining <= 0.0)
            break;
        const Seconds capacity =
            window.slots[static_cast<std::size_t>(c.slot)]
                .capacity();
        const double rate =
            window.step_rate[static_cast<std::size_t>(c.step)];
        Seconds take = capacity;
        const double need = remaining / rate;
        if (need < static_cast<double>(capacity)) {
            take = static_cast<Seconds>(std::ceil(need));
            if (take < 1)
                take = 1;
        }
        alloc.at(c.slot, c.step) = take;
        remaining -= static_cast<double>(take) * rate;
    }
    EXPECT_LE(remaining, 0.0);
    return alloc;
}

/**
 * Reference accounting: the post-drain pass that closed every job's
 * books in one loop over the job pool, before the engine settled each
 * job as it finished. `raw` supplies each job's recorded placements
 * (in any order) plus what is known before settling — id, submit,
 * length, cpus, carbon_nowait_g, evictions — and the result's labels;
 * every settled per-job field and every aggregate is recomputed here
 * from scratch. `horizon` 0 derives an online run's horizon from the
 * observed schedule, as finalize() does.
 */
inline SimulationResult
refCloseBooks(const SimulationResult &raw, const ClusterConfig &cluster,
              Seconds horizon, const CarbonTrace &carbon)
{
    SimulationResult result;
    result.policy = raw.policy;
    result.strategy = raw.strategy;
    result.region = raw.region;
    result.workload = raw.workload;

    if (horizon == 0) {
        Seconds last_finish = 0;
        for (const JobOutcome &o : raw.outcomes)
            for (const PlacedSegment &seg : o.segments)
                last_finish = std::max(last_finish, seg.end);
        horizon = std::max<Seconds>(
            ((last_finish + kSecondsPerDay - 1) / kSecondsPerDay) *
                kSecondsPerDay,
            kSecondsPerDay);
    }

    result.outcomes.reserve(raw.outcomes.size());
    for (const JobOutcome &recorded : raw.outcomes) {
        JobOutcome o;
        o.id = recorded.id;
        o.submit = recorded.submit;
        o.length = recorded.length;
        o.cpus = recorded.cpus;
        o.segments = recorded.segments;
        o.carbon_nowait_g = recorded.carbon_nowait_g;
        o.evictions = recorded.evictions;
        EXPECT_FALSE(o.segments.empty()) << "job " << o.id;
        std::sort(o.segments.begin(), o.segments.end(),
                  [](const PlacedSegment &a, const PlacedSegment &b) {
                      return a.start < b.start;
                  });

        o.start = o.segments.front().start;
        for (const PlacedSegment &seg : o.segments) {
            const int cores = o.cpus * seg.width;
            const double core_seconds =
                static_cast<double>(seg.duration()) * cores;
            o.carbon_g += carbon.gramsFor(
                seg.start, seg.end, cluster.energy.kilowatts(cores));
            result.energy_kwh +=
                cluster.energy.kilowattHours(core_seconds);

            double overhead_core_seconds = 0.0;
            if (seg.option != PurchaseOption::Reserved &&
                cluster.startup_overhead > 0) {
                const Seconds ov = cluster.startup_overhead;
                overhead_core_seconds = static_cast<double>(ov) * cores;
                const Seconds ov_from =
                    std::max<Seconds>(seg.start - ov, 0);
                double ov_grams = carbon.gramsFor(
                    ov_from, seg.start, cluster.energy.kilowatts(cores));
                const Seconds clipped = ov - (seg.start - ov_from);
                if (clipped > 0) {
                    ov_grams += carbon.at(0) *
                                cluster.energy.kilowatts(cores) *
                                static_cast<double>(clipped) /
                                static_cast<double>(kSecondsPerHour);
                }
                o.carbon_g += ov_grams;
                o.overhead_core_seconds += overhead_core_seconds;
                result.overhead_core_seconds += overhead_core_seconds;
                result.energy_kwh +=
                    cluster.energy.kilowattHours(overhead_core_seconds);
            }

            switch (seg.option) {
              case PurchaseOption::Reserved:
                result.reserved_core_seconds += core_seconds;
                break;
              case PurchaseOption::OnDemand:
                result.on_demand_core_seconds +=
                    core_seconds + overhead_core_seconds;
                o.variable_cost += cluster.pricing.usageCost(
                    PurchaseOption::OnDemand,
                    core_seconds + overhead_core_seconds);
                break;
              case PurchaseOption::Spot:
                result.spot_core_seconds +=
                    core_seconds + overhead_core_seconds;
                o.variable_cost += cluster.pricing.usageCost(
                    PurchaseOption::Spot,
                    core_seconds + overhead_core_seconds);
                break;
            }
            if (seg.lost)
                o.lost_core_seconds += core_seconds;
            else
                o.finish = std::max(o.finish, seg.end);
        }

        result.carbon_kg += o.carbon_g / 1000.0;
        result.carbon_nowait_kg += o.carbon_nowait_g / 1000.0;
        result.lost_core_seconds += o.lost_core_seconds;
        result.eviction_count += static_cast<std::size_t>(o.evictions);
        result.outcomes.push_back(std::move(o));
    }

    result.on_demand_cost = cluster.pricing.usageCost(
        PurchaseOption::OnDemand, result.on_demand_core_seconds);
    result.spot_cost = cluster.pricing.usageCost(
        PurchaseOption::Spot, result.spot_core_seconds);

    if (cluster.reserved_cores > 0 &&
        cluster.reserved_idle_power_fraction > 0.0) {
        const auto slots = static_cast<std::size_t>(
            (horizon + kSecondsPerHour - 1) / kSecondsPerHour);
        std::vector<double> busy(slots, 0.0);
        for (const JobOutcome &o : result.outcomes) {
            for (const PlacedSegment &seg : o.segments) {
                if (seg.option != PurchaseOption::Reserved)
                    continue;
                for (Seconds cursor = seg.start; cursor < seg.end;) {
                    const auto slot = static_cast<std::size_t>(
                        cursor / kSecondsPerHour);
                    const Seconds end = std::min(
                        static_cast<Seconds>(slot + 1) * kSecondsPerHour,
                        seg.end);
                    busy[slot] += static_cast<double>(end - cursor) *
                                  o.cpus * seg.width;
                    cursor = end;
                }
            }
        }
        const double idle_kw_per_core =
            cluster.energy.kilowatts(1) *
            cluster.reserved_idle_power_fraction;
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const Seconds slot_len = std::min<Seconds>(
                kSecondsPerHour,
                horizon - static_cast<Seconds>(slot) * kSecondsPerHour);
            const double idle_core_seconds = std::max(
                0.0, static_cast<double>(cluster.reserved_cores) *
                             static_cast<double>(slot_len) -
                         busy[slot]);
            const double kwh = idle_kw_per_core * idle_core_seconds /
                               static_cast<double>(kSecondsPerHour);
            result.idle_energy_kwh += kwh;
            result.idle_carbon_kg +=
                kwh * carbon.atSlot(static_cast<SlotIndex>(slot)) /
                1000.0;
        }
        result.energy_kwh += result.idle_energy_kwh;
        result.carbon_kg += result.idle_carbon_kg;
    }

    result.reserved_cores = cluster.reserved_cores;
    result.horizon = horizon;
    result.reserved_upfront =
        cluster.pricing.reservedUpfront(cluster.reserved_cores, horizon);
    if (cluster.reserved_cores > 0 && horizon > 0) {
        result.reserved_utilization =
            result.reserved_core_seconds /
            (static_cast<double>(cluster.reserved_cores) *
             static_cast<double>(horizon));
    }
    return result;
}

} // namespace gaia

#endif // GAIA_TESTS_COMMON_REFERENCE_ORACLES_H
