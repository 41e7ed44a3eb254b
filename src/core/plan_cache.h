/**
 * @file
 * Memoization of deterministic policies' slot-invariant planning
 * sub-computations.
 *
 * Arrivals are uniform *within* an hour (workload/generators.cc), so
 * whole plans cannot be keyed by arrival slot — a job arriving at
 * slot offset 17s and one at 3599s start "now" at different
 * instants. What *is* shared is everything the start-time policies
 * compute about the hourly boundary candidates: every candidate
 * b = nextSlotBoundary(now+1) + k·3600 lies in a slot strictly after
 * slotOf(now), where the CIS answers are independent of the exact
 * `now` (the measured-truth branch of forecastAtSlot only fires for
 * slots at or before slotOf(now); oracle noise is a pure per-slot
 * hash). The boundary set itself depends only on (slotOf(now),
 * max_wait), so per arrival slot and queue the boundary work — the
 * dominant cost, one forecast integral per candidate — collapses to
 * one computation reused by every job in that slot.
 *
 * Cached per policy family:
 *  - Lowest-Window: the first boundary attaining the minimum
 *    integral over [b, b+J_avg) (strict-< scan ≡ first occurrence of
 *    the min), plus that minimum. The per-job decision reduces to
 *    one comparison against the job's own I(now, now+J_avg).
 *  - Carbon-Time: a read-only slice of the boundary integrals; the
 *    CST ratio depends on the exact `now`, so the per-job loop
 *    replays the identical arithmetic over the slice.
 *  - Carbon-Scaler (core/elastic.cc): a slice of per-slot forecast
 *    intensities for the slots after the arrival slot.
 *  - Lowest-Slot: the argmin slot of the waiting window (the first
 *    scanned slot is slotOf(now) itself, whose measured-truth value
 *    is the same for every arrival in the slot, and it is part of
 *    the key).
 *
 * Boundary keys from consecutive arrival slots cover candidate sets
 * that overlap in all but one slot, so filling each key's miss by
 * scanning its candidates would still recompute every slot integral
 * ~count times per simulation. Misses instead draw from a per-length
 * slot table (slot boundary -> integral over [b, b+length)) that
 * computes each slot's integral exactly once, making total miss work
 * linear in the trace length rather than trace x window. Slices are
 * read in place from that table; no key owns a copy.
 *
 * The arrival slot is never read from a table: its value is
 * measured truth for the reader but was a (possibly noisy) forecast
 * for whichever earlier arrival filled it. Every table read asserts
 * that the key's first boundary lies strictly after the reader's
 * arrival slot.
 *
 * Replayed values are bitwise identical to direct evaluation by
 * construction — same functions, same arguments (up to a `now` the
 * result provably does not depend on) — which the golden CSV tests
 * pin end to end. Policies bypass the cache whenever the invariants
 * do not hold: sub-hourly candidate granularity, or a source whose
 * answers depend on the query instant (a model-backed forecaster,
 * or a fault decorator injecting stale, spike or gap faults).
 *
 * Thread-safe: one instance serves one single-threaded simulation,
 * but lookups are mutex-guarded so the cache can also be shared or
 * hammered concurrently (see tests/core/test_plan_cache.cc). Slices
 * are only visited under the lock, since a later extension may move
 * the table.
 */

#ifndef GAIA_CORE_PLAN_CACHE_H
#define GAIA_CORE_PLAN_CACHE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/obs.h"
#include "common/time.h"

namespace gaia {

/**
 * Process-wide memoization toggle (default on), kept as a test
 * reference hook: tests turn it off to compare memoised plans
 * against direct evaluation. Checked once per job at plan-context
 * build time.
 */
void setPlanMemoization(bool enabled);
bool planMemoizationEnabled();

/** Per-simulation cache of slot-invariant planning results. */
class PlanCache
{
  public:
    /**
     * Identifies one boundary-candidate computation: the first
     * hourly boundary candidate, the candidate count, and the
     * window length the integrals span. (first, count) encode the
     * arrival slot and the queue's max-wait; `length` is J_avg —
     * or the exact job length for the oracle variant.
     */
    struct BoundaryKey
    {
        Seconds first = 0;
        std::int64_t count = 0;
        Seconds length = 0;

        bool operator==(const BoundaryKey &o) const
        {
            return first == o.first && count == o.count &&
                   length == o.length;
        }
    };

    /** Lowest-Window's cached winner among boundary candidates. */
    struct WindowBest
    {
        Seconds start = 0;
        double integral = 0.0;
    };

    PlanCache() = default;
    PlanCache(const PlanCache &) = delete;
    PlanCache &operator=(const PlanCache &) = delete;

    /**
     * Flushes this instance's totals into the process-wide metrics
     * registry (plan_cache.hits / .misses counters; one
     * plan_cache.fill_seconds sample when detailed timing ran), so
     * per-cell caches aggregate into one sweep-wide view.
     */
    ~PlanCache();

    /**
     * The first boundary candidate minimizing the forecast integral
     * (and that integral), for a reader arriving at `now`.
     * `compute_slot(Seconds b) -> double` is the integral over
     * [b, b+length) for one slot-aligned boundary; the strict-< scan
     * over candidates (first occurrence of the min) happens here,
     * over the shared slot table. Requires key.count > 0.
     */
    template <typename ComputeSlot>
    WindowBest windowBest(const BoundaryKey &key, Seconds now,
                          ComputeSlot &&compute_slot)
    {
        checkReader(key, now);
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = window_best_.find(key);
        if (it != window_best_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        bool extended = false;
        const double *integrals =
            tableFor(key, compute_slot, extended);
        WindowBest best{key.first, integrals[0]};
        for (std::int64_t k = 1; k < key.count; ++k) {
            if (integrals[k] < best.integral) {
                best.integral = integrals[k];
                best.start = key.first + k * kSecondsPerHour;
            }
        }
        window_best_.emplace(key, best);
        return best;
    }

    /**
     * Calls `visit(const double *values)` with the key's slice of
     * the per-length slot table, for a reader arriving at `now`:
     * values[k] is compute_slot(key.first + k·3600), the integral
     * over [b_k, b_k + length). The table is extended first when it
     * does not cover the key's range yet (a miss); otherwise the
     * lookup is a hit. `visit` runs under the cache lock and must
     * not keep the pointer.
     */
    template <typename ComputeSlot, typename Visit>
    void startIntegrals(const BoundaryKey &key, Seconds now,
                        ComputeSlot &&compute_slot, Visit &&visit)
    {
        checkReader(key, now);
        const std::lock_guard<std::mutex> lock(mutex_);
        bool extended = false;
        const double *values = tableFor(key, compute_slot, extended);
        ++(extended ? misses_ : hits_);
        visit(values);
    }

    /**
     * The waiting window's minimum-intensity slot for the inclusive
     * slot range [from_slot, last_slot], via
     * `compute() -> SlotIndex`.
     */
    template <typename Compute>
    SlotIndex minSlot(SlotIndex from_slot, SlotIndex last_slot,
                      Compute &&compute)
    {
        return lookup(min_slot_,
                      std::pair<SlotIndex, SlotIndex>(from_slot,
                                                      last_slot),
                      std::forward<Compute>(compute));
    }

    /** Lookups served from the cache. */
    std::uint64_t hits() const;
    /** Lookups that ran the underlying computation. */
    std::uint64_t misses() const;

    /** One-line hit/miss report; safe with zero lookups. */
    void printSummary(std::ostream &out) const;

  private:
    struct KeyHash
    {
        static std::uint64_t mix(std::uint64_t h, std::uint64_t v)
        {
            h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            return h;
        }

        std::size_t operator()(const BoundaryKey &k) const
        {
            std::uint64_t h =
                mix(0, static_cast<std::uint64_t>(k.first));
            h = mix(h, static_cast<std::uint64_t>(k.count));
            h = mix(h, static_cast<std::uint64_t>(k.length));
            return static_cast<std::size_t>(h);
        }

        std::size_t
        operator()(const std::pair<SlotIndex, SlotIndex> &k) const
        {
            return static_cast<std::size_t>(
                mix(mix(0, static_cast<std::uint64_t>(k.first)),
                    static_cast<std::uint64_t>(k.second)));
        }
    };

    template <typename Map, typename Key, typename Compute>
    typename Map::mapped_type lookup(Map &map, const Key &key,
                                     Compute &&compute)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = map.find(key);
        if (it != map.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        return map.emplace(key, compute()).first->second;
    }

    /** Asserts the key starts strictly after `now`'s slot — the
     *  invariant tableFor() relies on. */
    static void checkReader(const BoundaryKey &key, Seconds now)
    {
        GAIA_ASSERT(key.first >= slotStart(slotOf(now)) +
                                     kSecondsPerHour,
                    "plan cache key starting at ", key.first,
                    " reads the arrival slot of a reader at ", now);
    }

    /**
     * Pointer to the key's first candidate inside the per-length
     * slot table, extending the table (one compute_slot call per
     * new slot) to cover the key's range. Candidates are
     * slot-aligned, so slot index = boundary / 3600. Must be called
     * with mutex_ held; the pointer is invalidated by the next
     * extension, so callers read what they need before unlocking.
     * Sets `extended` when the range was not covered yet.
     *
     * Extension fills from the current table end, which on the very
     * first key also covers slots before its first candidate. Those
     * gap entries may fall at or before the filling job's arrival
     * slot — where the CIS answer is not slot-invariant under
     * oracle noise — but no key can ever read them: a key only
     * spans slots strictly after its own job's arrival slot (see
     * checkReader), and arrivals are processed in time order, so
     * later readers sit at later slots than the filler.
     */
    template <typename ComputeSlot>
    const double *tableFor(const BoundaryKey &key,
                           ComputeSlot &&compute_slot,
                           bool &extended)
    {
        std::vector<double> &table = slot_tables_[key.length];
        const auto base =
            static_cast<std::int64_t>(key.first / kSecondsPerHour);
        const std::int64_t end = base + key.count;
        extended = static_cast<std::int64_t>(table.size()) < end;
        if (extended) {
            // Fill timing is clock-heavy relative to the fill loop,
            // so it only runs when a metrics/trace sink asked for it.
            const bool timed = obs::detailedTimingEnabled();
            const auto fill_start =
                timed ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
            while (static_cast<std::int64_t>(table.size()) < end) {
                const Seconds b =
                    static_cast<Seconds>(table.size()) *
                    kSecondsPerHour;
                table.push_back(compute_slot(b));
            }
            if (timed)
                fill_seconds_ +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() -
                        fill_start)
                        .count();
        }
        return table.data() + base;
    }

    mutable std::mutex mutex_;
    std::unordered_map<BoundaryKey, WindowBest, KeyHash>
        window_best_;
    /** length -> integral over [b, b+length) per slot boundary b. */
    std::unordered_map<Seconds, std::vector<double>> slot_tables_;
    std::unordered_map<std::pair<SlotIndex, SlotIndex>, SlotIndex,
                       KeyHash>
        min_slot_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    /** Total miss-fill wall time; accumulated only while
     *  obs::detailedTimingEnabled(). */
    double fill_seconds_ = 0.0;
};

} // namespace gaia

#endif // GAIA_CORE_PLAN_CACHE_H
