/**
 * @file
 * Fault-injecting CarbonInfoSource decorator.
 *
 * Wraps any inner source and distorts what the *scheduler* sees —
 * accounting stays on the ground-truth trace() of the inner source,
 * because a flaky forecast feed does not change what the grid
 * actually emitted. Four carbon-source fault kinds compose:
 *
 *  - Outage: availableAt() is false inside outage windows; the
 *    scheduler's degradation ladder (retry, then carbon-oblivious
 *    fallback) decides what to do. Queries still answer, like a
 *    cached client library would.
 *  - Stale: inside a stale window every query is answered with the
 *    feed frozen at the window start — the current-slot
 *    "measurement" too, which is exactly how a stuck upstream looks
 *    to a consumer.
 *  - Spike: future-slot forecasts are multiplied by spike_factor
 *    while `now` is in a burst (a corrupted forecast generation);
 *    the current slot stays measured.
 *  - Gap: missing trace slots answer with the most recent non-gap
 *    slot's value (last-observation-carried-forward).
 *
 * All distortions are pure functions of (spec seed, slot), so the
 * decorator is deterministic and stateless. Stale and spike answers
 * depend on the query instant, and a gap's carried-forward slot can
 * land at or before the arrival slot, so any of the three opts the
 * decorator out of PlanCache memoization. Outages only gate
 * availableAt() and leave every forecast value untouched, so an
 * outage-only decorator (cluster-side faults never reach it) is as
 * memoizable as its inner source.
 */

#ifndef GAIA_FAULT_FAULTY_SOURCE_H
#define GAIA_FAULT_FAULTY_SOURCE_H

#include "core/cis.h"
#include "fault/injector.h"

namespace gaia {

/** CarbonInfoSource decorator injecting source-side faults. */
class FaultyCarbonSource final : public CarbonInfoSource
{
  public:
    /** Both collaborators must outlive the decorator. */
    FaultyCarbonSource(const CarbonInfoSource &inner,
                       const FaultInjector &faults);

    /** Ground truth passes through untouched (accounting input). */
    const CarbonTrace &trace() const override
    {
        return inner_.trace();
    }

    bool availableAt(Seconds now) const override
    {
        return !faults_.outageAt(now);
    }

    /** The inner source's answer unless a stale, spike or gap
     *  fault distorts forecast values (see the file comment). */
    bool slotInvariantForecasts() const override
    {
        return !(stale_ || spike_ || gap_) &&
               inner_.slotInvariantForecasts();
    }

    double intensityAt(Seconds t) const override;
    double forecastAtSlot(Seconds now,
                          SlotIndex slot) const override;
    double forecastIntegrate(Seconds now, Seconds from,
                             Seconds to) const override;
    SlotIndex forecastMinSlot(Seconds now, Seconds from,
                              Seconds to) const override;
    double forecastPercentile(Seconds now, Seconds from, Seconds to,
                              double p) const override;

  private:
    /** Inner answer for `slot` with gap slots carried forward. */
    double rawAtSlot(Seconds now, SlotIndex slot) const;

    const CarbonInfoSource &inner_;
    const FaultInjector &faults_;
    /** Which value-distorting kinds the spec configures; inactive
     *  kinds skip their per-slot injector queries. */
    bool stale_;
    bool spike_;
    bool gap_;
};

} // namespace gaia

#endif // GAIA_FAULT_FAULTY_SOURCE_H
