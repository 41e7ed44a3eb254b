#include "fault/faulty_source.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"

namespace gaia {

FaultyCarbonSource::FaultyCarbonSource(const CarbonInfoSource &inner,
                                       const FaultInjector &faults)
    : inner_(inner), faults_(faults),
      stale_(faults.spec().stale_rate > 0.0),
      spike_(faults.spec().spike_rate > 0.0),
      gap_(faults.spec().gap_rate > 0.0)
{
}

double
FaultyCarbonSource::rawAtSlot(Seconds now, SlotIndex slot) const
{
    if (!gap_)
        return inner_.forecastAtSlot(now, slot);
    SlotIndex s = slot;
    // Last observation carried forward across gap slots; a gap at
    // the very start of the trace falls through to the inner value
    // (there is nothing earlier to carry).
    while (s > 0 && faults_.gapSlot(s))
        --s;
    return inner_.forecastAtSlot(now, s);
}

double
FaultyCarbonSource::forecastAtSlot(Seconds now, SlotIndex slot) const
{
    if (stale_ && faults_.staleAt(now)) {
        // Feed frozen at the stale window's start: every slot at or
        // after the freeze answers with the freeze slot's value, as
        // a persistence forecast from the freeze instant would.
        const Seconds freeze = faults_.staleFreezeAt(now);
        const SlotIndex freeze_slot = slotOf(freeze);
        if (slot >= freeze_slot)
            return rawAtSlot(freeze, freeze_slot);
        return rawAtSlot(freeze, slot);
    }
    double value = rawAtSlot(now, slot);
    if (spike_ && slot > slotOf(std::max<Seconds>(now, 0)) &&
        faults_.spikeAt(now)) {
        // Corrupted forecast generation: future slots only; the
        // current slot is a measurement.
        value *= faults_.spec().spike_factor;
    }
    return value;
}

double
FaultyCarbonSource::intensityAt(Seconds t) const
{
    if (stale_ && faults_.staleAt(t)) {
        const Seconds freeze = faults_.staleFreezeAt(t);
        return rawAtSlot(freeze, slotOf(freeze));
    }
    return rawAtSlot(t, slotOf(std::max<Seconds>(t, 0)));
}

double
FaultyCarbonSource::forecastIntegrate(Seconds now, Seconds from,
                                      Seconds to) const
{
    GAIA_ASSERT(from <= to, "forecastIntegrate: from > to");
    double total = 0.0;
    Seconds cursor = from;
    while (cursor < to) {
        const SlotIndex slot = slotOf(std::max<Seconds>(cursor, 0));
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        const Seconds seg_end = std::min(slot_end, to);
        total += forecastAtSlot(now, slot) *
                 static_cast<double>(seg_end - cursor);
        cursor = seg_end;
    }
    return total;
}

SlotIndex
FaultyCarbonSource::forecastMinSlot(Seconds now, Seconds from,
                                    Seconds to) const
{
    GAIA_ASSERT(from < to, "forecastMinSlot: empty window");
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    SlotIndex best = first;
    double best_value = forecastAtSlot(now, first);
    for (SlotIndex s = first + 1; s <= last; ++s) {
        const double v = forecastAtSlot(now, s);
        if (v < best_value) {
            best_value = v;
            best = s;
        }
    }
    return best;
}

double
FaultyCarbonSource::forecastPercentile(Seconds now, Seconds from,
                                       Seconds to, double p) const
{
    GAIA_ASSERT(from < to, "forecastPercentile: empty window");
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    std::vector<double> window;
    window.reserve(static_cast<std::size_t>(last - first + 1));
    for (SlotIndex s = first; s <= last; ++s)
        window.push_back(forecastAtSlot(now, s));
    return percentile(std::move(window), p);
}

} // namespace gaia
