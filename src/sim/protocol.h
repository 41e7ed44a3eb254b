/**
 * @file
 * ISchedulerProtocol — the event protocol between a scheduling
 * engine and whoever drives its clock.
 *
 * The engine (OnlineScheduler) makes carbon-aware decisions; a
 * *driver* owns time and feeds it events. Two drivers exist:
 *
 *  - VirtualClockDriver (sim/driver.h): replays a pre-materialised
 *    JobTrace in virtual time — the batch simulator behind
 *    simulateChecked() and every figure sweep.
 *  - WallClockDriver (serve/wall_clock_driver.h): paces virtual
 *    time against the wall clock at an acceleration factor,
 *    releasing jobs as they stream in from the gaia_serve
 *    submission queue.
 *
 * The protocol is deliberately narrow (batsched-style): release a
 * job, advance the clock, note a source-state change, drain,
 * close the books. Everything else — placement, accounting,
 * degradation ladders — stays behind it, so the same engine code
 * serves reproduction sweeps and the live daemon, and the two
 * drivers can be held to byte-identical results (see the driver
 * parity tests: identical resultFingerprint() for the same
 * released stream, regardless of wall-clock pacing).
 *
 * Tie-breaking contract drivers rely on: events at equal virtual
 * timestamps dispatch in (priority, schedule order), job releases
 * use the highest priority, and engine-made re-arrivals (CIS
 * retries) the next one — so releasing a job before advancing the
 * clock *into* its submit second reproduces the batch ordering
 * exactly, however the releases interleave with clock advances. A
 * driver must therefore never advance the clock past `submit - 1`
 * of a job it has yet to release (the wall-clock driver's
 * release-horizon bound).
 *
 * Thread-safety: a protocol instance is single-threaded — exactly
 * one driver thread may call it. Cross-thread submission hand-off
 * happens upstream (the MPSC queue), never here.
 */

#ifndef GAIA_SIM_PROTOCOL_H
#define GAIA_SIM_PROTOCOL_H

#include "common/status.h"
#include "common/time.h"
#include "sim/results.h"
#include "workload/job.h"

namespace gaia {

/**
 * Observer of engine-side lifecycle events, for live monitoring.
 * Attached by the serving layer; the batch path leaves it unset,
 * in which case the engine emits no notification events at all
 * (keeping batch replays bit-identical to the pre-protocol core).
 */
class ProtocolListener
{
  public:
    virtual ~ProtocolListener() = default;

    /**
     * `id` finished its last successful segment at `at` (virtual
     * time). Fired through the event queue, so notifications are
     * delivered in non-decreasing `at` order, after every
     * same-instant scheduling action. The engine's running books
     * (OnlineScheduler::runningBooks()) already include the job.
     */
    virtual void onJobEnd(Seconds at, JobId id) = 0;
};

/** Driver-facing surface of a scheduling engine. */
class ISchedulerProtocol
{
  public:
    virtual ~ISchedulerProtocol() = default;

    /**
     * A job was released (arrived) at `job.submit`. Errors — rather
     * than asserting — on a submit time already in the past or a
     * release after the books closed, since live feeds are
     * untrusted input.
     */
    virtual Status onJobRelease(const Job &job) = 0;

    /** Advance the clock: process every event up to and including
     *  time `t`. */
    virtual void onTick(Seconds t) = 0;

    /**
     * The carbon-information source's availability changed at `t`
     * (outage began or lifted). Purely informational: the engine
     * records it, and re-probes the source lazily at the next
     * planning decision, so calling or omitting this never alters
     * a schedule.
     */
    virtual void onSourceUpdate(Seconds t) = 0;

    /** Process all remaining events (run to completion). */
    virtual void onDrain() = 0;

    /**
     * Close the books and return the result. The engine must be
     * drained; may be called once.
     */
    virtual SimulationResult onSimulationEnd() = 0;

    /** Current virtual time. */
    virtual Seconds now() const = 0;

    /** Jobs released so far. */
    virtual std::size_t releasedJobs() const = 0;

    /**
     * Attach (or detach, with nullptr) the lifecycle observer.
     * Must be set before the first release; the engine only
     * schedules notification events for jobs released while a
     * listener is attached.
     */
    void setListener(ProtocolListener *listener)
    {
        listener_ = listener;
    }

    ProtocolListener *listener() const { return listener_; }

  protected:
    ProtocolListener *listener_ = nullptr;
};

} // namespace gaia

#endif // GAIA_SIM_PROTOCOL_H
