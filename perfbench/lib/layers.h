/**
 * @file
 * Per-layer timing taken from outside the program.
 *
 * The benchmark never instruments GAIA itself: it wraps the policy
 * and the carbon source a scheduler is handed in forwarding
 * decorators that count and time each call, and it drives the
 * engine through the same public calls simulateChecked() makes, so
 * it can time replay and finalisation separately. The decorators
 * forward every query unchanged (slotInvariantForecasts() too, so
 * plan memoisation stays on), which is why a decorated run must
 * reproduce the plain run's resultFingerprint() exactly.
 */

#ifndef PERFBENCH_LIB_LAYERS_H
#define PERFBENCH_LIB_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "core/cis.h"
#include "core/policy.h"
#include "sim/online.h"
#include "sim/simulator.h"

namespace perfbench {

/** Seconds on the steady clock since an arbitrary origin. */
double nowSeconds();

/** Calls and time the decorators saw in one or more cell runs. */
struct LayerTimes
{
    std::uint64_t plan_calls = 0;
    double plan_s = 0.0;
    std::uint64_t cis_calls = 0;
    /** All carbon-source time, inside plan() or not. */
    double cis_s = 0.0;
    /** The part of cis_s spent inside plan() (already in plan_s). */
    double cis_in_plan_s = 0.0;
    /** VirtualClockDriver::replay (release every job, then drain). */
    double replay_s = 0.0;
    /** VirtualClockDriver::finish (closing the books). */
    double finalize_s = 0.0;
    /** Set while a plan() call is on the stack. */
    bool in_plan = false;

    /** Replay time outside plan() and the carbon source. */
    double loopSelfSeconds() const
    {
        return replay_s - plan_s - (cis_s - cis_in_plan_s);
    }

    void add(const LayerTimes &other);
};

/** Forwards to `inner`, timing plan() into `times`. */
class TimedPolicy final : public gaia::SchedulingPolicy
{
  public:
    TimedPolicy(const gaia::SchedulingPolicy &inner, LayerTimes &times)
        : inner_(inner), times_(times)
    {
    }

    std::string name() const override { return inner_.name(); }
    gaia::LengthKnowledge lengthKnowledge() const override
    {
        return inner_.lengthKnowledge();
    }
    bool carbonAware() const override { return inner_.carbonAware(); }
    bool performanceAware() const override
    {
        return inner_.performanceAware();
    }
    bool suspendResume() const override
    {
        return inner_.suspendResume();
    }
    bool elastic() const override { return inner_.elastic(); }

    gaia::SchedulePlan plan(const gaia::Job &job,
                            const gaia::PlanContext &ctx) const override;

  private:
    const gaia::SchedulingPolicy &inner_;
    LayerTimes &times_;
};

/** Forwards to `inner`, timing every query into `times`. */
class TimedCis final : public gaia::CarbonInfoSource
{
  public:
    TimedCis(const gaia::CarbonInfoSource &inner, LayerTimes &times)
        : inner_(inner), times_(times)
    {
    }

    const gaia::CarbonTrace &trace() const override
    {
        return inner_.trace();
    }
    bool slotInvariantForecasts() const override
    {
        return inner_.slotInvariantForecasts();
    }
    bool availableAt(gaia::Seconds now) const override;
    double intensityAt(gaia::Seconds t) const override;
    double forecastAtSlot(gaia::Seconds now,
                          gaia::SlotIndex slot) const override;
    double forecastIntegrate(gaia::Seconds now, gaia::Seconds from,
                             gaia::Seconds to) const override;
    gaia::SlotIndex forecastMinSlot(gaia::Seconds now,
                                    gaia::Seconds from,
                                    gaia::Seconds to) const override;
    double forecastPercentile(gaia::Seconds now, gaia::Seconds from,
                              gaia::Seconds to,
                              double p) const override;

  private:
    const gaia::CarbonInfoSource &inner_;
    LayerTimes &times_;
};

/**
 * The engine simulateChecked() would build for `setup`: the same
 * derived reservation horizon, job-pool reservation and elastic
 * default. `setup` and what it references must outlive the engine.
 */
gaia::Result<gaia::OnlineScheduler>
makeEngine(const gaia::SimulationSetup &setup);

/**
 * Run one cell on this thread with the policy and carbon source
 * wrapped in the timing decorators, adding the cell's calls and
 * times to `times`.
 */
gaia::Result<gaia::SimulationResult>
runTimedCell(const gaia::ScenarioSpec &spec, gaia::AssetCache &cache,
             LayerTimes &times);

/** Wall time of each asset layer while realizing a set of cells. */
struct SetupTimes
{
    /** AssetCache::trace (workload synthesis). */
    double workload_s = 0.0;
    /** AssetCache::carbon (carbon-trace synthesis). */
    double carbon_s = 0.0;
    /** AssetCache::queues (queue calibration). */
    double calibrate_s = 0.0;
    /** realizeScenario with the assets above already cached. */
    double realize_scenario_s = 0.0;
    /** The whole pass. */
    double total_s = 0.0;
};

/** Realize every cell of `specs` into `cache`, timing each layer. */
gaia::Result<SetupTimes>
timeSetup(const std::vector<gaia::ScenarioSpec> &specs,
          gaia::AssetCache &cache);

/**
 * One job-by-job pass of a trace through a layer: the batch engine,
 * an in-process daemon, or a daemon behind its socket. Each command
 * waits for its answer before the next is sent (a closed loop).
 */
struct StreamRun
{
    /**
     * Latency of each submit until its "ok", seconds. A submit the
     * daemon's full queue refuses is retried, as a client honouring
     * backpressure would, and its latency includes the retries.
     */
    std::vector<double> submit_s;
    /** Latency of each stats command (one per `stats_every`
     *  submits), seconds. */
    std::vector<double> stats_s;
    /** The drain until the result is back, seconds. */
    double drain_s = 0.0;
    /** Jobs over (first submit sent .. drained). */
    double jobs_per_s = 0.0;
    /** Commands sent (submits, stats, drain). */
    std::uint64_t attempted = 0;
    /** Commands finally answered with an error. */
    std::uint64_t failed = 0;
    /** The drained fingerprint, 0 if the drain failed. */
    std::uint64_t fingerprint = 0;
    /** In-process runs only: the daemon's counters before drain
     *  (rejected_full counts the refusals that were retried). */
    std::uint64_t backlog_at_drain = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_late = 0;
};

/**
 * Release `spec`'s jobs into its engine one call at a time — the
 * per-job work the daemon's consumer does for each submit — writing
 * the metrics snapshot as JSON (what --metrics-out writes, the batch
 * counterpart of the daemon's stats reply) after every `stats_every`
 * jobs, then drain.
 * A single release is too short to time on its own, so each entry
 * of submit_s is the mean release time over one window of
 * `stats_every` jobs.
 */
gaia::Result<StreamRun>
streamThroughEngine(const gaia::ScenarioSpec &spec,
                    gaia::AssetCache &cache, std::size_t stats_every);

} // namespace perfbench

#endif // PERFBENCH_LIB_LAYERS_H
