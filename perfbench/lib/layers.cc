#include "lib/layers.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/obs.h"
#include "sim/driver.h"
#include "sim/results.h"

namespace perfbench {

using gaia::Result;
using gaia::Seconds;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
LayerTimes::add(const LayerTimes &other)
{
    plan_calls += other.plan_calls;
    plan_s += other.plan_s;
    cis_calls += other.cis_calls;
    cis_s += other.cis_s;
    cis_in_plan_s += other.cis_in_plan_s;
    replay_s += other.replay_s;
    finalize_s += other.finalize_s;
}

namespace {

/** Counts one carbon-source query and adds its duration. */
class CisScope
{
  public:
    explicit CisScope(LayerTimes &times)
        : times_(times), begin_(nowSeconds())
    {
        ++times_.cis_calls;
    }
    ~CisScope()
    {
        const double d = nowSeconds() - begin_;
        times_.cis_s += d;
        if (times_.in_plan)
            times_.cis_in_plan_s += d;
    }
    CisScope(const CisScope &) = delete;
    CisScope &operator=(const CisScope &) = delete;

  private:
    LayerTimes &times_;
    double begin_;
};

} // namespace

gaia::SchedulePlan
TimedPolicy::plan(const gaia::Job &job,
                  const gaia::PlanContext &ctx) const
{
    ++times_.plan_calls;
    times_.in_plan = true;
    const double begin = nowSeconds();
    gaia::SchedulePlan out = inner_.plan(job, ctx);
    times_.plan_s += nowSeconds() - begin;
    times_.in_plan = false;
    return out;
}

bool
TimedCis::availableAt(Seconds now) const
{
    const CisScope scope(times_);
    return inner_.availableAt(now);
}

double
TimedCis::intensityAt(Seconds t) const
{
    const CisScope scope(times_);
    return inner_.intensityAt(t);
}

double
TimedCis::forecastAtSlot(Seconds now, gaia::SlotIndex slot) const
{
    const CisScope scope(times_);
    return inner_.forecastAtSlot(now, slot);
}

double
TimedCis::forecastIntegrate(Seconds now, Seconds from, Seconds to) const
{
    const CisScope scope(times_);
    return inner_.forecastIntegrate(now, from, to);
}

gaia::SlotIndex
TimedCis::forecastMinSlot(Seconds now, Seconds from, Seconds to) const
{
    const CisScope scope(times_);
    return inner_.forecastMinSlot(now, from, to);
}

double
TimedCis::forecastPercentile(Seconds now, Seconds from, Seconds to,
                             double p) const
{
    const CisScope scope(times_);
    return inner_.forecastPercentile(now, from, to, p);
}

Result<gaia::OnlineScheduler>
makeEngine(const gaia::SimulationSetup &setup)
{
    gaia::ClusterConfig cluster = setup.cluster;
    if (cluster.reservation_horizon == 0) {
        cluster.reservation_horizon =
            gaia::defaultReservationHorizon(*setup.trace,
                                            *setup.queues);
    }
    GAIA_TRY_ASSIGN(gaia::OnlineScheduler engine,
                    gaia::OnlineScheduler::create(
                        *setup.policy, *setup.queues, *setup.cis,
                        cluster, setup.strategy, setup.trace->name(),
                        setup.faults));
    engine.reserveJobs(setup.trace->jobCount());
    if (setup.elastic != nullptr)
        engine.setDefaultElasticProfile(*setup.elastic);
    return engine;
}

Result<gaia::SimulationResult>
runTimedCell(const gaia::ScenarioSpec &spec, gaia::AssetCache &cache,
             LayerTimes &times)
{
    GAIA_TRY_ASSIGN(const gaia::RealizedScenario realized,
                    gaia::realizeScenario(spec, cache));
    GAIA_TRY_ASSIGN(gaia::SimulationSetup setup, realized.setup());
    LayerTimes cell;
    const TimedPolicy policy(*setup.policy, cell);
    const TimedCis cis(*setup.cis, cell);
    setup.policy = &policy;
    setup.cis = &cis;

    GAIA_TRY_ASSIGN(gaia::OnlineScheduler engine, makeEngine(setup));
    gaia::VirtualClockDriver driver(engine);
    const double begin = nowSeconds();
    GAIA_TRY(driver.replay(*setup.trace));
    const double replayed = nowSeconds();
    gaia::SimulationResult result = driver.finish();
    cell.replay_s = replayed - begin;
    cell.finalize_s = nowSeconds() - replayed;
    times.add(cell);
    return result;
}

Result<SetupTimes>
timeSetup(const std::vector<gaia::ScenarioSpec> &specs,
          gaia::AssetCache &cache)
{
    SetupTimes t;
    const double begin = nowSeconds();
    for (const gaia::ScenarioSpec &spec : specs) {
        double mark = nowSeconds();
        const auto lap = [&mark] {
            const double now = nowSeconds();
            const double d = now - mark;
            mark = now;
            return d;
        };
        GAIA_TRY_ASSIGN(const auto trace, cache.trace(spec.workload));
        t.workload_s += lap();
        const std::size_t slots =
            spec.carbon.slots > 0
                ? spec.carbon.slots
                : gaia::carbonSlotsFor(*trace, spec.long_wait);
        GAIA_TRY(cache.carbon(spec.carbon, slots).status());
        t.carbon_s += lap();
        GAIA_TRY(cache.queues(spec.workload, spec.short_wait,
                              spec.long_wait)
                     .status());
        t.calibrate_s += lap();
        GAIA_TRY(gaia::realizeScenario(spec, cache).status());
        t.realize_scenario_s += lap();
    }
    t.total_s = nowSeconds() - begin;
    return t;
}

Result<StreamRun>
streamThroughEngine(const gaia::ScenarioSpec &spec,
                    gaia::AssetCache &cache, std::size_t stats_every)
{
    GAIA_TRY_ASSIGN(const gaia::RealizedScenario realized,
                    gaia::realizeScenario(spec, cache));
    GAIA_TRY_ASSIGN(const gaia::SimulationSetup setup,
                    realized.setup());
    GAIA_TRY_ASSIGN(gaia::OnlineScheduler engine, makeEngine(setup));

    StreamRun out;
    const std::vector<gaia::Job> &jobs = setup.trace->jobs();
    out.submit_s.reserve(jobs.size() / stats_every + 1);
    out.stats_s.reserve(jobs.size() / stats_every + 1);
    const double first = nowSeconds();
    for (std::size_t begin = 0; begin < jobs.size();
         begin += stats_every) {
        const std::size_t end = std::min(begin + stats_every, jobs.size());
        const double window_begin = nowSeconds();
        for (std::size_t i = begin; i < end; ++i) {
            ++out.attempted;
            if (!engine.onJobRelease(jobs[i]).isOk())
                ++out.failed;
        }
        out.submit_s.push_back((nowSeconds() - window_begin) /
                               static_cast<double>(end - begin));
        const double stats_begin = nowSeconds();
        std::ostringstream json;
        gaia::obs::writeMetricsJson(json, gaia::obs::metricsSnapshot());
        out.stats_s.push_back(nowSeconds() - stats_begin);
        ++out.attempted;
    }
    const double drain_begin = nowSeconds();
    engine.onDrain();
    const gaia::SimulationResult result = engine.onSimulationEnd();
    const double end = nowSeconds();
    ++out.attempted;
    out.drain_s = end - drain_begin;
    out.jobs_per_s = static_cast<double>(jobs.size()) / (end - first);
    out.fingerprint = gaia::resultFingerprint(result);
    return out;
}

} // namespace perfbench
