/**
 * @file
 * ServeDaemon behaviour: streamed parity with the batch simulator,
 * backpressure accounting, late-arrival rejection, and drain
 * semantics. Every test streams real jobs through the real consumer
 * thread — no mocks between the queue and the engine.
 */

#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "analysis/scenario.h"
#include "serve/submission_queue.h"
#include "sim/results.h"

namespace gaia::serve {
namespace {

/** A small but RNG-rich scenario: spot + reserved on a 150-job
 *  Azure trace, so streamed/batch divergence has teeth. */
ScenarioSpec
smallSpec()
{
    TraceBuildOptions options;
    options.job_count = 150;
    options.span = 3 * kSecondsPerDay;
    options.seed = 1;

    ScenarioSpec spec;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    spec.policy = "Carbon-Time";
    spec.strategy = ResourceStrategy::SpotReserved;
    spec.cluster.reserved_cores = 4;
    spec.cluster.spot_eviction_rate = 0.10;
    spec.cluster.spot_max_length = hours(2);
    return spec;
}

/** Submit with backpressure retries until accepted. */
void
submitBlocking(ServeDaemon &daemon, const Job &job)
{
    for (;;) {
        const Status status = daemon.submit(job);
        if (status.isOk())
            return;
        ASSERT_EQ(status.code(), ErrorCode::ResourceExhausted)
            << status.toString();
        std::this_thread::yield();
    }
}

/** Poll stats() until `done` is satisfied (bounded busy-wait). */
template <typename Pred>
ServeStats
waitForStats(ServeDaemon &daemon, Pred done)
{
    for (int i = 0; i < 100000; ++i) {
        const ServeStats s = daemon.stats();
        if (done(s))
            return s;
        std::this_thread::sleep_for(
            std::chrono::microseconds(100));
    }
    ADD_FAILURE() << "stats condition not reached";
    return daemon.stats();
}

TEST(ServeDaemon, StreamedCalibrationTraceMatchesTheBatchRun)
{
    const ScenarioSpec spec = smallSpec();
    const Result<SimulationResult> batch = runScenario(spec);
    ASSERT_TRUE(batch.isOk()) << batch.status().toString();

    ServeConfig config;
    config.scenario = spec;
    config.accel = 0.0; // unpaced: as fast as the stream allows
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();

    for (const Job &job : (*daemon)->calibrationTrace().jobs())
        submitBlocking(**daemon, job);
    Result<SimulationResult> streamed = (*daemon)->drain();
    ASSERT_TRUE(streamed.isOk()) << streamed.status().toString();

    EXPECT_EQ(resultFingerprint(*batch),
              resultFingerprint(*streamed));
    EXPECT_EQ(streamed->outcomes.size(),
              (*daemon)->calibrationTrace().jobCount());

    const ServeStats stats = (*daemon)->stats();
    EXPECT_EQ(stats.accepted,
              (*daemon)->calibrationTrace().jobCount());
    EXPECT_EQ(stats.released, stats.accepted);
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(stats.rejected_late, 0u);
}

TEST(ServeDaemon, RunningBooksGrowDuringTheStreamAndMatchTheDrain)
{
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;
    const std::vector<Job> &jobs = d.calibrationTrace().jobs();
    const std::size_t half = jobs.size() / 2;

    for (std::size_t i = 0; i < half; ++i)
        submitBlocking(d, jobs[i]);
    const ServeStats mid = waitForStats(
        d, [](const ServeStats &s) { return s.completed > 0; });
    EXPECT_GT(mid.carbon_kg, 0.0);
    EXPECT_GT(mid.energy_kwh, 0.0);

    for (std::size_t i = half; i < jobs.size(); ++i)
        submitBlocking(d, jobs[i]);
    Result<SimulationResult> drained = d.drain();
    ASSERT_TRUE(drained.isOk()) << drained.status().toString();
    const ServeStats end = d.stats();
    EXPECT_EQ(end.completed, jobs.size());
    EXPECT_GT(end.carbon_kg, mid.carbon_kg);
    EXPECT_GT(end.energy_kwh, mid.energy_kwh);
    EXPECT_GE(end.variable_cost, mid.variable_cost);

    // Summed in completion order rather than job-index order, so
    // equal to rounding; the scenario bills no idle reserved draw.
    ASSERT_EQ(drained->idle_carbon_kg, 0.0);
    const double variable =
        drained->on_demand_cost + drained->spot_cost;
    EXPECT_GT(variable, 0.0);
    EXPECT_NEAR(end.carbon_kg, drained->carbon_kg,
                1e-9 * drained->carbon_kg);
    EXPECT_NEAR(end.energy_kwh, drained->energy_kwh,
                1e-9 * drained->energy_kwh);
    EXPECT_NEAR(end.variable_cost, variable, 1e-9 * variable);
}

TEST(ServeDaemon, LateArrivalsAreCountedAndSkippedNotFatal)
{
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    // Release a job at t=2h; unpaced, the clock advances to the
    // release horizon (2h - 1s), putting t=0 firmly in the past.
    submitBlocking(d, {1, hours(2), 600, 1});
    waitForStats(d, [](const ServeStats &s) {
        return s.released == 1 && s.sim_now >= hours(2) - 1;
    });

    // An out-of-order arrival is accepted by admission control but
    // rejected by the engine — counted, never a crash.
    submitBlocking(d, {2, 0, 600, 1});
    waitForStats(d, [](const ServeStats &s) {
        return s.rejected_late == 1;
    });

    // The stream keeps flowing afterwards.
    submitBlocking(d, {3, hours(3), 600, 1});
    Result<SimulationResult> result = d.drain();
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result->outcomes.size(), 2u);
    EXPECT_EQ(d.stats().rejected_late, 1u);
}

TEST(ServeDaemon, DrainIsOneShotAndClosesAdmission)
{
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    submitBlocking(d, {1, 100, 600, 1});
    ASSERT_TRUE(d.drain().isOk());

    const Status again = d.drain().status();
    EXPECT_EQ(again.code(), ErrorCode::FailedPrecondition);
    const Status post = d.submit({2, hours(1), 600, 1});
    EXPECT_EQ(post.code(), ErrorCode::FailedPrecondition);
}

TEST(ServeDaemon, DrainOnShutdownReleasesEverythingStillQueued)
{
    // Pace the clock to a crawl so submissions pile up in the queue
    // and drain() has real stragglers to hand over.
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 1.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    for (const Job &job : d.calibrationTrace().jobs())
        submitBlocking(d, job);
    Result<SimulationResult> result = d.drain();
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result->outcomes.size(),
              d.calibrationTrace().jobCount());
    EXPECT_EQ(d.stats().released, d.stats().accepted);
}

TEST(SubmissionQueue, BackpressureSurfacesAsResourceExhausted)
{
    SubmissionQueue queue(2);
    EXPECT_EQ(queue.capacity(), 2u);
    EXPECT_TRUE(queue.offer({1, 0, 600, 1}).isOk());
    EXPECT_TRUE(queue.offer({2, 0, 600, 1}).isOk());

    const Status full = queue.offer({3, 0, 600, 1});
    EXPECT_EQ(full.code(), ErrorCode::ResourceExhausted);

    Job out;
    ASSERT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out.id, 1);
    EXPECT_TRUE(queue.offer({3, 0, 600, 1}).isOk());
}

} // namespace
} // namespace gaia::serve
