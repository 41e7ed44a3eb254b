#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "common/obs.h"
#include "lib/cells.h"
#include "lib/layers.h"
#include "lib/serve_stream.h"
#include "sim/results.h"

namespace perfbench {
namespace {

/** A week-long cell: small enough for a unit test. */
gaia::ScenarioSpec
weekCell(const std::vector<std::string> &extra)
{
    std::vector<std::string> flags = {"--workload", "alibaba", "--jobs",
                                      "1000", "--span-days", "7",
                                      "--seed", "3"};
    flags.insert(flags.end(), extra.begin(), extra.end());
    gaia::Result<gaia::ScenarioSpec> spec = scenarioFromFlags(flags);
    EXPECT_TRUE(spec.isOk()) << spec.status().toString();
    return *spec;
}

std::uint64_t
plainFingerprint(const gaia::ScenarioSpec &spec)
{
    gaia::Result<gaia::SimulationResult> plain = gaia::runScenario(spec);
    EXPECT_TRUE(plain.isOk()) << plain.status().toString();
    return gaia::resultFingerprint(*plain);
}

std::uint64_t
planCacheHits()
{
    return gaia::obs::metricsSnapshot().counterValue("plan_cache.hits");
}

/** The decorators forward every call: same fingerprint, same plan
 *  memoisation, and they saw the calls they time. */
void
expectTransparent(const gaia::ScenarioSpec &spec)
{
    gaia::obs::resetMetrics();
    const std::uint64_t plain = plainFingerprint(spec);
    const std::uint64_t plain_hits = planCacheHits();

    gaia::obs::resetMetrics();
    gaia::AssetCache cache;
    LayerTimes times;
    gaia::Result<gaia::SimulationResult> timed =
        runTimedCell(spec, cache, times);
    ASSERT_TRUE(timed.isOk()) << timed.status().toString();
    EXPECT_EQ(gaia::resultFingerprint(*timed), plain);
    EXPECT_EQ(planCacheHits(), plain_hits);

    EXPECT_GT(times.plan_calls, 0u);
    EXPECT_GT(times.cis_calls, 0u);
    EXPECT_GT(times.replay_s, 0.0);
    EXPECT_GT(times.finalize_s, 0.0);
    EXPECT_LE(times.cis_in_plan_s, times.cis_s);
}

TEST(Layers, DecoratedRunMatchesPlainRun)
{
    expectTransparent(weekCell({"--policy", "Carbon-Time"}));
}

TEST(Layers, DecoratedRunKeepsPlanMemoisation)
{
    gaia::obs::resetMetrics();
    plainFingerprint(weekCell({"--policy", "Lowest-Window"}));
    // The test is only meaningful if the plain run memoised at all.
    ASSERT_GT(planCacheHits(), 0u);
    expectTransparent(weekCell({"--policy", "Lowest-Window"}));
}

TEST(Layers, DecoratedRunMatchesPlainRunUnderFaults)
{
    expectTransparent(weekCell(
        {"--policy", "Carbon-Time", "--strategy", "spot-res",
         "--reserved", "20", "--eviction-rate", "0.1", "--fault",
         "storm:rate=0.05;outage:rate=0.05,hours=6;"
         "straggler:rate=0.05,factor=1.5"}));
}

TEST(Layers, EngineStreamMatchesPlainRun)
{
    const gaia::ScenarioSpec spec = weekCell({"--policy", "Carbon-Time"});
    gaia::AssetCache cache;
    gaia::Result<StreamRun> stream = streamThroughEngine(spec, cache, 100);
    ASSERT_TRUE(stream.isOk()) << stream.status().toString();
    EXPECT_EQ(stream->fingerprint, plainFingerprint(spec));
    EXPECT_EQ(stream->failed, 0u);
    EXPECT_EQ(stream->submit_s.size(), 10u);
    EXPECT_EQ(stream->stats_s.size(), 10u);
    EXPECT_EQ(stream->attempted, 1000u + 10u + 1u);
}

TEST(Layers, SetupTimesCoverEveryLayer)
{
    gaia::AssetCache cache;
    gaia::Result<SetupTimes> t =
        timeSetup({weekCell({"--policy", "NoWait"})}, cache);
    ASSERT_TRUE(t.isOk()) << t.status().toString();
    EXPECT_GT(t->workload_s, 0.0);
    EXPECT_GT(t->carbon_s, 0.0);
    EXPECT_GT(t->calibrate_s, 0.0);
    EXPECT_GT(t->realize_scenario_s, 0.0);
    EXPECT_GE(t->total_s, t->workload_s + t->carbon_s + t->calibrate_s +
                              t->realize_scenario_s);
}

TEST(Serve, InProcessStreamsMatchBatchRun)
{
    const gaia::ScenarioSpec spec = weekCell({"--policy", "Carbon-Time"});
    const std::uint64_t batch = plainFingerprint(spec);
    gaia::Result<StreamRun> lines = handleLinesInProcess(spec, 100);
    ASSERT_TRUE(lines.isOk()) << lines.status().toString();
    EXPECT_EQ(lines->fingerprint, batch);
    EXPECT_EQ(lines->failed, 0u);
    EXPECT_EQ(lines->stats_s.size(), 10u);
    gaia::Result<StreamRun> submits = submitInProcess(spec);
    ASSERT_TRUE(submits.isOk()) << submits.status().toString();
    EXPECT_EQ(submits->fingerprint, batch);
    EXPECT_EQ(submits->failed, 0u);
}

TEST(Serve, ParseDrainedReply)
{
    EXPECT_EQ(parseDrained("drained c1eae8409c099e01"),
              0xc1eae8409c099e01ULL);
    EXPECT_EQ(parseDrained("err daemon already drained"), 0u);
    EXPECT_EQ(parseDrained("drained c1ea"), 0u);
    gaia::Job job;
    job.id = 7;
    job.submit = 3600;
    job.length = 120;
    job.cpus = 2;
    EXPECT_EQ(submitLine(job), "submit 7 3600 120 2");
}

TEST(Cells, WorkloadsAreTheDocumentedSweeps)
{
    EXPECT_EQ(workloadNames(),
              (std::vector<std::string>{"fig14-sweep", "spot-faults"}));
    gaia::Result<Workload> fig14 = makeWorkload("fig14-sweep", 1);
    ASSERT_TRUE(fig14.isOk());
    EXPECT_EQ(fig14->cells.size(), 27u);
    const std::vector<std::string> &twin = fig14->cells[fig14->twin];
    EXPECT_NE(std::find(twin.begin(), twin.end(), "Carbon-Time"),
              twin.end());
    EXPECT_NE(std::find(twin.begin(), twin.end(), "6x24"), twin.end());

    gaia::Result<Workload> spot = makeWorkload("spot-faults", 1);
    ASSERT_TRUE(spot.isOk());
    EXPECT_EQ(spot->cells.size(), 4u);
    EXPECT_TRUE(workloadScenarios(*spot).isOk());

    EXPECT_EQ(spot->serve, fig14->serve);
    EXPECT_TRUE(scenarioFromFlags(fig14->serve).isOk());

    EXPECT_FALSE(makeWorkload("fig15", 1).isOk());
}

} // namespace
} // namespace perfbench
