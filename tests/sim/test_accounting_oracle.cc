/**
 * @file
 * Differential oracle for settle-at-completion accounting.
 *
 * The engine closes each job's books when its final placement is
 * recorded and finalize() only sums the cluster aggregates. The
 * post-drain pass it replaced survives as refCloseBooks() in
 * tests/common/reference_oracles.h; every scenario here strips the
 * settled fields from a real result, shuffles each job's placements,
 * re-closes the books with the reference, and requires the same
 * resultFingerprint() — bit for bit, per job and per aggregate.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/scenario.h"
#include "core/policy_factory.h"
#include "sim/online.h"
#include "sim/simulator.h"
#include "tests/common/reference_oracles.h"

namespace gaia {
namespace {

/** What the engine knew of each job before settling it. */
SimulationResult
unsettled(const SimulationResult &settled)
{
    SimulationResult raw;
    raw.policy = settled.policy;
    raw.strategy = settled.strategy;
    raw.region = settled.region;
    raw.workload = settled.workload;
    for (const JobOutcome &o : settled.outcomes) {
        JobOutcome r;
        r.id = o.id;
        r.submit = o.submit;
        r.length = o.length;
        r.cpus = o.cpus;
        r.segments = o.segments;
        std::reverse(r.segments.begin(), r.segments.end());
        r.carbon_nowait_g = o.carbon_nowait_g;
        r.evictions = o.evictions;
        raw.outcomes.push_back(std::move(r));
    }
    return raw;
}

/** A 200-job, 3-day Azure stream on the South Australia model. */
ScenarioSpec
baseSpec(const std::string &policy, ResourceStrategy strategy)
{
    TraceBuildOptions options;
    options.job_count = 200;
    options.span = 3 * kSecondsPerDay;
    options.seed = 7;
    ScenarioSpec spec;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    spec.policy = policy;
    spec.strategy = strategy;
    return spec;
}

/** Run `spec` through the batch simulator and check it against the
 *  reference books; returns the engine's result for extra checks. */
SimulationResult
expectMatchesReference(const ScenarioSpec &spec)
{
    AssetCache cache;
    Result<RealizedScenario> realized = realizeScenario(spec, cache);
    EXPECT_TRUE(realized.isOk()) << realized.status().message();
    Result<SimulationSetup> setup = realized->setup();
    EXPECT_TRUE(setup.isOk()) << setup.status().message();
    Result<SimulationResult> result = simulateChecked(*setup);
    EXPECT_TRUE(result.isOk()) << result.status().message();

    const SimulationResult reference =
        refCloseBooks(unsettled(*result), realized->cluster,
                      result->horizon, *realized->carbon);
    EXPECT_EQ(resultFingerprint(*result), resultFingerprint(reference))
        << spec.policy << " / " << strategyName(spec.strategy);
    return std::move(result).value();
}

TEST(AccountingOracle, OnDemand)
{
    const SimulationResult r = expectMatchesReference(
        baseSpec("Carbon-Time", ResourceStrategy::OnDemandOnly));
    EXPECT_GT(r.on_demand_core_seconds, 0.0);
}

TEST(AccountingOracle, SuspendResumeOnDemand)
{
    const SimulationResult r = expectMatchesReference(
        baseSpec("Wait-Awhile", ResourceStrategy::OnDemandOnly));
    const bool split = std::any_of(
        r.outcomes.begin(), r.outcomes.end(),
        [](const JobOutcome &o) { return o.segments.size() > 1; });
    EXPECT_TRUE(split) << "no suspend-resume schedule exercised";
}

TEST(AccountingOracle, WorkConservingReserved)
{
    ScenarioSpec spec =
        baseSpec("Lowest-Window", ResourceStrategy::ReservedFirst);
    spec.cluster.reserved_cores = 6;
    const SimulationResult r = expectMatchesReference(spec);
    EXPECT_GT(r.reserved_core_seconds, 0.0);
    EXPECT_GT(r.on_demand_core_seconds, 0.0);
}

TEST(AccountingOracle, SpotWithEvictionsAndStorms)
{
    ScenarioSpec spec =
        baseSpec("Carbon-Time", ResourceStrategy::SpotReserved);
    spec.cluster.reserved_cores = 4;
    spec.cluster.spot_eviction_rate = 0.1;
    spec.cluster.spot_max_length = hours(6);
    Result<FaultSpec> fault = FaultSpec::parse(
        "storm:rate=0.05;outage:rate=0.05,hours=6;"
        "straggler:rate=0.05,factor=1.5");
    ASSERT_TRUE(fault.isOk()) << fault.status().message();
    spec.fault = *fault;
    const SimulationResult r = expectMatchesReference(spec);
    EXPECT_GT(r.eviction_count, 0u);
    EXPECT_GT(r.lost_core_seconds, 0.0);
    EXPECT_GT(r.spot_core_seconds, 0.0);
}

TEST(AccountingOracle, ElasticLinearMax4)
{
    ScenarioSpec spec =
        baseSpec("Carbon-Scaler", ResourceStrategy::OnDemandOnly);
    spec.elastic_profile = "linear:max=4";
    const SimulationResult r = expectMatchesReference(spec);
    bool wide = false;
    for (const JobOutcome &o : r.outcomes)
        for (const PlacedSegment &seg : o.segments)
            wide = wide || seg.width > 1;
    EXPECT_TRUE(wide) << "no multi-instance segment exercised";
}

TEST(AccountingOracle, StartupOverhead)
{
    ScenarioSpec spec =
        baseSpec("Wait-Awhile", ResourceStrategy::HybridGreedy);
    spec.cluster.reserved_cores = 4;
    spec.cluster.startup_overhead = 300;
    const SimulationResult r = expectMatchesReference(spec);
    EXPECT_GT(r.overhead_core_seconds, 0.0);
}

TEST(AccountingOracle, IdleReservedPower)
{
    ScenarioSpec spec =
        baseSpec("Carbon-Time", ResourceStrategy::ReservedFirst);
    spec.cluster.reserved_cores = 8;
    spec.cluster.reserved_idle_power_fraction = 0.3;
    const SimulationResult r = expectMatchesReference(spec);
    EXPECT_GT(r.idle_carbon_kg, 0.0);
}

TEST(AccountingOracle, OnlineDerivedHorizon)
{
    // Without a contracted horizon the engine derives one from the
    // latest finish it saw while settling; the reference rescans
    // every placement instead.
    const CarbonTrace carbon("ramp", [] {
        std::vector<double> v(24 * 20);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = 100.0 + static_cast<double>((i * 37) % 300);
        return v;
    }());
    const CarbonInfoService cis(carbon);
    const QueueConfig queues(
        {{"only", 3 * kSecondsPerDay, hours(12), kSecondsPerHour}});
    ClusterConfig cluster;
    cluster.reserved_cores = 3;
    cluster.reserved_idle_power_fraction = 0.5;
    const PolicyPtr policy = makePolicy("Carbon-Time");
    OnlineScheduler sched(*policy, queues, cis, cluster,
                          ResourceStrategy::ReservedFirst);
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(sched
                        .submit({i, static_cast<Seconds>(i) * 3000,
                                 600 + static_cast<Seconds>(i) * 700,
                                 1 + i % 2})
                        .isOk());
    }
    sched.drain();
    const SimulationResult r = sched.finalize();
    EXPECT_EQ(r.horizon % kSecondsPerDay, 0);
    const SimulationResult reference =
        refCloseBooks(unsettled(r), cluster, 0, carbon);
    EXPECT_EQ(resultFingerprint(r), resultFingerprint(reference));
}

TEST(AccountingOracleDeath, FinalizeWithAnUnsettledJob)
{
    const CarbonTrace carbon("flat", std::vector<double>(24 * 40, 100.0));
    const CarbonInfoService cis(carbon);
    const QueueConfig queues(
        {{"only", 3 * kSecondsPerDay, hours(6), kSecondsPerHour}});
    const PolicyPtr policy = makePolicy("NoWait");
    OnlineScheduler sched(*policy, queues, cis, {},
                          ResourceStrategy::OnDemandOnly);
    ASSERT_TRUE(sched.submit({1, 0, 600, 1}).isOk());
    ASSERT_TRUE(sched.submit({2, hours(5), 600, 1}).isOk());
    sched.advanceTo(hours(1)); // job 1 settled, job 2 not yet arrived
    EXPECT_DEATH((void)sched.finalize(), "1 unsettled jobs");
}

} // namespace
} // namespace gaia
