/**
 * @file
 * Fault injection x plan memoization: for every fault family alone,
 * every memoizing policy and forecast noise on and off, a simulation
 * with the PlanCache must fingerprint exactly like one without it.
 * Outage, storm, straggler and delay leave forecast values alone, so
 * the decorator stays memoizable and the cache actually serves hits;
 * stale, spike and gap distort forecasts by query instant or slot,
 * so the decorator opts out.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "common/obs.h"
#include "core/cis.h"
#include "core/plan_cache.h"
#include "fault/faulty_source.h"
#include "fault/injector.h"
#include "sim/results.h"
#include "trace/carbon_trace.h"

namespace gaia {
namespace {

struct Family
{
    const char *name;
    const char *clause;
    /** The decorator keeps its inner source's memoizability. */
    bool memoizable;
};

const Family kFamilies[] = {
    {"outage", "outage:rate=0.2,hours=3", true},
    {"storm", "storm:rate=0.3", true},
    {"straggler", "straggler:rate=0.3,factor=1.5", true},
    {"delay", "delay:rate=0.3", true},
    {"stale", "stale:rate=0.2", false},
    {"spike", "spike:rate=0.2", false},
    {"gap", "gap:rate=0.2", false},
};

void
PrintTo(const Family &family, std::ostream *out)
{
    *out << family.name;
}

FaultSpec
specOf(const Family &family)
{
    Result<FaultSpec> spec = FaultSpec::parse(family.clause);
    EXPECT_TRUE(spec.isOk()) << spec.status().message();
    return std::move(spec).value();
}

/** A small spot+reserved Azure scenario with evictions, in the
 *  shape of the benchmark's faulty workload. */
ScenarioSpec
scenarioFor(const Family &family, const std::string &policy,
            double noise)
{
    TraceBuildOptions options;
    options.job_count = 400;
    options.span = 4 * kSecondsPerDay;
    options.seed = 3;

    ScenarioSpec spec;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    spec.carbon =
        CarbonSpec::forRegion(Region::SouthAustralia, 24 * 12, 3);
    spec.policy = policy;
    spec.strategy = ResourceStrategy::SpotReserved;
    spec.cluster.reserved_cores = 8;
    spec.cluster.spot_eviction_rate = 0.1;
    spec.cis.noise = noise;
    spec.cis.seed = 5;
    spec.fault = specOf(family);
    if (policy == "Carbon-Scaler")
        spec.elastic_profile = "linear:max=4";
    return spec;
}

std::uint64_t
fingerprintWith(bool memoize, const ScenarioSpec &spec,
                AssetCache &assets)
{
    setPlanMemoization(memoize);
    Result<SimulationResult> result = runScenario(spec, assets);
    setPlanMemoization(true);
    EXPECT_TRUE(result.isOk()) << result.status().message();
    return result.isOk() ? resultFingerprint(*result) : 0;
}

class FaultMemo : public testing::TestWithParam<Family>
{
};

TEST_P(FaultMemo, DecoratorMemoizabilityFollowsTheFamily)
{
    const Family &family = GetParam();
    const CarbonTrace trace("flat", std::vector<double>(48, 100.0));
    const CarbonInfoService noisy(trace, 0.2, 5);
    const FaultInjector injector(specOf(family));
    const FaultyCarbonSource faulty(noisy, injector);
    EXPECT_EQ(faulty.slotInvariantForecasts(), family.memoizable);
}

TEST_P(FaultMemo, MemoizedRunsMatchDirectRuns)
{
    const Family &family = GetParam();
    const obs::Counter &hits = obs::counter("plan_cache.hits");
    AssetCache assets;
    for (const char *policy : {"Carbon-Time", "Lowest-Window",
                               "Lowest-Slot", "Carbon-Scaler"}) {
        for (const double noise : {0.0, 0.2}) {
            SCOPED_TRACE(std::string(policy) + " at noise " +
                         std::to_string(noise));
            const ScenarioSpec spec =
                scenarioFor(family, policy, noise);
            const std::uint64_t direct =
                fingerprintWith(false, spec, assets);
            const std::uint64_t hits_before = hits.value();
            const std::uint64_t memo =
                fingerprintWith(true, spec, assets);
            EXPECT_EQ(memo, direct);
            // The cache serves the cell exactly when the family
            // leaves forecast values alone.
            EXPECT_EQ(hits.value() > hits_before, family.memoizable);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FaultMemo, testing::ValuesIn(kFamilies),
    [](const testing::TestParamInfo<Family> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace gaia
