/**
 * @file
 * Google-benchmark microbenchmarks: policy planning latency and
 * end-to-end simulator throughput. These guard the performance
 * envelope that makes the year-long (100k-job) sweeps in the
 * figure benches practical.
 */

#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "analysis/harness.h"
#include "core/policy_factory.h"
#include "trace/region_model.h"
#include "workload/generators.h"

namespace gaia {
namespace {

const CarbonTrace &
weekCarbon()
{
    static const CarbonTrace trace =
        makeRegionTrace(Region::SouthAustralia, 24 * 13, 1);
    return trace;
}

const JobTrace &
weekTrace()
{
    static const JobTrace trace = makeWeekTrace(1);
    return trace;
}

void
BM_PolicyPlanning(benchmark::State &state,
                  const std::string &policy_name)
{
    const CarbonInfoService cis(weekCarbon());
    const PolicyPtr policy = makePolicy(policy_name);
    QueueConfig queues = calibratedQueues(weekTrace());
    const QueueSpec &queue = queues.queue(1);

    Job job;
    job.id = 1;
    job.submit = hours(30) + 1234;
    job.length = hours(7);
    job.cpus = 2;
    PlanContext ctx{job.submit, &cis, &queue};

    for (auto _ : state) {
        benchmark::DoNotOptimize(policy->plan(job, ctx));
    }
}

BENCHMARK_CAPTURE(BM_PolicyPlanning, NoWait,
                  std::string("NoWait"));
BENCHMARK_CAPTURE(BM_PolicyPlanning, LowestSlot,
                  std::string("Lowest-Slot"));
BENCHMARK_CAPTURE(BM_PolicyPlanning, LowestWindow,
                  std::string("Lowest-Window"));
BENCHMARK_CAPTURE(BM_PolicyPlanning, CarbonTime,
                  std::string("Carbon-Time"));
BENCHMARK_CAPTURE(BM_PolicyPlanning, WaitAwhile,
                  std::string("Wait-Awhile"));
BENCHMARK_CAPTURE(BM_PolicyPlanning, Ecovisor,
                  std::string("Ecovisor"));

void
BM_SimulateWeekTrace(benchmark::State &state,
                     const std::string &policy_name,
                     ResourceStrategy strategy, int reserved)
{
    const CarbonInfoService cis(weekCarbon());
    const JobTrace &trace = weekTrace();
    const QueueConfig queues = calibratedQueues(trace);
    const PolicyPtr policy = makePolicy(policy_name);
    ClusterConfig cluster;
    cluster.reserved_cores = reserved;

    for (auto _ : state) {
        const SimulationResult r = bench::runChecked(
            trace, *policy, queues, cis, cluster, strategy);
        benchmark::DoNotOptimize(r.carbon_kg);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.jobCount()));
}

BENCHMARK_CAPTURE(BM_SimulateWeekTrace, NoWait_OnDemand,
                  std::string("NoWait"),
                  ResourceStrategy::OnDemandOnly, 0);
BENCHMARK_CAPTURE(BM_SimulateWeekTrace, CarbonTime_OnDemand,
                  std::string("Carbon-Time"),
                  ResourceStrategy::OnDemandOnly, 0);
BENCHMARK_CAPTURE(BM_SimulateWeekTrace, CarbonTime_ResFirst,
                  std::string("Carbon-Time"),
                  ResourceStrategy::ReservedFirst, 18);
BENCHMARK_CAPTURE(BM_SimulateWeekTrace, WaitAwhile_OnDemand,
                  std::string("Wait-Awhile"),
                  ResourceStrategy::OnDemandOnly, 0);

void
BM_CarbonIntegrate(benchmark::State &state)
{
    const CarbonTrace &trace = weekCarbon();
    const Seconds from = hours(5) + 600;
    const Seconds to = from + hours(static_cast<double>(
                                  state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(trace.integrate(from, to));
}

BENCHMARK(BM_CarbonIntegrate)->Arg(1)->Arg(6)->Arg(24)->Arg(72);

void
BM_RegionTraceGeneration(benchmark::State &state)
{
    const auto slots = static_cast<std::size_t>(state.range(0));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(makeRegionTrace(
            Region::CaliforniaUS, slots, seed++));
    }
}

BENCHMARK(BM_RegionTraceGeneration)->Arg(24 * 7)->Arg(24 * 365);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    TraceBuildOptions options;
    options.job_count = static_cast<std::size_t>(state.range(0));
    options.span = kSecondsPerWeek;
    for (auto _ : state) {
        options.seed++;
        benchmark::DoNotOptimize(
            buildTrace(WorkloadSource::AlibabaPai, options).value());
    }
}

BENCHMARK(BM_WorkloadGeneration)->Arg(1000)->Arg(10000);

} // namespace
} // namespace gaia
