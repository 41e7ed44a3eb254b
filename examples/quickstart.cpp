/**
 * @file
 * Quickstart — schedule a week of batch jobs carbon-aware.
 *
 * Demonstrates the minimal GAIA workflow:
 *   1. name a workload (here: the calibrated Alibaba-PAI week-long
 *      sample; WorkloadSpec::fromCsv loads your own),
 *   2. name a carbon-intensity source (here: the South Australia
 *      model; CarbonSpec::fromCsv loads ElectricityMaps data),
 *   3. keep the paper's standard queues, pick a policy, simulate,
 *   4. read carbon / cost / waiting out of the result.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "analysis/scenario.h"
#include "common/strings.h"
#include "common/table.h"

using namespace gaia;

int
main()
{
    // 1. A week-long, 1000-job ML-cluster workload, and 2. hourly
    //    grid carbon intensity for the scheduling horizon.
    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(/*seed=*/42);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, /*seed=*/42);

    // 3. The spec's default queues are the paper's: short jobs
    //    (<=2 h) may wait 6 h, long jobs 24 h, with J_avg calibrated
    //    from the trace. Compare the carbon-agnostic baseline with
    //    GAIA's carbon+performance-aware policy; the cache builds
    //    the traces once for both runs.
    AssetCache cache;
    spec.policy = "NoWait";
    const SimulationResult baseline =
        runScenario(spec, cache).value();
    spec.policy = "Carbon-Time";
    const SimulationResult gaia_run =
        runScenario(spec, cache).value();

    const JobTrace &trace = *cache.trace(spec.workload).value();
    std::cout << "Workload: " << trace.jobCount() << " jobs, mean "
              << fmt(trace.meanDemand(), 1)
              << " concurrent CPUs\n";

    // 4. Read the books.
    TextTable table("NoWait vs Carbon-Time",
                    {"metric", "NoWait", "Carbon-Time"});
    table.addRow("carbon (kg CO2eq)",
                 {baseline.carbon_kg, gaia_run.carbon_kg});
    table.addRow("cost ($)",
                 {baseline.totalCost(), gaia_run.totalCost()});
    table.addRow("mean waiting (h)",
                 {baseline.meanWaitingHours(),
                  gaia_run.meanWaitingHours()});
    table.addRow("p95 waiting (h)",
                 {baseline.p95WaitingHours(),
                  gaia_run.p95WaitingHours()});
    table.print(std::cout);

    std::cout << "\nCarbon-Time saved "
              << fmt(100.0 * (1.0 - gaia_run.carbon_kg /
                                        baseline.carbon_kg),
                     1)
              << "% carbon for "
              << fmt(gaia_run.meanWaitingHours(), 1)
              << " h of average waiting.\n";
    return 0;
}
