/**
 * @file
 * Region advisor — where (and how long to wait) should a workload
 * run for real carbon reductions?
 *
 * Reproduces the paper's §6.4.3 guidance as a decision tool: for
 * each candidate region it reports the normalized and *absolute*
 * carbon savings of Carbon-Time scheduling plus the waiting cost,
 * and flags that users should compare total kilograms rather than
 * percentages. It also sweeps the long-queue waiting limit for the
 * chosen region to expose the knee the paper recommends (~12 h).
 */

#include <iostream>

#include "analysis/harness.h"
#include "analysis/sweep.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/policy_factory.h"

using namespace gaia;

int
main()
{
    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(21);
    const std::vector<Region> &regions = evaluationRegions();

    // Cells per region: NoWait, then Carbon-Time.
    SweepEngine engine;
    for (Region region : regions) {
        spec.carbon = CarbonSpec::forRegion(region, 24 * 13, 21);
        for (const char *policy : {"NoWait", "Carbon-Time"}) {
            spec.policy = policy;
            engine.add(spec);
        }
    }
    engine.run();

    TextTable table("Carbon-Time savings by region (one week)",
                    {"region", "normalized carbon", "saved kg",
                     "wait (h)"});
    std::size_t best_total = 0;
    double best_saved_kg = 0.0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const SimulationResult &nowait = engine.result(2 * i).value();
        const SimulationResult &ct = engine.result(2 * i + 1).value();
        const double saved_kg = nowait.carbon_kg - ct.carbon_kg;
        table.addRow(regionName(regions[i]),
                     {ct.carbon_kg / nowait.carbon_kg, saved_kg,
                      ct.meanWaitingHours()});
        if (i == 0 || saved_kg > best_saved_kg) {
            best_total = i;
            best_saved_kg = saved_kg;
        }
    }
    table.print(std::cout);
    std::cout << "\nLargest absolute reduction: "
              << regionName(regions[best_total]) << " ("
              << fmt(best_saved_kg, 1)
              << " kg). Judge regions by kilograms, not "
                 "percentages.\n";

    // Waiting-limit knee for the selected region (§7 guidance).
    const Region chosen = regions[best_total];
    spec.carbon = CarbonSpec::forRegion(chosen, 24 * 16, 21);
    spec.policy = "NoWait";
    AssetCache &cache = engine.cache();
    const SimulationResult nowait = runScenario(spec, cache).value();
    // The knee sweep includes a long-queue limit below the short
    // one, which is not a valid scenario, so its cells are
    // simulated from their parts.
    const JobTrace &trace = *cache.trace(spec.workload).value();
    const CarbonInfoService cis(
        *cache.carbon(spec.carbon, spec.carbon.slots).value());
    const PolicyPtr policy = makePolicy("Carbon-Time");

    TextTable knee("Long-queue waiting limit sweep ("
                       + regionName(chosen) + ")",
                   {"W_long (h)", "saved kg", "wait (h)",
                    "kg per wait-hour"});
    for (Seconds w : {hours(3), hours(6), hours(12), hours(24),
                      hours(48), hours(72)}) {
        const QueueConfig queues =
            calibratedQueues(trace, hours(6), w);
        const SimulationResult r =
            simulateChecked(SimulationSetup::Builder()
                                .trace(trace)
                                .policy(*policy)
                                .queues(queues)
                                .cis(cis)
                                .build()
                                .value())
                .value();
        const double saved = nowait.carbon_kg - r.carbon_kg;
        const double wait = r.meanWaitingHours();
        knee.addRow(fmt(toHours(w), 0),
                    {saved, wait, wait > 0 ? saved / wait : 0.0});
    }
    knee.print(std::cout);
    std::cout << "\nThe per-hour yield drops past the knee — the "
                 "paper recommends W_long around 12 h as the "
                 "carbon/performance balance.\n";
    return 0;
}
