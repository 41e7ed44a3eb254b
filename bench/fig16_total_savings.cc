/**
 * @file
 * Figure 16 — Normalized versus absolute carbon savings for the
 * Alibaba-PAI year trace across regions (Carbon-Time policy).
 *
 * Shape target (paper §6.4.3): the normalized and total-savings
 * orderings differ — a low-intensity region can save a larger
 * fraction but fewer absolute kilograms than a dirtier one
 * (Ontario and Kentucky land near each other in kg while differing
 * ~20% in normalized terms).
 */

#include "bench_common.h"

#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 16",
                  "normalized vs total carbon savings across "
                  "regions (Alibaba-PAI year, Carbon-Time)");

    const std::vector<Region> &regions = evaluationRegions();

    // Cells per region: NoWait, then Carbon-Time.
    ScenarioSpec spec;
    spec.workload = WorkloadSpec::year(WorkloadSource::AlibabaPai, 1);
    SweepEngine sweep;
    for (Region region : regions) {
        spec.carbon = CarbonSpec::forRegion(region, bench::yearSlots(), 1);
        for (const char *policy : {"NoWait", "Carbon-Time"}) {
            spec.policy = policy;
            spec.label = regionName(region) + " " + policy;
            sweep.add(spec);
        }
    }
    sweep.run();

    TextTable table("Normalized carbon and total saved carbon",
                    {"region", "normalized carbon",
                     "saved (kg CO2eq)"});
    auto csv = bench::openCsv(
        "fig16_total_savings",
        {"region", "normalized_carbon", "saved_kg"});
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const SimulationResult &nowait = sweep.result(2 * i).value();
        const SimulationResult &ct = sweep.result(2 * i + 1).value();
        const double normalized = ct.carbon_kg / nowait.carbon_kg;
        const double saved_kg = nowait.carbon_kg - ct.carbon_kg;
        table.addRow(regionName(regions[i]), {normalized, saved_kg});
        csv.writeRow({regionName(regions[i]), fmt(normalized, 4),
                      fmt(saved_kg, 2)});
    }
    table.print(std::cout);

    std::cout << "\nShape target: the region ranked best by "
                 "normalized savings is not the one saving the "
                 "most kilograms — users should judge by total "
                 "reduction.\n";
    return 0;
}
