/**
 * @file
 * Figure 11 — Effect of the reserved-instance count under the
 * work-conserving RES-First-Carbon-Time policy (week-long
 * Alibaba-PAI, South Australia). Carbon and cost are normalized to
 * a NoWait on-demand-only execution; waiting time is absolute.
 *
 * Shape targets: cost is U-shaped with an interior minimum near the
 * trace's mean demand; carbon savings shrink as reserved capacity
 * grows; waiting time strictly decreases with reserved capacity.
 */

#include "bench_common.h"

#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 11",
                  "reserved-capacity sweep, RES-First-Carbon-Time "
                  "(week-long Alibaba-PAI, SA-AU)");

    // Cell 0 is the NoWait baseline; cell 1 + i has reserved[i].
    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(1);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);
    spec.label = spec.policy = "NoWait";
    SweepEngine sweep;
    sweep.add(spec);
    spec.policy = "Carbon-Time";
    std::vector<int> reserved;
    for (int r = 0; r <= 36; r += 3) {
        spec.cluster.reserved_cores = r;
        spec.strategy = r == 0 ? ResourceStrategy::OnDemandOnly
                               : ResourceStrategy::ReservedFirst;
        spec.label = "R=" + std::to_string(r);
        sweep.add(spec);
        reserved.push_back(r);
    }
    sweep.run();
    std::cout << "Trace mean demand: "
              << fmt(sweep.cache().trace(spec.workload).value()
                         ->meanDemand(), 1)
              << " CPUs\n";
    const SimulationResult &baseline = sweep.result(0).value();

    TextTable table(
        "Normalized to NoWait on-demand execution",
        {"reserved", "cost", "carbon", "waiting (h)", "util"});
    auto csv = bench::openCsv(
        "fig11_reserved_sweep",
        {"reserved", "norm_cost", "norm_carbon", "wait_hours",
         "reserved_utilization"});
    double best_cost = 1e18;
    int best_r = 0;
    for (std::size_t i = 0; i < reserved.size(); ++i) {
        const SimulationResult &r = sweep.result(1 + i).value();
        const double norm_cost = r.totalCost() / baseline.totalCost();
        const double norm_carbon = r.carbon_kg / baseline.carbon_kg;
        table.addRow(std::to_string(reserved[i]),
                     {norm_cost, norm_carbon, r.meanWaitingHours(),
                      r.reserved_utilization});
        csv.writeRow({std::to_string(reserved[i]),
                      fmt(norm_cost, 4), fmt(norm_carbon, 4),
                      fmt(r.meanWaitingHours(), 4),
                      fmt(r.reserved_utilization, 4)});
        if (r.totalCost() < best_cost) {
            best_cost = r.totalCost();
            best_r = reserved[i];
        }
    }
    table.print(std::cout);

    std::cout << "\nLowest-cost reserved count: " << best_r
              << " (paper: 18, at ~6% carbon savings vs NoWait); "
                 "users can trade a few % cost for more carbon by "
                 "choosing fewer instances.\n";
    return 0;
}
