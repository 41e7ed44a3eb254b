/**
 * @file
 * Ablation — instance initiation/termination overhead. The paper's
 * AWS prototype bills the entire instance lifetime; its simulator
 * (and ours, by default) neglects spin-up/teardown. This ablation
 * turns the overhead on and shows that it amplifies exactly the
 * effect §6.3.1 describes: suspend-resume policies fragment demand
 * into many short acquisitions, so their cost penalty grows
 * fastest.
 */

#include "bench_common.h"

#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Ablation",
                  "instance startup/teardown overhead (week-long "
                  "Alibaba-PAI, SA-AU)");

    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(1);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);

    // Cells per policy, in `overheads` order.
    const std::vector<std::string> policies = {
        "NoWait", "Carbon-Time", "Ecovisor", "Wait-Awhile"};
    const std::vector<Seconds> overheads = {Seconds{0}, minutes(2),
                                            minutes(5), minutes(10)};
    SweepEngine sweep;
    for (const std::string &policy : policies) {
        spec.policy = policy;
        for (Seconds overhead : overheads) {
            spec.cluster.startup_overhead = overhead;
            spec.label = policy + " +" + std::to_string(overhead) + "s";
            sweep.add(spec);
        }
    }
    sweep.run();

    TextTable table("Total cost ($) vs per-acquisition overhead",
                    {"policy", "0 min", "2 min", "5 min", "10 min",
                     "cost growth @10min"});
    auto csv = bench::openCsv(
        "ablation_startup_overhead",
        {"policy", "overhead_min", "cost_usd", "carbon_kg",
         "overhead_core_hours"});
    std::size_t cell = 0;
    for (const std::string &policy : policies) {
        std::vector<double> costs;
        for (Seconds overhead : overheads) {
            const SimulationResult &r = sweep.result(cell++).value();
            costs.push_back(r.totalCost());
            csv.writeRow({policy, fmt(toHours(overhead) * 60, 0),
                          fmt(r.totalCost(), 4),
                          fmt(r.carbon_kg, 4),
                          fmt(r.overhead_core_seconds / 3600.0,
                              2)});
        }
        table.addRow({policy, fmt(costs[0], 2), fmt(costs[1], 2),
                      fmt(costs[2], 2), fmt(costs[3], 2),
                      fmtPercent(costs[3] / costs[0] - 1.0)});
    }
    table.print(std::cout);

    std::cout << "\nExpectation: single-segment policies pay one "
                 "overhead per job; suspend-resume policies pay "
                 "one per segment, so their cost grows fastest — "
                 "the real-testbed version of the fragmentation "
                 "penalty in Figure 10.\n";
    return 0;
}
