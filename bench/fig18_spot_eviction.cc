/**
 * @file
 * Figure 18 — Spot-First cost and carbon versus the spot length
 * bound J^max for several eviction rates (Azure-VM year trace,
 * South Australia), normalized to NoWait on-demand execution.
 *
 * Shape targets (paper §6.4.5): with no evictions, widening J^max
 * strictly lowers cost at unchanged carbon; with evictions, cost
 * benefits flatten or reverse (at 15%/h, beyond ~6 h there are no
 * further cost savings) while carbon strictly degrades (up to
 * ~+12%).
 */

#include "bench_common.h"

#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 18",
                  "Spot-First J^max sweep across eviction rates "
                  "(Azure-VM year, SA-AU)");

    const std::vector<double> rates = {0.0, 0.05, 0.10, 0.15};
    const std::vector<Seconds> bounds = {
        hours(2), hours(6), hours(12), hours(18), hours(24)};

    // Cell 0 is the NoWait baseline; cell 1 + ri * |bounds| + bi
    // runs eviction rate ri at J^max bound bi.
    ScenarioSpec spec;
    spec.workload = WorkloadSpec::year(WorkloadSource::AzureVm, 1);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::yearSlots(), 1);
    spec.label = spec.policy = "NoWait";
    SweepEngine sweep;
    sweep.add(spec);
    spec.policy = "Carbon-Time";
    spec.strategy = ResourceStrategy::SpotFirst;
    for (double rate : rates) {
        for (Seconds bound : bounds) {
            spec.cluster.spot_eviction_rate = rate;
            spec.cluster.spot_max_length = bound;
            spec.label = "q=" + fmt(rate, 2) +
                         " Jmax=" + fmt(toHours(bound), 0) + "h";
            sweep.add(spec);
        }
    }
    sweep.run();
    const SimulationResult &baseline = sweep.result(0).value();

    TextTable cost_table(
        "(a) Cost normalized to NoWait on-demand",
        {"J^max (h)", "q=0%", "q=5%", "q=10%", "q=15%"});
    TextTable carbon_table(
        "(b) Carbon normalized to NoWait on-demand",
        {"J^max (h)", "q=0%", "q=5%", "q=10%", "q=15%"});
    auto csv = bench::openCsv(
        "fig18_spot_eviction",
        {"jmax_hours", "eviction_rate", "norm_cost", "norm_carbon",
         "evictions"});
    for (std::size_t bi = 0; bi < bounds.size(); ++bi) {
        std::vector<double> cost_row, carbon_row;
        for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            const SimulationResult &r =
                sweep.result(1 + ri * bounds.size() + bi).value();
            cost_row.push_back(r.totalCost() /
                               baseline.totalCost());
            carbon_row.push_back(r.carbon_kg /
                                 baseline.carbon_kg);
            csv.writeRow({fmt(toHours(bounds[bi]), 0),
                          fmt(rates[ri], 2),
                          fmt(cost_row.back(), 4),
                          fmt(carbon_row.back(), 4),
                          std::to_string(r.eviction_count)});
        }
        cost_table.addRow(fmt(toHours(bounds[bi]), 0), cost_row);
        carbon_table.addRow(fmt(toHours(bounds[bi]), 0),
                            carbon_row);
    }
    cost_table.print(std::cout);
    carbon_table.print(std::cout);

    std::cout << "\nShape targets: q=0 columns fall monotonically "
                 "in cost with flat carbon; higher q flattens or "
                 "reverses the cost benefit and strictly raises "
                 "carbon with J^max.\n";
    return 0;
}
