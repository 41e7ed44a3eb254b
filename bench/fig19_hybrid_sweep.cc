/**
 * @file
 * Figure 19 — Spot-RES-Carbon-Time across reserved capacities and
 * spot bounds J^max with a 10%/h eviction rate (Azure-VM year
 * trace, South Australia), normalized to NoWait on-demand
 * execution. J^max = 0 degenerates to RES-First.
 *
 * Shape targets (paper §6.4.5): every J^max shows the familiar
 * cost U-shape in reserved capacity, but larger spot shares shift
 * the cost minimum left and keep more carbon savings at it (the
 * paper's minima: ~120 reserved at 7% carbon savings for
 * J^max = 12 h; ~140 at 5.5% for J^max = 6 h).
 */

#include "bench_common.h"

#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 19",
                  "Spot-RES reserved sweep across J^max, 10%/h "
                  "evictions (Azure-VM year, SA-AU)");

    ScenarioSpec base;
    base.workload = WorkloadSpec::year(WorkloadSource::AzureVm, 1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::yearSlots(), 1);

    const std::vector<Seconds> bounds = {0, hours(2), hours(6),
                                         hours(12)};
    std::vector<int> reserved;
    for (int r = 0; r <= 160; r += 20)
        reserved.push_back(r);

    SweepEngine sweep;
    ScenarioSpec nowait_spec = base;
    nowait_spec.policy = "NoWait";
    nowait_spec.label = "NoWait on-demand baseline";
    const std::size_t nowait_cell = sweep.add(nowait_spec);

    std::vector<std::size_t> cells(bounds.size() * reserved.size());
    for (std::size_t bi = 0; bi < bounds.size(); ++bi) {
        for (std::size_t ri = 0; ri < reserved.size(); ++ri) {
            ScenarioSpec spec = base;
            spec.policy = "Carbon-Time";
            spec.strategy = ResourceStrategy::SpotReserved;
            spec.cluster.reserved_cores = reserved[ri];
            spec.cluster.spot_eviction_rate = 0.10;
            spec.cluster.spot_max_length = bounds[bi];
            spec.label = "R=" + std::to_string(reserved[ri]) +
                         " Jmax=" + fmt(toHours(bounds[bi]), 0) +
                         "h";
            cells[bi * reserved.size() + ri] =
                sweep.add(std::move(spec));
        }
    }
    sweep.run();

    const SimulationResult &baseline =
        sweep.result(nowait_cell).value();
    const auto cell = [&](std::size_t k) -> const SimulationResult & {
        return sweep.result(cells[k]).value();
    };
    std::cout << "Trace mean demand: "
              << fmt(sweep.cache()
                         .trace(base.workload)
                         .value()
                         ->meanDemand(),
                     1)
              << " cores\n";

    TextTable cost_table(
        "(a) Cost normalized to NoWait on-demand",
        {"reserved", "Jmax=0 (RES-First)", "Jmax=2h", "Jmax=6h",
         "Jmax=12h"});
    TextTable carbon_table(
        "(b) Carbon normalized to NoWait on-demand",
        {"reserved", "Jmax=0 (RES-First)", "Jmax=2h", "Jmax=6h",
         "Jmax=12h"});
    auto csv = bench::openCsv(
        "fig19_hybrid_sweep",
        {"reserved", "jmax_hours", "norm_cost", "norm_carbon"});
    for (std::size_t ri = 0; ri < reserved.size(); ++ri) {
        std::vector<double> cost_row, carbon_row;
        for (std::size_t bi = 0; bi < bounds.size(); ++bi) {
            const SimulationResult &r =
                cell(bi * reserved.size() + ri);
            cost_row.push_back(r.totalCost() /
                               baseline.totalCost());
            carbon_row.push_back(r.carbon_kg /
                                 baseline.carbon_kg);
            csv.writeRow({std::to_string(reserved[ri]),
                          fmt(toHours(bounds[bi]), 0),
                          fmt(cost_row.back(), 4),
                          fmt(carbon_row.back(), 4)});
        }
        cost_table.addRow(std::to_string(reserved[ri]), cost_row);
        carbon_table.addRow(std::to_string(reserved[ri]),
                            carbon_row);
    }
    cost_table.print(std::cout);
    carbon_table.print(std::cout);

    // Report each J^max's cost minimum and the carbon saving there.
    std::cout << "\nCost minima per J^max:\n";
    for (std::size_t bi = 0; bi < bounds.size(); ++bi) {
        double best = 1e18;
        std::size_t best_ri = 0;
        for (std::size_t ri = 0; ri < reserved.size(); ++ri) {
            const double c =
                cell(bi * reserved.size() + ri).totalCost();
            if (c < best) {
                best = c;
                best_ri = ri;
            }
        }
        const SimulationResult &r =
            cell(bi * reserved.size() + best_ri);
        std::cout << "  Jmax=" << fmt(toHours(bounds[bi]), 0)
                  << "h: R=" << reserved[best_ri]
                  << ", carbon savings "
                  << fmtPercent(1.0 - r.carbon_kg /
                                          baseline.carbon_kg)
                  << "\n";
    }
    std::cout << "\n";
    sweep.printSummary(std::cout);
    return 0;
}
