/**
 * @file
 * Capacity planner — pick a reserved-instance count for your
 * workload.
 *
 * The paper's Section 4.2.3 describes three operating regimes for
 * reserved capacity: below base demand (free cost savings, regime
 * 1), between base and mean demand (a configurable carbon-cost
 * trade-off, regime 2), and beyond the cost-break-even point
 * (always bad, regime 3). This tool sweeps the reserved count under
 * the work-conserving RES-First-Carbon-Time policy, prints the
 * frontier, and labels the regimes, reproducing the §7 guidance
 * ("reserve between the base and the mean demand").
 */

#include <algorithm>
#include <iostream>

#include "analysis/frontier.h"
#include "analysis/sweep.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "workload/trace_stats.h"

using namespace gaia;

int
main()
{
    // Your workload and region would be loaded from CSV here
    // (WorkloadSpec::fromCsv, CarbonSpec::fromCsv).
    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(7);
    spec.carbon =
        CarbonSpec::forRegion(Region::CaliforniaUS, 24 * 13, 7);

    // Demand statistics frame the regimes.
    SweepEngine engine;
    const JobTrace &trace =
        *engine.cache().trace(spec.workload).value();
    const auto series = demandSeries(trace, kSecondsPerHour);
    const double base_demand = percentile(series, 10.0);
    const DemandStats demand = demandStats(trace);
    std::cout << "Demand: base (p10) " << fmt(base_demand, 1)
              << " cores, mean " << fmt(demand.mean, 1)
              << ", peak " << fmt(demand.peak, 1) << ", CoV "
              << fmt(demand.cov, 2) << "\n";

    // Cell 0 is the on-demand NoWait reference; cell 1 + i runs
    // RES-First-Carbon-Time with sweep[i] reserved cores.
    spec.policy = "NoWait";
    engine.add(spec);
    spec.policy = "Carbon-Time";
    std::vector<int> sweep;
    const int mean_demand = static_cast<int>(demand.mean + 0.5);
    for (int r = 0; r <= 2 * mean_demand; r += 2) {
        spec.cluster.reserved_cores = r;
        spec.strategy = r == 0 ? ResourceStrategy::OnDemandOnly
                               : ResourceStrategy::ReservedFirst;
        engine.add(spec);
        sweep.push_back(r);
    }
    engine.run();
    const SimulationResult &on_demand_only = engine.result(0).value();
    const auto result = [&](std::size_t i) -> const SimulationResult & {
        return engine.result(1 + i).value();
    };

    // Locate the cost minimum to mark regime 3.
    std::size_t best = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (result(i).totalCost() < result(best).totalCost())
            best = i;
    }

    TextTable table("Reserved-capacity frontier "
                    "(RES-First-Carbon-Time)",
                    {"reserved", "cost vs on-demand",
                     "carbon vs on-demand", "wait (h)", "regime"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        std::string regime;
        if (sweep[i] <= base_demand)
            regime = "1: free savings";
        else if (i <= best)
            regime = "2: carbon-cost trade-off";
        else
            regime = "3: avoid (past break-even)";
        table.addRow(
            {std::to_string(sweep[i]),
             fmtPercent(result(i).totalCost() /
                            on_demand_only.totalCost() -
                        1.0),
             fmtPercent(result(i).carbon_kg /
                            on_demand_only.carbon_kg -
                        1.0),
             fmt(result(i).meanWaitingHours(), 2), regime});
    }
    table.print(std::cout);

    std::cout
        << "\nRecommendation: reserve between "
        << fmt(base_demand, 0) << " (base demand) and "
        << sweep[best]
        << " (cost minimum) cores. Fewer instances inside that "
           "range buy extra carbon savings for a few percent of "
           "cost; more never pays.\n";

    // Offer only the Pareto-optimal configurations, knee first.
    std::vector<MetricsRow> rows;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        rows.push_back(metricsOf("R=" + std::to_string(sweep[i]),
                                 result(i)));
    }
    const auto frontier = paretoFrontier(rows);
    const std::size_t knee = kneePoint(rows, frontier);
    std::cout << "\nCarbon-cost Pareto frontier:";
    for (std::size_t idx : frontier) {
        std::cout << " " << rows[idx].label
                  << (idx == knee ? "*" : "");
    }
    std::cout << "  (* = knee — the balanced pick)\n";
    return 0;
}
