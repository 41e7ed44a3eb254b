/**
 * @file
 * Figure 8 — Normalized carbon emissions and waiting times for six
 * policies on the week-long (1k-job) Alibaba-PAI trace in South
 * Australia, on-demand only.
 *
 * Shape targets (paper §6.2.1): Wait Awhile and Ecovisor achieve
 * the lowest carbon and the highest waiting; Lowest-Window lands
 * within a few percent of Ecovisor without knowing job lengths;
 * Carbon-Time halves Wait Awhile's waiting at a modest carbon
 * premium.
 */

#include "bench_common.h"

#include "analysis/metrics.h"
#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 8",
                  "normalized carbon and waiting across policies "
                  "(week-long Alibaba-PAI, SA-AU)");

    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);

    const std::vector<std::string> policies = {
        "NoWait",      "Lowest-Slot", "Lowest-Window",
        "Carbon-Time", "Ecovisor",    "Wait-Awhile"};

    SweepEngine sweep;
    for (const std::string &name : policies) {
        ScenarioSpec spec = base;
        spec.policy = name;
        spec.label = name;
        sweep.add(std::move(spec));
    }
    sweep.run();

    std::vector<MetricsRow> rows;
    for (std::size_t i = 0; i < policies.size(); ++i)
        rows.push_back(
            metricsOf(policies[i], sweep.result(i).value()));
    const auto normalized = normalizedToMax(rows);

    TextTable table("Normalized metrics (to the max per metric)",
                    {"policy", "carbon", "waiting", "carbon(kg)",
                     "wait(h)"});
    auto csv = bench::openCsv(
        "fig08_policy_comparison",
        {"policy", "norm_carbon", "norm_wait", "carbon_kg",
         "wait_hours"});
    for (std::size_t i = 0; i < policies.size(); ++i) {
        table.addRow({policies[i], fmt(normalized[i].carbon_kg, 3),
                      fmt(normalized[i].wait_hours, 3),
                      fmt(rows[i].carbon_kg, 2),
                      fmt(rows[i].wait_hours, 2)});
        csv.writeRow({policies[i], fmt(normalized[i].carbon_kg, 4),
                      fmt(normalized[i].wait_hours, 4),
                      fmt(rows[i].carbon_kg, 4),
                      fmt(rows[i].wait_hours, 4)});
    }
    table.print(std::cout);

    const double wa = rows[5].carbon_kg;
    const double eco = rows[4].carbon_kg;
    const double lw = rows[2].carbon_kg;
    const double ct = rows[3].carbon_kg;
    std::cout << "\nLowest-Window vs Ecovisor carbon: "
              << fmtPercent(lw / eco - 1.0)
              << " (paper: +3%); vs Wait-Awhile: "
              << fmtPercent(lw / wa - 1.0) << " (paper: +16%)\n"
              << "Carbon-Time waiting vs Wait-Awhile: "
              << fmtPercent(rows[3].wait_hours /
                                rows[5].wait_hours -
                            1.0)
              << " (paper: -50%); carbon vs Lowest-Window: "
              << fmtPercent(ct / lw - 1.0) << " (paper: +6%)\n\n";
    sweep.printSummary(std::cout);
    return 0;
}
