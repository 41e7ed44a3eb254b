/**
 * @file
 * Ablation — forecast quality. The paper assumes perfect
 * carbon-intensity forecasts (citing their demonstrated accuracy);
 * this ablation injects multiplicative forecast error into the CIS
 * and measures how much of each policy's carbon savings survives.
 * Accounting always uses the true trace.
 */

#include "bench_common.h"

#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Ablation",
                  "forecast noise sensitivity (week-long "
                  "Alibaba-PAI, SA-AU)");

    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);

    const std::vector<double> noises = {0.0, 0.05, 0.1,
                                        0.25, 0.5, 1.0};
    const std::vector<std::string> policies = {
        "Lowest-Window", "Carbon-Time", "Wait-Awhile"};

    SweepEngine sweep;
    ScenarioSpec nowait_spec = base;
    nowait_spec.policy = "NoWait";
    nowait_spec.label = "NoWait truth baseline";
    const std::size_t nowait_cell = sweep.add(nowait_spec);

    std::vector<std::size_t> cells(noises.size() * policies.size());
    for (std::size_t ni = 0; ni < noises.size(); ++ni) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            ScenarioSpec spec = base;
            spec.policy = policies[p];
            spec.cis.noise = noises[ni];
            spec.cis.seed = 1234;
            spec.label = policies[p] +
                         " sigma=" + fmt(noises[ni], 2);
            cells[ni * policies.size() + p] =
                sweep.add(std::move(spec));
        }
    }
    sweep.run();
    const SimulationResult &nowait =
        sweep.result(nowait_cell).value();

    TextTable table("Carbon savings vs forecast error",
                    {"noise sigma", "Lowest-Window", "Carbon-Time",
                     "Wait-Awhile"});
    auto csv = bench::openCsv(
        "ablation_forecast_noise",
        {"noise", "lw_savings", "ct_savings", "wa_savings"});
    for (std::size_t ni = 0; ni < noises.size(); ++ni) {
        std::vector<double> savings;
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const SimulationResult &r =
                sweep.result(cells[ni * policies.size() + p])
                    .value();
            savings.push_back(1.0 -
                              r.carbon_kg / nowait.carbon_kg);
        }
        table.addRow(fmt(noises[ni], 2), savings);
        csv.writeRow({fmt(noises[ni], 2), fmt(savings[0], 4),
                      fmt(savings[1], 4), fmt(savings[2], 4)});
    }
    table.print(std::cout);

    std::cout << "\nExpectation: savings degrade smoothly with "
                 "forecast error and remain positive even at "
                 "sigma = 0.5, supporting the paper's "
                 "perfect-forecast simplification.\n\n";
    sweep.printSummary(std::cout);
    return 0;
}
