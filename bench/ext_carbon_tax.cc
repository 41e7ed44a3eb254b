/**
 * @file
 * Extension — pricing carbon (§7 discussion). A carbon tax or
 * mandatory offset folds the three-way trade-off into plain cost:
 * this bench sweeps the carbon price and reports each policy's
 * tax-inclusive effective cost, plus the break-even price at which
 * each carbon-aware policy becomes outright cheaper than NoWait.
 * For context: the EU ETS traded around $80-100/t in the paper's
 * timeframe; the US has no federal price.
 */

#include "bench_common.h"

#include "analysis/carbon_tax.h"
#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Extension",
                  "carbon tax folds the trade-off into cost "
                  "(week-long Alibaba-PAI, SA-AU)");

    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(1);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);

    // Cells 0..3 run `policies` on demand only. The last three are
    // the hybrid variant: 9 reserved instances make carbon-aware
    // scheduling genuinely more expensive, so a finite break-even
    // price appears.
    const std::vector<std::string> policies = {
        "NoWait", "Lowest-Window", "Carbon-Time", "Wait-Awhile"};
    SweepEngine sweep;
    for (const std::string &p : policies) {
        spec.label = spec.policy = p;
        sweep.add(spec);
    }
    spec.cluster.reserved_cores = 9;
    spec.strategy = ResourceStrategy::HybridGreedy;
    spec.label = spec.policy = "NoWait";
    const std::size_t nowait_hybrid = sweep.add(spec);
    spec.label = spec.policy = "Carbon-Time";
    const std::size_t ct_hybrid = sweep.add(spec);
    spec.strategy = ResourceStrategy::ReservedFirst;
    spec.label = "RES-First-Carbon-Time";
    const std::size_t res_ct_hybrid = sweep.add(spec);
    sweep.run();
    const auto result =
        [&](std::size_t i) -> const SimulationResult & {
        return sweep.result(i).value();
    };

    const std::vector<double> prices = {0,   25,  50,   100,
                                        200, 500, 1000};
    TextTable table("Effective cost ($) vs carbon price ($/t)",
                    {"policy", "$0", "$25", "$50", "$100", "$200",
                     "$500", "$1000"});
    auto csv = bench::openCsv(
        "ext_carbon_tax",
        {"policy", "carbon_price", "effective_cost"});
    for (std::size_t i = 0; i < policies.size(); ++i) {
        std::vector<double> row;
        for (double price : prices) {
            row.push_back(effectiveCost(result(i), price));
            csv.writeRow({policies[i], fmt(price, 0),
                          fmt(row.back(), 4)});
        }
        table.addRow(policies[i], row, 2);
    }
    table.print(std::cout);

    std::cout << "\nBreak-even carbon price vs NoWait:\n";
    for (std::size_t i = 1; i < policies.size(); ++i) {
        const double price =
            breakEvenCarbonPrice(result(i), result(0));
        std::cout << "  " << policies[i] << ": $" << fmt(price, 0)
                  << "/t\n";
    }
    std::cout
        << "\nNote: in this on-demand-only setting delaying jobs "
           "does not change the cloud bill, so carbon-aware "
           "policies already win at any positive carbon price; "
           "re-run with reserved capacity (Figure 10's setup) and "
           "the break-even becomes a real threshold. The paper's "
           "point stands either way: without providers exposing a "
           "carbon price in the bill, users face the raw "
           "three-way trade-off.\n";

    std::cout << "\nHybrid cluster (R=9) break-even vs NoWait:\n"
              << "  Carbon-Time (greedy):    $"
              << fmt(breakEvenCarbonPrice(result(ct_hybrid),
                                          result(nowait_hybrid)),
                     0)
              << "/t\n"
              << "  RES-First-Carbon-Time:   $"
              << fmt(breakEvenCarbonPrice(result(res_ct_hybrid),
                                          result(nowait_hybrid)),
                     0)
              << "/t\n"
              << "Expectation: the work-conserving variant needs a "
                 "far smaller carbon price to pay off — GAIA's "
                 "policies shrink the tax needed to make green "
                 "scheduling rational.\n";
    return 0;
}
