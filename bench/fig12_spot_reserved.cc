/**
 * @file
 * Figure 12 — Combining spot and reserved instances (week-long
 * Alibaba-PAI, South Australia). The "(R)" suffix is the reserved
 * count.
 *
 * Shape targets (paper §6.3.2): Spot-First variants keep the
 * carbon-aware schedule's savings at ~17% lower cost; Spot-RES
 * trades carbon for cost as the reserved share grows.
 */

#include "bench_common.h"

#include "analysis/metrics.h"
#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 12",
                  "spot + reserved combinations (week-long "
                  "Alibaba-PAI, SA-AU)");

    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(1);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);
    spec.cluster.spot_max_length = 2 * kSecondsPerHour;
    spec.cluster.spot_eviction_rate = 0.0; // paper: never evicted

    struct Variant
    {
        std::string label;
        std::string policy;
        ResourceStrategy strategy;
        int reserved;
    };
    const std::vector<Variant> variants = {
        {"Carbon-Time (0)", "Carbon-Time",
         ResourceStrategy::OnDemandOnly, 0},
        {"Spot-First-Carbon-Time (0)", "Carbon-Time",
         ResourceStrategy::SpotFirst, 0},
        {"Spot-First-Ecovisor (0)", "Ecovisor",
         ResourceStrategy::SpotFirst, 0},
        {"Spot-RES-Carbon-Time (9)", "Carbon-Time",
         ResourceStrategy::SpotReserved, 9},
        {"Spot-RES-Carbon-Time (6)", "Carbon-Time",
         ResourceStrategy::SpotReserved, 6},
    };

    SweepEngine sweep;
    for (const Variant &v : variants) {
        spec.policy = v.policy;
        spec.strategy = v.strategy;
        spec.cluster.reserved_cores = v.reserved;
        spec.label = v.label;
        sweep.add(spec);
    }
    sweep.run();

    std::vector<MetricsRow> rows;
    for (std::size_t i = 0; i < sweep.size(); ++i)
        rows.push_back(metricsOf(sweep.spec(i).label,
                                 sweep.result(i).value()));
    const auto normalized = normalizedToMax(rows);

    TextTable table("Normalized metrics (to the max per metric)",
                    {"configuration", "carbon", "cost", "waiting"});
    auto csv = bench::openCsv(
        "fig12_spot_reserved",
        {"configuration", "norm_carbon", "norm_cost", "norm_wait",
         "carbon_kg", "cost_usd"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        table.addRow(normalized[i].label,
                     {normalized[i].carbon_kg, normalized[i].cost,
                      normalized[i].wait_hours});
        csv.writeRow({rows[i].label,
                      fmt(normalized[i].carbon_kg, 4),
                      fmt(normalized[i].cost, 4),
                      fmt(normalized[i].wait_hours, 4),
                      fmt(rows[i].carbon_kg, 4),
                      fmt(rows[i].cost, 4)});
    }
    table.print(std::cout);

    std::cout << "\nSpot-First-Carbon-Time cost vs Carbon-Time: "
              << fmtPercent(rows[1].cost / rows[0].cost - 1.0)
              << " (paper: ~-17%) at carbon change "
              << fmtPercent(rows[1].carbon_kg /
                                rows[0].carbon_kg - 1.0)
              << " (paper: ~0%)\n"
              << "Spot-RES (9) cost vs Carbon-Time (0): "
              << fmtPercent(rows[3].cost / rows[0].cost - 1.0)
              << " (paper: ~-42%)\n";
    return 0;
}
