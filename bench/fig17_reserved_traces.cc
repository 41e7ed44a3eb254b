/**
 * @file
 * Figure 17 — Normalized cost and carbon across the year-long
 * traces and four policies in South Australia, with the reserved
 * count R set to each trace's mean demand (paper: Mustang 468,
 * Alibaba 100, Azure 142).
 *
 * Shape targets (paper §6.4.4): AllWait-Threshold is the cheapest
 * and dirtiest; Ecovisor the most expensive; RES-First-Carbon-Time
 * lands within ~9% of AllWait's cost while staying within ~11% of
 * Ecovisor's carbon; Azure (low demand CoV) shows the largest cost
 * savings and smallest carbon reductions, Mustang the opposite.
 */

#include "bench_common.h"

#include "common/table.h"
#include "workload/trace_stats.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 17",
                  "cost/carbon across traces with R = mean demand "
                  "(SA-AU)");

    struct Variant
    {
        std::string label;
        std::string policy;
        ResourceStrategy strategy;
    };
    const std::vector<Variant> variants = {
        {"AllWait-Threshold", "AllWait-Threshold",
         ResourceStrategy::ReservedFirst},
        {"Ecovisor", "Ecovisor", ResourceStrategy::HybridGreedy},
        {"Carbon-Time", "Carbon-Time",
         ResourceStrategy::HybridGreedy},
        {"RES-First-Carbon-Time", "Carbon-Time",
         ResourceStrategy::ReservedFirst},
    };

    // Cells per trace, in variant order, with R = the trace's mean
    // demand.
    const std::vector<WorkloadSource> sources = {
        WorkloadSource::MustangHpc, WorkloadSource::AlibabaPai,
        WorkloadSource::AzureVm};
    ScenarioSpec spec;
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::yearSlots(), 1);
    SweepEngine sweep;
    std::vector<DemandStats> demands;
    for (WorkloadSource source : sources) {
        spec.workload = WorkloadSpec::year(source, 1);
        const JobTrace &trace =
            *sweep.cache().trace(spec.workload).value();
        spec.cluster.reserved_cores =
            static_cast<int>(trace.meanDemand() + 0.5);
        demands.push_back(demandStats(trace));
        for (const Variant &v : variants) {
            spec.policy = v.policy;
            spec.strategy = v.strategy;
            spec.label = workloadName(source) + " " + v.label;
            sweep.add(spec);
        }
    }
    sweep.run();

    TextTable table("Normalized cost / carbon (per trace, to the "
                    "max across policies)",
                    {"trace (R)", "policy", "cost", "carbon"});
    auto csv = bench::openCsv(
        "fig17_reserved_traces",
        {"trace", "reserved", "policy", "norm_cost", "norm_carbon",
         "cost_usd", "carbon_kg"});
    for (std::size_t s = 0; s < sources.size(); ++s) {
        const std::size_t first = s * variants.size();
        double max_cost = 0.0, max_carbon = 0.0;
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const SimulationResult &r = sweep.result(first + i).value();
            max_cost = std::max(max_cost, r.totalCost());
            max_carbon = std::max(max_carbon, r.carbon_kg);
        }
        const std::string name = workloadName(sources[s]);
        const std::string reserved =
            std::to_string(sweep.spec(first).cluster.reserved_cores);
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const SimulationResult &r = sweep.result(first + i).value();
            table.addRow({name + " (" + reserved + ")",
                          variants[i].label,
                          fmt(r.totalCost() / max_cost, 3),
                          fmt(r.carbon_kg / max_carbon, 3)});
            csv.writeRow({name, reserved, variants[i].label,
                          fmt(r.totalCost() / max_cost, 4),
                          fmt(r.carbon_kg / max_carbon, 4),
                          fmt(r.totalCost(), 2), fmt(r.carbon_kg, 2)});
        }
        std::cout << name << ": mean demand "
                  << fmt(demands[s].mean, 1) << " cores, CoV "
                  << fmt(demands[s].cov, 2)
                  << " (paper: Mustang 0.8, Azure 0.3)\n";
    }
    table.print(std::cout);

    std::cout << "\nShape targets: AllWait cheapest/dirtiest, "
                 "Ecovisor most expensive, RES-First-Carbon-Time "
                 "near AllWait's cost at near-Ecovisor carbon; "
                 "Azure saves the most cost, Mustang the most "
                 "carbon.\n";
    return 0;
}
