/**
 * @file
 * Figure 13 — Normalized carbon and waiting time across the three
 * year-long (100k-job) workload traces in California, US.
 *
 * Shape targets (paper §6.4.1): Wait Awhile achieves the lowest
 * carbon everywhere (max savings ~26% for Mustang, ~19% for
 * Azure); Lowest-Window retains much more of Wait Awhile's savings
 * on Mustang (~68%) than on Azure (~44%) because Mustang's
 * queue-average is representative; Carbon-Time cuts waiting ~20%
 * versus Lowest-Window at comparable carbon.
 */

#include "bench_common.h"

#include "common/table.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 13",
                  "policies across year-long workload traces "
                  "(CA-US)");

    const std::vector<WorkloadSource> sources = {
        WorkloadSource::MustangHpc, WorkloadSource::AlibabaPai,
        WorkloadSource::AzureVm};
    // Cell 0 of each trace's block is the NoWait baseline.
    const std::vector<std::string> policies = {
        "NoWait", "Lowest-Window", "Carbon-Time", "Ecovisor",
        "Wait-Awhile"};

    ScenarioSpec spec;
    spec.carbon = CarbonSpec::forRegion(Region::CaliforniaUS,
                                        bench::yearSlots(), 1);
    SweepEngine sweep;
    for (WorkloadSource source : sources) {
        spec.workload = WorkloadSpec::year(source, 1);
        for (const std::string &policy : policies) {
            spec.policy = policy;
            spec.label = workloadName(source) + " " + policy;
            sweep.add(spec);
        }
    }
    sweep.run();

    TextTable table("Normalized carbon / waiting (per trace, to "
                    "the max across policies)",
                    {"trace", "policy", "carbon", "waiting",
                     "savings vs NoWait"});
    auto csv = bench::openCsv(
        "fig13_workload_traces",
        {"trace", "policy", "norm_carbon", "norm_wait",
         "savings_fraction"});

    for (std::size_t s = 0; s < sources.size(); ++s) {
        const std::size_t first = s * policies.size();
        const SimulationResult &nowait = sweep.result(first).value();
        double max_carbon = 0.0, max_wait = 0.0;
        for (std::size_t p = 1; p < policies.size(); ++p) {
            const SimulationResult &r = sweep.result(first + p).value();
            max_carbon = std::max(max_carbon, r.carbon_kg);
            max_wait = std::max(max_wait, r.meanWaitingHours());
        }
        for (std::size_t p = 1; p < policies.size(); ++p) {
            const SimulationResult &r = sweep.result(first + p).value();
            const double saving = 1.0 - r.carbon_kg / nowait.carbon_kg;
            table.addRow({workloadName(sources[s]), policies[p],
                          fmt(r.carbon_kg / max_carbon, 3),
                          fmt(r.meanWaitingHours() / max_wait, 3),
                          fmtPercent(saving)});
            csv.writeRow({workloadName(sources[s]), policies[p],
                          fmt(r.carbon_kg / max_carbon, 4),
                          fmt(r.meanWaitingHours() / max_wait, 4),
                          fmt(saving, 4)});
        }
    }
    table.print(std::cout);

    std::cout << "\nShape targets: Wait-Awhile saves most "
                 "everywhere; Mustang saves more than Azure; "
                 "Lowest-Window's retention is higher on Mustang "
                 "than on Azure; Carbon-Time waits ~20% less than "
                 "Lowest-Window.\n";
    return 0;
}
