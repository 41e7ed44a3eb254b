/**
 * @file
 * Resilience sweep — carbon savings under injected faults. Sweeps
 * fault intensity for each injector family (carbon-source outages,
 * stale forecasts, forecast spikes, spot revocation storms, and
 * straggler slowdowns) across the policy portfolio and reports how
 * much of the faults-off carbon savings survives. Faults are
 * deterministic per FaultSpec seed, so two runs with the same seed
 * produce byte-identical CSVs (the CI chaos-smoke job diffs them);
 * the fingerprint column makes any divergence visible per cell.
 */

#include "bench_common.h"

#include "common/table.h"
#include "fault/fault_spec.h"
#include "sim/results.h"

using namespace gaia;

namespace {

/** One injector family swept over a shared intensity axis. */
struct FaultAxis
{
    std::string name;
    /** Builds the spec for one intensity point. */
    FaultSpec (*at)(double rate, std::uint64_t seed);
};

FaultSpec
withSeed(std::uint64_t seed)
{
    FaultSpec spec;
    spec.seed = seed;
    return spec;
}

const std::vector<FaultAxis> kAxes = {
    {"outage",
     [](double rate, std::uint64_t seed) {
         FaultSpec spec = withSeed(seed);
         spec.outage_rate = rate;
         return spec;
     }},
    {"stale",
     [](double rate, std::uint64_t seed) {
         FaultSpec spec = withSeed(seed);
         spec.stale_rate = rate;
         return spec;
     }},
    {"spike",
     [](double rate, std::uint64_t seed) {
         FaultSpec spec = withSeed(seed);
         spec.spike_rate = rate;
         return spec;
     }},
    {"storm",
     [](double rate, std::uint64_t seed) {
         FaultSpec spec = withSeed(seed);
         spec.storm_rate = rate;
         return spec;
     }},
    {"straggler",
     [](double rate, std::uint64_t seed) {
         FaultSpec spec = withSeed(seed);
         spec.straggler_rate = rate;
         return spec;
     }},
};

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t fault_seed = 1;
    bench::parseBenchArgs(argc, argv,
                          {seedRow("--fault-seed", fault_seed, "")});
    bench::banner("Resilience",
                  "carbon savings vs fault intensity (week-long "
                  "Alibaba-PAI, SA-AU, Spot-First)");

    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);
    // Spot-First so revocation storms have spot capacity to strike;
    // the CIS fault families are strategy-agnostic.
    base.strategy = ResourceStrategy::SpotFirst;
    base.cluster.spot_eviction_rate = 0.05;

    const std::vector<std::string> policies = {
        "NoWait", "Wait-Awhile", "Lowest-Window", "Carbon-Time"};
    const std::vector<double> intensities = {0.05, 0.15, 0.3};

    // Cell layout: for each policy, one faults-off baseline then
    // every (axis, intensity) pair.
    SweepEngine sweep;
    const std::size_t per_policy = 1 + kAxes.size() *
                                       intensities.size();
    std::vector<std::size_t> cells;
    cells.reserve(policies.size() * per_policy);
    for (const std::string &policy : policies) {
        ScenarioSpec off = base;
        off.policy = policy;
        off.label = policy + " faults-off";
        cells.push_back(sweep.add(std::move(off)));
        for (const FaultAxis &axis : kAxes) {
            for (double rate : intensities) {
                ScenarioSpec spec = base;
                spec.policy = policy;
                spec.fault = axis.at(rate, fault_seed);
                spec.label = policy + " " + axis.name + "=" +
                             fmt(rate, 2);
                cells.push_back(sweep.add(std::move(spec)));
            }
        }
    }
    sweep.run();

    const auto cell = [&](std::size_t pi,
                          std::size_t offset) -> const auto & {
        return sweep.result(cells[pi * per_policy + offset])
            .value();
    };

    auto csv = bench::openCsv(
        "resilience_sweep",
        {"fault", "intensity", "policy", "carbon_kg", "savings",
         "mean_wait_h", "evictions", "fingerprint"});
    TextTable table("Carbon savings vs fault intensity",
                    {"fault@rate", "NoWait", "Wait-Awhile",
                     "Lowest-Window", "Carbon-Time"});
    const auto emit = [&](const std::string &axis,
                          const std::string &intensity,
                          std::size_t offset) {
        std::vector<double> row;
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            const SimulationResult &r = cell(pi, offset);
            const SimulationResult &nowait_off = cell(0, 0);
            const double savings =
                1.0 - r.carbon_kg / nowait_off.carbon_kg;
            row.push_back(savings);
            csv.writeRow({axis, intensity, policies[pi],
                          fmt(r.carbon_kg, 6), fmt(savings, 4),
                          fmt(r.meanWaitingHours(), 4),
                          std::to_string(r.eviction_count),
                          std::to_string(resultFingerprint(r))});
        }
        table.addRow(axis + " " + intensity, row);
    };

    emit("none", "0.00", 0);
    for (std::size_t ai = 0; ai < kAxes.size(); ++ai) {
        for (std::size_t ii = 0; ii < intensities.size(); ++ii) {
            emit(kAxes[ai].name, fmt(intensities[ii], 2),
                 1 + ai * intensities.size() + ii);
        }
    }
    table.print(std::cout);

    std::cout
        << "\nExpectation: savings degrade gracefully with fault "
           "intensity. Outages push carbon-aware policies toward "
           "the NoWait fallback (degraded slots in the metrics), "
           "stale/spike forecasts erode savings without erasing "
           "them, and storms/stragglers cost work and waiting but "
           "leave the carbon ranking intact.\n\n";
    sweep.printSummary(std::cout);
    return 0;
}
