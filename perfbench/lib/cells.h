/**
 * @file
 * The benchmark's workloads, written as gaia_run flag lines.
 *
 * Every cell is described by the same flags a user would pass to
 * gaia_run, and turned into a ScenarioSpec by the CLI's own parser,
 * so the batch cells, the in-process daemon, and the gaia_serve
 * process the traced run spawns all realize one scenario from one
 * description. The seed enters through --seed
 * (workload, carbon model, cluster and forecast-noise streams) and
 * --fault-seed.
 */

#ifndef PERFBENCH_LIB_CELLS_H
#define PERFBENCH_LIB_CELLS_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "common/status.h"

namespace perfbench {

/** One benchmark workload; see README.md for why each exists. */
struct Workload
{
    std::string name;
    /** gaia_run flags of each batch cell, in sweep order. */
    std::vector<std::vector<std::string>> cells;
    /** The cell also streamed job by job through the engine. */
    std::size_t twin = 0;
    /**
     * gaia_run flags of the scenario served through ServeDaemon and
     * gaia_serve: Carbon-Time, on-demand, the year-long Alibaba
     * trace, for every workload. Serving a faulty scenario is left
     * out because a streamed run of one does not yet reproduce its
     * batch fingerprint (see README.md).
     */
    std::vector<std::string> serve;
};

/** The workload called `name` for `seed`; error if unknown. */
gaia::Result<Workload> makeWorkload(const std::string &name,
                                    std::uint64_t seed);

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** Parse one flag line into the scenario gaia_run would run. */
gaia::Result<gaia::ScenarioSpec>
scenarioFromFlags(const std::vector<std::string> &flags);

/** Every cell of `workload` as a scenario. */
gaia::Result<std::vector<gaia::ScenarioSpec>>
workloadScenarios(const Workload &workload);

} // namespace perfbench

#endif // PERFBENCH_LIB_CELLS_H
