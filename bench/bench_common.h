/**
 * @file
 * Shared plumbing for the figure-reproduction binaries: the shared
 * flag parser, both ways a bench runs simulations (a SweepEngine
 * over ScenarioSpecs, or runChecked() for a cell a spec cannot
 * express), a results directory for CSV output, and small
 * formatting helpers. Each bench prints the paper's rows/series as
 * aligned tables and mirrors them into bench_results/<name>.csv for
 * external plotting.
 */

#ifndef GAIA_BENCH_BENCH_COMMON_H
#define GAIA_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.h"
#include "cli/options.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace gaia::bench {

/**
 * Run a simulation through the checked API; a bench dies with the
 * status message on an inconsistent setup (its inputs are code, so
 * an error here is a bench bug, not user input).
 */
inline SimulationResult
runChecked(const JobTrace &trace, const SchedulingPolicy &policy,
           const QueueConfig &queues, const CarbonInfoSource &cis,
           const ClusterConfig &cluster = {},
           ResourceStrategy strategy = ResourceStrategy::OnDemandOnly)
{
    const Result<SimulationSetup> setup = SimulationSetup::Builder()
                                              .trace(trace)
                                              .policy(policy)
                                              .queues(queues)
                                              .cis(cis)
                                              .cluster(cluster)
                                              .strategy(strategy)
                                              .build();
    if (!setup.isOk())
        fatal("simulation setup rejected: ",
              setup.status().message());
    Result<SimulationResult> result = simulateChecked(*setup);
    if (!result.isOk())
        fatal("simulation failed: ", result.status().message());
    return std::move(result).value();
}

/** Directory for CSV mirrors (override with GAIA_RESULTS_DIR). */
inline std::string
resultsDir()
{
    const char *env = std::getenv("GAIA_RESULTS_DIR");
    const std::string dir = env ? env : "bench_results";
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Parse a bench's flags: the shared flags (see addSharedFlagRows)
 * plus the bench's own `rows`, through the walker gaia_run uses. A
 * bad argument or an unwritable sink path prints one line to stderr
 * and exits with code 2; the results directory exists by the time
 * the sink paths are checked. Requested sinks are written at process
 * exit; a sink that cannot be written then also exits 2.
 */
inline void
parseBenchArgs(int argc, char **argv, FlagTable rows = {})
{
    // Static: the exit hook reads them after main returns.
    static SharedFlags flags;
    static const std::string program = argv[0];
    addSharedFlagRows(rows, flags);
    Status status = walkFlags(
        std::vector<std::string>(argv + 1, argv + argc), rows);
    if (status.isOk()) {
        // Made first, so a sink path inside it passes the check.
        resultsDir();
        status = applySharedFlags(flags);
    }
    if (!status.isOk()) {
        std::cerr << program << ": " << status.message() << "\n";
        std::exit(2);
    }
    if (flags.metrics_out.empty() && flags.trace_out.empty() &&
        !flags.verbose)
        return;
    // Registered before the lazily started executor singleton
    // exists, so exit-time ordering joins the workers (and flushes
    // their counters) before the sinks are written. std::exit must
    // not run inside an exit hook, so a failed write flushes what
    // the bench printed and leaves through std::_Exit.
    std::atexit([] {
        const Status written = writeObsSinks(flags, std::cout);
        if (written.isOk())
            return;
        std::cerr << program << ": " << written.message() << "\n";
        std::cout.flush();
        std::fflush(nullptr);
        std::_Exit(2);
    });
}

/** Open a CSV mirror for one experiment output. */
inline CsvWriter
openCsv(const std::string &name, std::vector<std::string> header)
{
    return CsvWriter(resultsDir() + "/" + name + ".csv",
                     std::move(header));
}

/** Banner naming the paper artifact being regenerated. */
inline void
banner(const std::string &figure, const std::string &description)
{
    std::cout << "\n########################################"
                 "########################\n"
              << "# " << figure << ": " << description << "\n"
              << "########################################"
                 "########################\n";
}

/** Hourly slot count for a year-long run plus scheduling margin. */
inline std::size_t
yearSlots()
{
    return static_cast<std::size_t>(kHoursPerYear) + 24 * 8;
}

/** Hourly slot count for a week-long run plus margin. */
inline std::size_t
weekSlots()
{
    return 24 * (7 + 6);
}

} // namespace gaia::bench

#endif // GAIA_BENCH_BENCH_COMMON_H
