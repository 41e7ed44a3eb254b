/**
 * @file
 * Command-line options for gaia_run, gaia_serve and the benches.
 *
 * gaia_run mirrors the original artifact's run.py interface (policy
 * selection, waiting-time pair "-w 6x24", cluster configuration,
 * trace selection) while adding CSV input/output paths so real
 * ElectricityMaps dumps and production job traces drop in.
 * gaia_serve takes the same scenario flags, and every binary takes
 * the same SharedFlags. All of them read argv through walkFlags, a
 * table of FlagRows, so they accept and reject the same inputs.
 */

#ifndef GAIA_CLI_OPTIONS_H
#define GAIA_CLI_OPTIONS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "sim/cluster.h"

namespace gaia {

/**
 * Longest duration any flag may ask for (100 years, in hours):
 * --span-days, --spot-max-hours, -w, --startup-overhead-min and
 * --fault-backoff-min all convert to whole Seconds, so this keeps
 * the conversion in range.
 */
constexpr double kMaxDurationHours = 100.0 * 365 * 24;

/**
 * Most jobs --jobs may ask for: 100x the paper's 100k-job sampled
 * traces. It keeps the synthesizer's up-front reservation and its
 * attempt cap (1000 draws per job) far from overflow.
 */
constexpr std::int64_t kMaxJobs = 10'000'000;

/**
 * Flags every binary shares: the worker count and the observability
 * sinks. Set them up with applySharedFlags and write the sinks with
 * writeObsSinks.
 */
struct SharedFlags
{
    /** Worker threads for parallel sweeps (0 = auto-detect). A
     *  gaia_run or gaia_serve process runs one cell, so this does
     *  not change its work. */
    unsigned threads = 0;
    /** Metrics-snapshot JSON sink ("" = disabled). */
    std::string metrics_out;
    /** Chrome/Perfetto trace JSON sink ("" = disabled). */
    std::string trace_out;
    /** Print the metrics summary table when the sinks are written. */
    bool verbose = false;
};

/** Parsed gaia_run configuration (gaia_serve's scenario, too). */
struct CliOptions : SharedFlags
{
    /** Built-in workload ("alibaba", "azure", "mustang",
     *  "motivating") — ignored when workload_csv is set. */
    std::string workload = "alibaba";
    /** Path to a JobTrace CSV (id, submit, length, cpus). */
    std::string workload_csv;
    /** Jobs to synthesize for built-in workloads. */
    std::size_t jobs = 1000;
    /** Arrival span in days for built-in workloads. */
    double span_days = 7.0;
    /**
     * Apply the paper's §6.1 pipeline to workload_csv: replicate
     * the source to cover span_days, filter, and sample `jobs`
     * arrivals (requires workload_csv). Off by default: the CSV is
     * replayed as-is.
     */
    bool resample = false;

    /** Built-in region label (e.g. "SA-AU") — ignored when
     *  carbon_csv is set. */
    std::string region = "SA-AU";
    /** Path to a CarbonTrace CSV (hour, carbon_intensity). */
    std::string carbon_csv;

    /** Scheduling policy name (see makePolicy). */
    std::string policy = "Carbon-Time";
    /**
     * Elastic-scaling profile applied to every job ("" or "off" =
     * fixed-width jobs; see parseElasticProfile for the grammar,
     * e.g. "linear:max=4" or "diminishing:max=8,alpha=0.7").
     */
    std::string elastic_profile;
    /** Resource strategy: "on-demand", "hybrid", "res-first",
     *  "spot-first", or "spot-res". */
    std::string strategy = "on-demand";

    /** Reserved cores. */
    int reserved = 0;
    /** Spot per-hour eviction probability. */
    double eviction_rate = 0.0;
    /** Spot length bound, hours. */
    double spot_max_hours = 2.0;
    /** Maximum waiting, "SHORTxLONG" hours (artifact's -w 6x24). */
    Seconds short_wait = 6 * kSecondsPerHour;
    Seconds long_wait = 24 * kSecondsPerHour;

    /** CIS forecast noise sigma (0 = perfect forecasts). */
    double forecast_noise = 0.0;
    /** Forecast source: "oracle" (default), "persistence", or
     *  "profile". */
    std::string forecaster = "oracle";
    /** Per-acquisition instance startup overhead, minutes. */
    double startup_overhead_min = 0.0;
    /** Idle reserved power as a fraction of busy power. */
    double idle_power_fraction = 0.0;

    /** RNG seed for trace synthesis and evictions. */
    std::uint64_t seed = 1;

    /**
     * Fault-injection clauses, ';'-joined across repeated --fault
     * flags (e.g. "outage:rate=0.05,hours=2;storm:rate=0.1"); ""
     * disables injection (see FaultSpec::merge).
     */
    std::string fault;
    /** Fault-decision hash seed (independent of --seed). */
    std::uint64_t fault_seed = 1;
    /** Carbon-source retry budget of the degradation ladder. */
    std::uint32_t fault_retries = 3;
    /** First retry backoff, minutes (doubles per attempt). */
    double fault_backoff_min = 5.0;
    /** Post-eviction spot re-attempts under the storm model. */
    std::uint32_t fault_spot_retries = 3;

    /** Output directory for aggregate/details/allocation CSVs. */
    std::string output_dir = "gaia_results";

    /** Also write the realized workload trace as a JobTrace CSV
     *  ("" = disabled) — the stream a serve client replays. */
    std::string export_workload;
    /** Print `fingerprint <hex>` after the run (the parity oracle
     *  against a drained gaia_serve daemon). */
    bool print_fingerprint = false;

    /** Resolved strategy enum; NotFound on an unknown name. */
    Result<ResourceStrategy> resolvedStrategy() const;
};

/** gaia_serve's own flags (see serve::ServeConfig). */
struct ServeFlags
{
    /** AF_UNIX control socket path. */
    std::string socket = "gaia_serve.sock";
    /** Virtual seconds per wall second; 0 = unpaced. */
    double accel = 1000.0;
    /** Submission-queue slots before backpressure. */
    std::size_t queue_capacity = 1 << 16;
};

/** What a successful option parse asks the driver to do. */
enum class CliAction
{
    Run,          ///< run the simulation
    ShowHelp,     ///< print usage and exit 0
    ListPolicies, ///< print policy names and exit 0
};

/**
 * One flag a binary accepts: its spellings, whether it takes a
 * value, what the value does, and its usage line. A row without
 * names is a usage heading and matches nothing.
 */
struct FlagRow
{
    enum class Kind
    {
        Value,  ///< `--flag V` or `--flag=V`
        Switch, ///< no value
        Stop,   ///< no value; ends the walk (e.g. --help)
    };

    std::vector<std::string> names;
    Kind kind = Kind::Value;
    /** Applies the value ("" for a switch); an error aborts the
     *  walk. */
    std::function<Status(const std::string &)> apply;
    /** Usage text for this row, newline-terminated. */
    std::string help;
};

using FlagTable = std::vector<FlagRow>;

/**
 * The one argv walker. Accepts `--flag value` and `--flag=value`
 * (split at the first '='), applies each row in argv order, and
 * returns the first error: an unknown argument, a missing value, or
 * whatever the row's apply rejects. Every message is one line that
 * names the flag.
 */
Status walkFlags(const std::vector<std::string> &args,
                 const FlagTable &rows);

/** A seed flag: any unsigned 64-bit integer. */
FlagRow seedRow(std::string name, std::uint64_t &seed,
                std::string help);

/** Append the --threads, --metrics-out, --trace-out and --verbose
 *  rows, which write into `flags`. */
void addSharedFlagRows(FlagTable &rows, SharedFlags &flags);

/**
 * Set up what the shared flags ask for: the worker count, detailed
 * timing when any sink or --verbose is given, and tracing when
 * --trace-out is. Each sink path is opened for writing here, so an
 * unwritable one fails before any work runs.
 */
Status applySharedFlags(const SharedFlags &flags);

/**
 * Write the requested sinks, and the metrics summary to `out` under
 * --verbose. Returns an error naming the first sink that could not
 * be written.
 */
Status writeObsSinks(const SharedFlags &flags, std::ostream &out);

/**
 * Parse gaia_run's argv into options. Malformed input (unknown
 * flag, missing or out-of-range value) yields an error Status whose
 * one-line message is ready to print; --help / --list-policies
 * short-circuit to their CliAction without validating the rest.
 */
Result<CliAction> parseCliOptions(const std::vector<std::string> &args,
                                  CliOptions &options);

/**
 * Parse gaia_serve's argv: its own flags, the scenario flags and the
 * shared flags. gaia_run's output-only flags are unknown here.
 */
Result<CliAction> parseServeOptions(const std::vector<std::string> &args,
                                    CliOptions &options,
                                    ServeFlags &serve);

/** gaia_run usage text for --help. */
std::string cliUsage();

/** gaia_serve usage text for --help. */
std::string serveUsage();

/** Parse the artifact-style waiting pair "6x24" (hours). */
Status parseWaitingSpec(const std::string &spec, Seconds &short_wait,
                        Seconds &long_wait);

} // namespace gaia

#endif // GAIA_CLI_OPTIONS_H
