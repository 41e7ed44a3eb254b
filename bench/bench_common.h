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
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/sweep.h"
#include "common/csv.h"
#include "common/executor.h"
#include "common/logging.h"
#include "common/obs.h"
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

/** Observability sinks requested on the bench command line;
 *  written once at process exit. */
struct ObsSinkConfig
{
    std::string metrics_out;
    std::string trace_out;
    bool verbose = false;
};

inline ObsSinkConfig &
obsSinkConfig()
{
    static ObsSinkConfig config;
    return config;
}

/**
 * atexit hook writing the requested observability sinks. Registered
 * while parsing flags, i.e. before the lazily started executor
 * singleton exists, so exit-time ordering joins the workers (and
 * flushes their counters) before the snapshot is taken.
 */
inline void
writeObsSinksAtExit()
{
    const ObsSinkConfig &config = obsSinkConfig();
    if (!config.metrics_out.empty())
        obs::writeMetricsJson(config.metrics_out);
    if (!config.trace_out.empty())
        obs::writeTraceJson(config.trace_out);
    if (config.verbose)
        obs::printMetricsSummary(std::cout,
                                 obs::metricsSnapshot());
}

/** Print `argv0: message` and exit with the usage-error code 2. */
[[noreturn]] inline void
usageError(const char *argv0, const std::string &message)
{
    std::cerr << argv0 << ": " << message << "\n";
    std::exit(2);
}

/** Parse an integer flag value; a malformed one is a usage error. */
inline std::int64_t
intFlagValue(const char *argv0, const std::string &flag,
             const std::string &value)
{
    const Result<std::int64_t> n = tryParseInt(value, flag);
    if (!n.isOk())
        usageError(argv0, n.status().message());
    return n.value();
}

/**
 * Parse the shared bench flags: `--threads N` caps parallelFor's
 * worker count (overriding GAIA_THREADS), `--metrics-out PATH` /
 * `--trace-out PATH` write the metrics snapshot / Chrome trace JSON
 * at process exit, and `--verbose` prints the metrics summary table
 * at exit. Flags also accept the `--flag=value` spelling.
 *
 * `extra` names the bench's own flags: "--flag" for a switch,
 * "--flag=" for one that takes a value. Their values come back
 * keyed by flag name ("" for a switch). Anything else — an unknown
 * flag, a stray word, a missing or malformed value — prints one
 * line to stderr and exits with code 2.
 */
inline std::map<std::string, std::string>
parseBenchArgs(int argc, char **argv,
               std::initializer_list<std::string_view> extra = {})
{
    const std::vector<std::string> args = expandEqualsArgs(
        std::vector<std::string>(argv + 1, argv + argc));
    const auto need_value = [&](std::size_t i,
                                const std::string &flag) {
        if (i + 1 >= args.size())
            usageError(argv[0], flag + " needs a value");
        return args[i + 1];
    };
    std::map<std::string, std::string> extras;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--threads") {
            const std::string value = need_value(i++, arg);
            const std::int64_t n = intFlagValue(argv[0], arg, value);
            if (n <= 0 || n > std::numeric_limits<unsigned>::max())
                usageError(argv[0], "--threads expects a positive "
                                    "integer, got '" +
                                        value + "'");
            setParallelThreads(static_cast<unsigned>(n));
        } else if (arg == "--metrics-out" || arg == "--trace-out" ||
                   arg == "--verbose") {
            ObsSinkConfig &config = obsSinkConfig();
            const bool first_use = config.metrics_out.empty() &&
                                   config.trace_out.empty() &&
                                   !config.verbose;
            if (arg == "--verbose")
                config.verbose = true;
            else if (arg == "--metrics-out")
                config.metrics_out = need_value(i++, arg);
            else
                config.trace_out = need_value(i++, arg);
            if (first_use)
                std::atexit(writeObsSinksAtExit);
            obs::setDetailedTiming(true);
            obs::setThreadTrackName("main");
            if (!config.trace_out.empty())
                obs::setTracingEnabled(true);
        } else if (std::find(extra.begin(), extra.end(), arg) !=
                   extra.end()) {
            extras[arg] = "";
        } else if (std::find(extra.begin(), extra.end(), arg + "=") !=
                   extra.end()) {
            extras[arg] = need_value(i++, arg);
        } else {
            usageError(argv[0], "unknown argument '" + arg + "'");
        }
    }
    return extras;
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

/**
 * Minimal ordered JSON emitter for BENCH_*.json machine-readable
 * bench reports: flat top-level fields plus one level of named
 * sections, written in insertion order so diffs stay readable.
 */
class JsonReport
{
  public:
    void set(const std::string &key, double value)
    {
        fields_.emplace_back(key, number(value));
    }

    void set(const std::string &key, const std::string &value)
    {
        fields_.emplace_back(key, quote(value));
    }

    /** Set `key` inside section `name` (created on first use). */
    void setIn(const std::string &name, const std::string &key,
               double value)
    {
        sectionFor(name).emplace_back(key, number(value));
    }

    void writeTo(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        if (!out.good()) {
            std::cerr << "cannot write " << path << "\n";
            return;
        }
        out << "{\n";
        bool first = true;
        for (const auto &[key, value] : fields_) {
            out << (first ? "" : ",\n") << "  " << quote(key)
                << ": " << value;
            first = false;
        }
        for (const auto &[name, fields] : sections_) {
            out << (first ? "" : ",\n") << "  " << quote(name)
                << ": {\n";
            first = false;
            for (std::size_t i = 0; i < fields.size(); ++i) {
                out << "    " << quote(fields[i].first) << ": "
                    << fields[i].second
                    << (i + 1 < fields.size() ? ",\n" : "\n");
            }
            out << "  }";
        }
        out << "\n}\n";
        std::cout << "Wrote " << path << "\n";
    }

  private:
    using Fields =
        std::vector<std::pair<std::string, std::string>>;

    static std::string number(double value)
    {
        std::ostringstream oss;
        oss.precision(6);
        oss << value;
        return oss.str();
    }

    static std::string quote(const std::string &text)
    {
        std::string out = "\"";
        for (char c : text) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += '"';
        return out;
    }

    Fields &sectionFor(const std::string &name)
    {
        for (auto &[existing, fields] : sections_) {
            if (existing == name)
                return fields;
        }
        sections_.emplace_back(name, Fields{});
        return sections_.back().second;
    }

    Fields fields_;
    std::vector<std::pair<std::string, Fields>> sections_;
};

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
