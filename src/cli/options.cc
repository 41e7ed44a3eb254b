#include "cli/options.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>

#include "common/executor.h"
#include "common/obs.h"
#include "common/strings.h"
#include "workload/elastic_profile.h"

namespace gaia {

namespace {

using Kind = FlagRow::Kind;

/** Largest gaia_serve --accel (virtual seconds per wall second). */
constexpr double kMaxAccel = 1e9;
/** Largest gaia_serve --queue-capacity (slots; 16x the default). */
constexpr std::int64_t kMaxQueueCapacity = std::int64_t{1} << 20;

/** A usage heading; matches no argument. */
FlagRow
heading(const std::string &title)
{
    return {{}, Kind::Switch, nullptr, "\n" + title + ":\n"};
}

FlagRow
textRow(std::string name, std::string &target, std::string help)
{
    return {{std::move(name)}, Kind::Value,
            [&target](const std::string &v) {
                target = v;
                return Status::ok();
            },
            std::move(help)};
}

FlagRow
switchRow(std::string name, bool &target, std::string help)
{
    return {{std::move(name)}, Kind::Switch,
            [&target](const std::string &) {
                target = true;
                return Status::ok();
            },
            std::move(help)};
}

FlagRow
stopRow(std::vector<std::string> names, CliAction &action,
        CliAction value, std::string help)
{
    return {std::move(names), Kind::Stop,
            [&action, value](const std::string &) {
                action = value;
                return Status::ok();
            },
            std::move(help)};
}

/** Smallest double above zero: the lower bound of a "positive"
 *  row. */
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/** How an error words [lo, hi], e.g. "positive and at most 1024".
 *  Every row starts at zero or just above it (kPositive, or 1 for
 *  an integer); a row without a ceiling (hi = DBL_MAX) reads
 *  "finite". */
std::string
rangeText(double lo, double hi)
{
    const std::string low = lo == 0.0 ? "non-negative" : "positive";
    if (hi == std::numeric_limits<double>::max())
        return "finite and " + low;
    return low + " and at most " + fmt(hi, 0);
}

/** An integer flag in [lo, hi]. */
template <typename T>
FlagRow
intRow(std::string name, T &target, std::int64_t lo, std::int64_t hi,
       std::string help)
{
    return {{name}, Kind::Value,
            [&target, name, lo, hi](const std::string &v) -> Status {
                GAIA_TRY_ASSIGN(const std::int64_t n,
                                tryParseInt(v, name));
                GAIA_REQUIRE(n >= lo && n <= hi, name, " must be ",
                             rangeText(static_cast<double>(lo),
                                       static_cast<double>(hi)),
                             ", got ", n);
                target = static_cast<T>(n);
                return Status::ok();
            },
            std::move(help)};
}

/** A finite floating-point flag in [lo, hi]. */
FlagRow
doubleRow(std::string name, double &target, double lo, double hi,
          std::string help)
{
    return {{name}, Kind::Value,
            [&target, name, lo, hi](const std::string &v) -> Status {
                GAIA_TRY_ASSIGN(const double x, tryParseDouble(v, name));
                GAIA_REQUIRE(std::isfinite(x) && x >= lo && x <= hi,
                             name, " must be ", rangeText(lo, hi),
                             ", got '", v, "'");
                target = x;
                return Status::ok();
            },
            std::move(help)};
}

/**
 * Open `path` for writing and run `write` on it; "" is a disabled
 * sink. `flag` names the sink in the error.
 */
Status
writeSink(const char *flag, const std::string &path,
          const std::function<void(std::ostream &)> &write)
{
    if (path.empty())
        return Status::ok();
    std::ofstream out(path);
    if (out)
        write(out);
    out.flush();
    GAIA_REQUIRE(out.good(), "cannot write ", flag, " file '", path,
                 "'");
    return Status::ok();
}

/** Rows describing the scenario: what gaia_run simulates and what
 *  gaia_serve streams. */
void
addScenarioRows(FlagTable &rows, CliOptions &o)
{
    const double max_days = kMaxDurationHours / 24;
    const double max_minutes = kMaxDurationHours * 60;
    rows.insert(
        rows.end(),
        {heading("Workload (pick one)"),
         {{"--workload"},
          Kind::Value,
          [&o](const std::string &v) {
              o.workload = toLower(v);
              return Status::ok();
          },
          "  --workload NAME       alibaba | azure | mustang | "
          "motivating (default alibaba)\n"},
         textRow("--workload-csv", o.workload_csv,
                 "  --workload-csv PATH   JobTrace CSV "
                 "(id,submit,length,cpus)\n"),
         switchRow("--resample", o.resample,
                   "  --resample            apply the paper's "
                   "sampling pipeline to the CSV\n"
                   "                        (replicate to span, "
                   "filter, sample --jobs arrivals)\n"),
         intRow("--jobs", o.jobs, 1, kMaxJobs,
                "  --jobs N              synthesized job count "
                "(default 1000)\n"),
         doubleRow("--span-days", o.span_days, kPositive, max_days,
                   "  --span-days D         synthesized arrival span "
                   "(default 7)\n"),

         heading("Carbon intensity (pick one)"),
         textRow("--region", o.region,
                 "  --region NAME         SA-AU | ON-CA | CA-US | NL | "
                 "KY-US | SE | TX-US (default SA-AU)\n"),
         textRow("--carbon-csv", o.carbon_csv,
                 "  --carbon-csv PATH     CarbonTrace CSV "
                 "(hour,carbon_intensity)\n"),

         heading("Scheduling"),
         textRow("--policy", o.policy,
                 "  --policy NAME         NoWait | AllWait-Threshold | "
                 "Wait-Awhile | Ecovisor |\n"
                 "                        Lowest-Slot | Lowest-Window | "
                 "Carbon-Time (default)\n"),
         textRow("--scaling-policy", o.policy,
                 "  --scaling-policy NAME Elastic-NoWait | "
                 "Carbon-Scaler (elastic family; alias for --policy)\n"),
         textRow("--elastic-profile", o.elastic_profile,
                 "  --elastic-profile SPEC  per-job scaling profile: "
                 "off (default) |\n"
                 "                        linear:max=K[,min=M] | "
                 "diminishing:max=K,alpha=A[,min=M] |\n"
                 "                        list:rates=R0+R1+...[,min=M]\n"),
         textRow("--strategy", o.strategy,
                 "  --strategy NAME       on-demand (default) | hybrid | "
                 "res-first | spot-first | spot-res\n"),
         {{"-w", "--waiting"},
          Kind::Value,
          [&o](const std::string &v) {
              return parseWaitingSpec(v, o.short_wait, o.long_wait);
          },
          "  -w, --waiting SxL     max waiting hours, short x long "
          "(default 6x24)\n"},
         doubleRow("--forecast-noise", o.forecast_noise, 0.0,
                   std::numeric_limits<double>::max(),
                   "  --forecast-noise F    CIS forecast error sigma "
                   "(default 0)\n"),
         {{"--forecaster"},
          Kind::Value,
          [&o](const std::string &v) {
              o.forecaster = toLower(v);
              GAIA_REQUIRE(o.forecaster == "oracle" ||
                               o.forecaster == "persistence" ||
                               o.forecaster == "profile",
                           "unknown forecaster '", o.forecaster,
                           "'; expected oracle, persistence, or "
                           "profile");
              return Status::ok();
          },
          "  --forecaster NAME     oracle (default) | persistence | "
          "profile\n"},

         heading("Cluster"),
         intRow("--reserved", o.reserved, 0, INT_MAX,
                "  --reserved N          reserved cores (default 0)\n"),
         doubleRow("--eviction-rate", o.eviction_rate, 0.0, 1.0,
                   "  --eviction-rate F     spot eviction probability "
                   "per hour (default 0)\n"),
         doubleRow("--spot-max-hours", o.spot_max_hours, 0.0,
                   kMaxDurationHours,
                   "  --spot-max-hours H    spot length bound "
                   "(default 2)\n"),
         doubleRow("--startup-overhead-min", o.startup_overhead_min,
                   0.0, max_minutes,
                   "  --startup-overhead-min M  per-acquisition "
                   "instance overhead (default 0)\n"),
         doubleRow("--idle-power-fraction", o.idle_power_fraction, 0.0,
                   1.0,
                   "  --idle-power-fraction F   idle reserved power "
                   "share (default 0)\n"),

         heading("Fault injection (off unless --fault is given)"),
         {{"--fault"},
          Kind::Value,
          [&o](const std::string &v) {
              // Repeated flags accumulate clauses; FaultSpec::merge
              // validates the combined spec at run time.
              o.fault += (o.fault.empty() ? "" : ";") + v;
              return Status::ok();
          },
          "  --fault SPEC          fault clauses 'kind:key=val,...' "
          "joined by ';', e.g.\n"
          "                        "
          "'outage:rate=0.05,hours=2;storm:rate=0.1'; kinds: outage,\n"
          "                        stale, spike, gap, storm, "
          "straggler, delay; repeatable\n"},
         seedRow("--fault-seed", o.fault_seed,
                 "  --fault-seed S        fault-decision hash seed "
                 "(default 1)\n"),
         intRow("--fault-retries", o.fault_retries, 0, 16,
                "  --fault-retries N     carbon-source retries before "
                "degrading (default 3)\n"),
         doubleRow("--fault-backoff-min", o.fault_backoff_min,
                   kPositive, max_minutes,
                   "  --fault-backoff-min M first retry backoff, "
                   "minutes; doubles per attempt (default 5)\n"),
         intRow("--fault-spot-retries", o.fault_spot_retries, 0, 16,
                "  --fault-spot-retries N  spot re-attempts after a "
                "storm eviction (default 3)\n"),

         heading("Reproducibility"),
         seedRow("--seed", o.seed,
                 "  --seed S              RNG seed (default 1)\n")});
}

/** Checks across flags, run after the walk. */
Status
checkScenario(const CliOptions &options)
{
    GAIA_TRY(options.resolvedStrategy());
    GAIA_TRY(parseElasticProfile(options.elastic_profile));
    GAIA_REQUIRE(!options.resample || !options.workload_csv.empty(),
                 "--resample requires --workload-csv");
    // A job's longest carbon-source stall: backoff, 2x, 4x, ...
    const double max_stall_min =
        options.fault_backoff_min *
        static_cast<double>((1u << options.fault_retries) - 1);
    GAIA_REQUIRE(max_stall_min <= kMaxDurationHours * 60,
                 "--fault-backoff-min times (2^--fault-retries - 1) "
                 "must be at most ",
                 fmt(kMaxDurationHours * 60, 0), " minutes, got ",
                 fmt(max_stall_min, 0));
    if (options.workload_csv.empty()) {
        const std::string w = options.workload;
        GAIA_REQUIRE(w == "alibaba" || w == "azure" ||
                         w == "mustang" || w == "motivating",
                     "unknown workload '", options.workload,
                     "'; expected alibaba, azure, mustang, or "
                     "motivating");
    }
    return Status::ok();
}

FlagTable
runTable(CliOptions &o, CliAction &action)
{
    FlagTable rows;
    addScenarioRows(rows, o);
    addSharedFlagRows(rows, o);
    rows.insert(
        rows.end(),
        {heading("Output"),
         textRow("--output-dir", o.output_dir,
                 "  --output-dir DIR      CSV output directory "
                 "(default gaia_results)\n"),
         textRow("--export-workload", o.export_workload,
                 "  --export-workload PATH  also write the realized "
                 "job trace as CSV\n"
                 "                        (the stream a gaia_serve "
                 "client replays)\n"),
         switchRow("--print-fingerprint", o.print_fingerprint,
                   "  --print-fingerprint   print 'fingerprint <hex>' "
                   "after the run (parity\n"
                   "                        oracle against a drained "
                   "gaia_serve daemon)\n"),
         stopRow({"--list-policies"}, action, CliAction::ListPolicies,
                 "  --list-policies       print policy names and "
                 "exit\n"),
         stopRow({"-h", "--help"}, action, CliAction::ShowHelp,
                 "  -h, --help            this text\n")});
    return rows;
}

FlagTable
serveTable(CliOptions &o, ServeFlags &serve, CliAction &action)
{
    FlagTable rows = {
        heading("Serving"),
        textRow("--socket", serve.socket,
                "  --socket PATH         AF_UNIX control socket path "
                "(default gaia_serve.sock)\n"),
        doubleRow("--accel", serve.accel, 0.0, kMaxAccel,
                  "  --accel F             virtual seconds per wall "
                  "second; 0 = unpaced (default 1000)\n"),
        intRow("--queue-capacity", serve.queue_capacity, 1,
               kMaxQueueCapacity,
               "  --queue-capacity N    submission-queue slots before "
               "backpressure (default 65536)\n"),
        stopRow({"-h", "--help"}, action, CliAction::ShowHelp,
                "  -h, --help            this text\n")};
    addScenarioRows(rows, o);
    addSharedFlagRows(rows, o);
    return rows;
}

/** Walk `rows`, then cross-check a Run; `action` is what the
 *  table's stop rows set. */
Result<CliAction>
parseTable(const std::vector<std::string> &args, const FlagTable &rows,
           const CliAction &action, const CliOptions &options)
{
    GAIA_TRY(walkFlags(args, rows));
    if (action != CliAction::Run)
        return action;
    GAIA_TRY(checkScenario(options));
    return CliAction::Run;
}

/** Usage text of a table: its rows' help, in order. */
std::string
flagUsage(const FlagTable &rows)
{
    std::string usage;
    for (const FlagRow &row : rows)
        usage += row.help;
    return usage;
}

const char *const kEqualsNote =
    "\nFlags that take a value also accept the = spelling, e.g. "
    "--jobs=500.\n";

} // namespace

Status
walkFlags(const std::vector<std::string> &raw_args,
          const FlagTable &rows)
{
    // Split "--flag=value" at the first '=' into the two-word form.
    std::vector<std::string> args;
    for (const std::string &arg : raw_args) {
        const std::size_t eq = arg.find('=');
        if (startsWith(arg, "--") && eq != std::string::npos) {
            args.push_back(arg.substr(0, eq));
            args.push_back(arg.substr(eq + 1));
        } else {
            args.push_back(arg);
        }
    }

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto row = std::find_if(
            rows.begin(), rows.end(), [&](const FlagRow &r) {
                return std::find(r.names.begin(), r.names.end(),
                                 arg) != r.names.end();
            });
        GAIA_REQUIRE(row != rows.end(), "unknown argument '", arg,
                     "'");
        if (row->kind == Kind::Value) {
            GAIA_REQUIRE(i + 1 < args.size(), "missing value for ",
                         arg);
            GAIA_TRY(row->apply(args[++i]));
            continue;
        }
        GAIA_TRY(row->apply(""));
        if (row->kind == Kind::Stop)
            break;
    }
    return Status::ok();
}

FlagRow
seedRow(std::string name, std::uint64_t &seed, std::string help)
{
    return {{name}, Kind::Value,
            [&seed, name](const std::string &v) -> Status {
                const std::string_view text = trim(v);
                const char *end = text.data() + text.size();
                std::uint64_t parsed = 0;
                const auto [ptr, ec] =
                    std::from_chars(text.data(), end, parsed);
                GAIA_REQUIRE(ec == std::errc() && ptr == end, name,
                             " must be an integer in [0, ", UINT64_MAX,
                             "], got '", v, "'");
                seed = parsed;
                return Status::ok();
            },
            std::move(help)};
}

void
addSharedFlagRows(FlagTable &rows, SharedFlags &flags)
{
    rows.insert(
        rows.end(),
        {heading("Threads and observability"),
         intRow("--threads", flags.threads, 1, kMaxParallelThreads,
                "  --threads N           worker threads for sweeps; "
                "one run is one cell\n"
                "                        (default: auto, at most " +
                    std::to_string(kMaxParallelThreads) + ")\n"),
         textRow("--metrics-out", flags.metrics_out,
                 "  --metrics-out PATH    write a metrics-snapshot "
                 "JSON at the end\n"),
         textRow("--trace-out", flags.trace_out,
                 "  --trace-out PATH      write a Chrome/Perfetto "
                 "trace_event JSON at the end\n"),
         switchRow("--verbose", flags.verbose,
                   "  --verbose             print the metrics summary "
                   "table at the end\n")});
}

Status
applySharedFlags(const SharedFlags &flags)
{
    if (flags.threads > 0)
        setParallelThreads(flags.threads);
    // An empty write proves each sink path usable before any work.
    const auto nothing = [](std::ostream &) {};
    GAIA_TRY(writeSink("--metrics-out", flags.metrics_out, nothing));
    GAIA_TRY(writeSink("--trace-out", flags.trace_out, nothing));
    // Tracing and the clock-heavy instrumentation points only run
    // when a sink or the summary table asked for them.
    if (!flags.metrics_out.empty() || !flags.trace_out.empty() ||
        flags.verbose) {
        obs::setDetailedTiming(true);
        obs::setThreadTrackName("main");
    }
    if (!flags.trace_out.empty())
        obs::setTracingEnabled(true);
    return Status::ok();
}

Status
writeObsSinks(const SharedFlags &flags, std::ostream &out)
{
    const Status metrics =
        writeSink("--metrics-out", flags.metrics_out,
                  [](std::ostream &file) {
                      obs::writeMetricsJson(file,
                                            obs::metricsSnapshot());
                  });
    const Status trace =
        writeSink("--trace-out", flags.trace_out,
                  [](std::ostream &file) { obs::writeTraceJson(file); });
    if (flags.verbose) {
        out << "\n";
        obs::printMetricsSummary(out, obs::metricsSnapshot());
    }
    return metrics.isOk() ? trace : metrics;
}

Result<CliAction>
parseCliOptions(const std::vector<std::string> &args,
                CliOptions &options)
{
    CliAction action = CliAction::Run;
    return parseTable(args, runTable(options, action), action, options);
}

Result<CliAction>
parseServeOptions(const std::vector<std::string> &args,
                  CliOptions &options, ServeFlags &serve)
{
    CliAction action = CliAction::Run;
    return parseTable(args, serveTable(options, serve, action), action,
                      options);
}

std::string
cliUsage()
{
    CliOptions options;
    CliAction action = CliAction::Run;
    return "gaia_run — carbon-, performance-, and cost-aware batch "
           "scheduling\n" +
           flagUsage(runTable(options, action)) + kEqualsNote;
}

std::string
serveUsage()
{
    CliOptions options;
    ServeFlags serve;
    CliAction action = CliAction::Run;
    return "gaia_serve — stream jobs into the GAIA policy engine over "
           "a control socket\n\n"
           "Control protocol (one command per line):\n"
           "  submit <id> <submit> <length> <cpus> -> ok | err "
           "<message>\n"
           "  stats                                -> one-line JSON\n"
           "  drain                                -> drained "
           "<fingerprint-hex>\n"
           "  quit                                 -> close "
           "connection\n" +
           flagUsage(serveTable(options, serve, action)) + kEqualsNote;
}


Result<ResourceStrategy>
CliOptions::resolvedStrategy() const
{
    const std::string key = toLower(strategy);
    if (key == "on-demand" || key == "ondemand")
        return ResourceStrategy::OnDemandOnly;
    if (key == "hybrid")
        return ResourceStrategy::HybridGreedy;
    if (key == "res-first" || key == "reserved-first")
        return ResourceStrategy::ReservedFirst;
    if (key == "spot-first")
        return ResourceStrategy::SpotFirst;
    if (key == "spot-res" || key == "spot-reserved")
        return ResourceStrategy::SpotReserved;
    return Status::notFound(
        "unknown strategy '", strategy,
        "'; expected on-demand, hybrid, res-first, spot-first, "
        "or spot-res");
}

Status
parseWaitingSpec(const std::string &spec, Seconds &short_wait,
                 Seconds &long_wait)
{
    const std::size_t sep = spec.find('x');
    GAIA_REQUIRE(sep != std::string::npos, "--waiting spec '", spec,
                 "' must be SHORTxLONG hours, e.g. 6x24");
    GAIA_TRY_ASSIGN(const double short_h,
                    tryParseDouble(spec.substr(0, sep),
                                   "--waiting short hours"));
    GAIA_TRY_ASSIGN(const double long_h,
                    tryParseDouble(spec.substr(sep + 1),
                                   "--waiting long hours"));
    const auto in_range = [](double h) {
        return h >= 0.0 && h <= kMaxDurationHours;
    };
    GAIA_REQUIRE(in_range(short_h) && in_range(long_h),
                 "--waiting hours must be ",
                 rangeText(0.0, kMaxDurationHours), ", got '",
                 spec, "'");
    short_wait = hours(short_h);
    long_wait = hours(long_h);
    return Status::ok();
}

} // namespace gaia
