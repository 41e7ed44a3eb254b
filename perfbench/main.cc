/**
 * @file
 * gaia_perfbench — one run of one benchmark workload.
 *
 *   gaia_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--reference FILE] [--work-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with nothing wrapped;
 * --trace 1 measures the per-layer metrics by timing calls into
 * each module from here (see lib/layers.h), plus an untraced
 * single-thread sweep to state the tracing overhead, and the
 * served scenario streamed in process and through gaia_serve. Times
 * and rates are reported at a reference host speed, measured by a
 * probe run between rounds (see lib/host_probe.h). Every run checks
 * every result it produces by fingerprint: against the
 * reference table when it holds the seed, and always against the
 * other runs of the same cell (one thread, all threads, traced,
 * streamed). Human-readable lines come first; the last line of
 * stdout is the JSON result. Exit status is 0 only when the run
 * completed and every check passed.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "analysis/sweep.h"
#include "common/executor.h"
#include "common/obs.h"
#include "lib/cells.h"
#include "lib/host_probe.h"
#include "lib/layers.h"
#include "lib/serve_stream.h"
#include "lib/stats.h"
#include "sim/results.h"

namespace {

using namespace perfbench;
using gaia::Result;
using gaia::Status;

/** Least set-up passes per run; setup_s is their median. */
constexpr int kSetupRepeats = 9;
/** Measured rounds run even when --seconds is already spent. */
constexpr int kMinRounds = 3;
/** gaia_serve socket streams in a traced run; the serve.* socket
 *  metrics are medians over them. */
constexpr int kSocketRoundsTraced = 3;
/** Timings with at most this many samples are listed in full. */
constexpr std::size_t kListSamples = 64;
/** The serve protocol's stats cadence: one per 100 submits. */
constexpr std::size_t kStatsEvery = 100;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string work_dir = ".";
};

Result<Options>
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        GAIA_REQUIRE(i + 1 < argc, "flag ", flag, " needs a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            GAIA_REQUIRE(*end == '\0' && !value.empty(),
                         "--seed needs an unsigned integer");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            GAIA_REQUIRE(*end == '\0' && o.seconds > 0.0,
                         "--seconds needs a positive number");
        } else if (flag == "--trace") {
            GAIA_REQUIRE(value == "0" || value == "1",
                         "--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--reference") {
            o.reference = value;
        } else if (flag == "--work-dir") {
            o.work_dir = value;
        } else {
            return Status::invalidArgument("unknown flag ", flag);
        }
    }
    GAIA_REQUIRE(have_workload, "--workload is required");
    return o;
}

std::string
hex(std::uint64_t fp)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

/** Outcome bookkeeping and the metrics of one run. */
class Report
{
  public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one failed operation and say why. */
    void fail(const std::string &why)
    {
        ++failed_;
        correct_ = false;
        std::cout << "CHECK FAILED: " << why << "\n";
    }

    /** Count a stream's commands and its refused ones. */
    void stream(const StreamRun &s, const std::string &context)
    {
        attempted_ += s.attempted;
        if (s.failed > 0) {
            failed_ += s.failed;
            correct_ = false;
            std::cout << "CHECK FAILED: " << context << ": " << s.failed
                      << " of " << s.attempted
                      << " commands refused\n";
        }
    }

    /** Record a metric as measured; print() reports times and
     *  rates at the reference host speed. */
    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics_.push_back({name, value, unit, true});
    }

    /** Record a metric that print() reports as measured. */
    void rawMetric(const std::string &name, double value,
                   const std::string &unit)
    {
        metrics_.push_back({name, value, unit, false});
    }

    /** The run's median probe time; 0 leaves every value as
     *  measured. */
    void setProbeSeconds(double probe_s) { probe_s_ = probe_s; }

    /** List `samples` as a timing (median, top percentile, n) and
     *  return their summary. */
    Distribution timing(const std::string &name,
                        std::vector<double> samples,
                        const std::string &unit)
    {
        const Distribution d = summarize(samples);
        std::cout << "  " << name << ": p50 " << d.p50 << " "
                  << percentileLabel(d.top_p) << " " << d.top << " "
                  << unit << " (n=" << d.count << ")";
        if (d.count <= kListSamples) {
            std::cout << " [";
            for (std::size_t i = 0; i < d.count; ++i)
                std::cout << (i ? " " : "") << samples[i];
            std::cout << "]";
        }
        std::cout << "\n";
        return d;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

    /** The table, then the JSON result line (the last line). */
    void print() const
    {
        std::cout << "host probe: " << probe_s_
                  << " s median; reference " << kReferenceProbeSeconds
                  << " s\n"
                  << "metrics (as measured -> at reference speed):\n";
        for (const Entry &m : metrics_)
            std::cout << "  " << m.name << " = " << m.value << " -> "
                      << reported(m) << " " << m.unit << "\n";
        std::ostringstream out;
        out.precision(17);
        out << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Entry &m = metrics_[i];
            const double value =
                std::isfinite(reported(m)) ? reported(m) : 0.0;
            out << (i ? ", " : "") << "\"" << m.name
                << "\": {\"value\": " << value << ", \"unit\": \""
                << m.unit << "\"}";
        }
        out << "}}";
        std::cout << out.str() << std::endl;
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        bool scaled;
    };

    double reported(const Entry &m) const
    {
        return m.scaled ? atReferenceSpeed(m.value, m.unit, probe_s_)
                        : m.value;
    }

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
    std::vector<Entry> metrics_;
    double probe_s_ = 0.0;
};

/**
 * Every cell's fingerprint must equal the reference value for this
 * seed when the table has one, and must be the same in every run.
 */
class FingerprintCheck
{
  public:
    FingerprintCheck(Report &report, std::size_t cells)
        : report_(report), seen_(cells)
    {
    }

    /** Load the reference row for (`workload`, `seed`) if any. */
    Status loadReference(const std::string &path,
                         const std::string &workload,
                         std::uint64_t seed)
    {
        if (path.empty())
            return Status::ok();
        std::ifstream in(path);
        GAIA_REQUIRE(in.good(), "cannot read reference file ", path);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream row(line);
            std::string name, fps;
            std::uint64_t row_seed = 0;
            if (line.empty() || line[0] == '#' ||
                !(row >> name >> row_seed >> fps) ||
                name != workload || row_seed != seed)
                continue;
            std::istringstream list(fps);
            std::string item;
            while (std::getline(list, item, ','))
                reference_.push_back(
                    std::strtoull(item.c_str(), nullptr, 16));
            GAIA_REQUIRE(reference_.size() == seen_.size(),
                         "reference row for ", workload, " seed ",
                         seed, " has ", reference_.size(),
                         " fingerprints for ", seen_.size(), " cells");
        }
        std::cout << "reference fingerprints: "
                  << (reference_.empty() ? "none for this seed"
                                         : "checked")
                  << "\n";
        return Status::ok();
    }

    void check(std::size_t cell, std::uint64_t fp,
               const std::string &context)
    {
        report_.attempt();
        if (!reference_.empty() && fp != reference_[cell]) {
            report_.fail(context + ": cell " + std::to_string(cell) +
                         " fingerprint " + hex(fp) +
                         " differs from reference " +
                         hex(reference_[cell]));
        } else if (seen_[cell] && *seen_[cell] != fp) {
            report_.fail(context + ": cell " + std::to_string(cell) +
                         " fingerprint " + hex(fp) +
                         " differs from earlier run " +
                         hex(*seen_[cell]));
        } else if (!seen_[cell]) {
            seen_[cell] = fp;
            std::cout << "fingerprint cell " << cell << " " << hex(fp)
                      << "\n";
        }
    }

    /** Check one cell's outcome: an error counts as a failure. */
    void checkCell(std::size_t cell,
                   const Result<gaia::SimulationResult> &result,
                   const std::string &context)
    {
        if (result.isOk()) {
            check(cell, gaia::resultFingerprint(*result), context);
            return;
        }
        report_.attempt();
        report_.fail(context + ": cell " + std::to_string(cell) +
                     " failed: " + result.status().toString());
    }

    /** Check every cell of a finished sweep. */
    void checkSweep(const gaia::SweepEngine &sweep,
                    const std::string &context)
    {
        for (std::size_t i = 0; i < sweep.size(); ++i)
            checkCell(i, sweep.result(i), context);
    }

  private:
    Report &report_;
    std::vector<std::optional<std::uint64_t>> seen_;
    std::vector<std::uint64_t> reference_;
};

std::size_t
sweepJobs(const gaia::SweepEngine &sweep)
{
    std::size_t jobs = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (sweep.result(i).isOk())
            jobs += sweep.result(i)->outcomes.size();
    }
    return jobs;
}

/** Jobs per second of one timed run() of `sweep`. */
double
timeSweep(gaia::SweepEngine &sweep, std::size_t jobs)
{
    const double begin = nowSeconds();
    sweep.run();
    return static_cast<double>(jobs) / (nowSeconds() - begin);
}

void
addCells(gaia::SweepEngine &sweep,
         const std::vector<gaia::ScenarioSpec> &specs)
{
    for (const gaia::ScenarioSpec &spec : specs)
        sweep.add(spec);
}

/**
 * The sweep on one thread, cell by cell through runScenario() — the
 * call SweepEngine makes for each cell. Like SweepEngine it holds
 * every cell's result until the next pass starts.
 */
class SerialSweep
{
  public:
    explicit SerialSweep(const std::vector<gaia::ScenarioSpec> &specs)
        : specs_(specs), results_(specs.size())
    {
    }

    /** Run every cell once and return jobs per second over the
     *  whole pass. */
    double run()
    {
        std::size_t jobs = 0;
        const double begin = nowSeconds();
        for (auto &result : results_)
            result.reset();
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            results_[i] = gaia::runScenario(specs_[i], cache_);
            if (results_[i]->isOk())
                jobs += (*results_[i])->outcomes.size();
        }
        return static_cast<double>(jobs) / (nowSeconds() - begin);
    }

    /** Check every cell of the last pass. */
    void check(FingerprintCheck &fps, const std::string &context) const
    {
        for (std::size_t i = 0; i < results_.size(); ++i)
            fps.checkCell(i, *results_[i], context);
    }

  private:
    const std::vector<gaia::ScenarioSpec> &specs_;
    gaia::AssetCache cache_;
    std::vector<std::optional<gaia::Result<gaia::SimulationResult>>>
        results_;
};

double
selfPeakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<double>
scaled(const std::vector<double> &values, double factor)
{
    std::vector<double> out;
    out.reserve(values.size());
    for (const double v : values)
        out.push_back(v * factor);
    return out;
}

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

/** Median of `samples` after listing them as a timing. */
double
timed(Report &report, const std::string &name,
      const std::vector<double> &samples, const std::string &unit)
{
    return report.timing(name, samples, unit).p50;
}

/**
 * Untraced, on one thread: asset set-up, then rounds of the host
 * probe, the sweep, and a job-by-job pass of the twin cell through
 * the engine, which reads the metrics every kStatsEvery releases as
 * a serve client would and then drains (the drain latency).
 */
Status
runBatch(const Options &opt, const Workload &workload,
         const std::vector<gaia::ScenarioSpec> &specs,
         FingerprintCheck &fps, Report &report)
{
    HostProbe probe;
    std::vector<double> probe_s, setup, jps_1t, drain;
    // One asset set-up into a fresh cache per round, so that set-up
    // is sampled over the same span as the probe.
    const auto setUp = [&]() -> Status {
        gaia::AssetCache cache;
        GAIA_TRY_ASSIGN(const SetupTimes t, timeSetup(specs, cache));
        setup.push_back(t.total_s);
        return Status::ok();
    };

    // Warm-up passes fill the asset caches; not timed.
    SerialSweep sweep(specs);
    sweep.run();
    sweep.check(fps, "sweep");
    gaia::AssetCache stream_cache;
    GAIA_TRY(streamThroughEngine(specs[workload.twin], stream_cache,
                                 kStatsEvery));

    const double deadline = nowSeconds() + opt.seconds;
    for (int round = 0; round < kMinRounds || nowSeconds() < deadline;
         ++round) {
        probe_s.push_back(probe.run());
        GAIA_TRY(setUp());
        jps_1t.push_back(sweep.run());
        sweep.check(fps, "sweep");
        GAIA_TRY_ASSIGN(const StreamRun s,
                        streamThroughEngine(specs[workload.twin],
                                            stream_cache, kStatsEvery));
        report.stream(s, "engine stream");
        fps.check(workload.twin, s.fingerprint, "engine stream");
        drain.push_back(s.drain_s);
    }
    while (setup.size() < static_cast<std::size_t>(kSetupRepeats))
        GAIA_TRY(setUp());

    std::cout << "sweep: " << specs.size() << " cells, one thread\n";
    report.setProbeSeconds(timed(report, "host.probe_s", probe_s, "s"));
    report.metric("setup_s", timed(report, "setup_s", setup, "s"),
                  "s");
    report.metric("jobs_per_s_1t",
                  timed(report, "jobs_per_s_1t", jps_1t, "1/s"),
                  "1/s");
    report.metric("drain_s", timed(report, "drain_s", drain, "s"), "s");
    report.metric("peak_rss_mb", selfPeakRssMb(), "MiB");
    return Status::ok();
}

/** One gaia_serve process streamed to the end. */
struct SocketRound
{
    StreamRun stream;
    double setup_s = 0.0;
    double rss_mb = 0.0;
};

/** gaia_serve streams of one workload's served scenario. */
class SocketRounds
{
  public:
    /**
     * Pins this thread to one CPU for the spinning client and
     * leaves the others to the daemons, so construct it after any
     * multi-threaded work of the run.
     */
    SocketRounds(const Options &opt, const Workload &workload,
                 const std::vector<gaia::Job> &jobs)
        : flags_(workload.serve), lines_(submitLines(jobs)),
          socket_(opt.work_dir + "/gaia_serve.sock"),
          log_(opt.work_dir + "/gaia_serve.log"),
          daemon_cpus_(pinClient())
    {
    }

    /** Spawn a daemon and wait until its socket accepts, stream
     *  every job, drain, and reap. */
    Result<SocketRound> run() const
    {
        GAIA_TRY_ASSIGN(DaemonProcess daemon,
                        DaemonProcess::spawn(
                            PERFBENCH_GAIA_SERVE, flags_, socket_, log_,
                            daemon_cpus_ ? &*daemon_cpus_ : nullptr));
        SocketRound out;
        out.setup_s = daemon.setupSeconds();
        GAIA_TRY_ASSIGN(out.stream,
                        streamOverSocket(daemon, lines_, kStatsEvery));
        GAIA_TRY(daemon.wait());
        out.rss_mb = daemon.peakRssMb();
        return out;
    }

  private:
    const std::vector<std::string> &flags_;
    std::vector<std::string> lines_;
    std::string socket_;
    std::string log_;
    std::optional<cpu_set_t> daemon_cpus_;
};

/** Obs counters one traced sweep moved. */
struct Counts
{
    std::uint64_t plan_calls = 0;
    std::uint64_t cis_calls = 0;
    std::uint64_t plan_cache_hits = 0;
    std::uint64_t plan_cache_misses = 0;
    std::uint64_t events = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t evictions = 0;
    std::uint64_t faults = 0;
    std::uint64_t cis_retries = 0;
    std::uint64_t degraded_slots = 0;

    bool operator==(const Counts &) const = default;
};

Counts
readCounts(const LayerTimes &times)
{
    const gaia::obs::MetricsSnapshot s = gaia::obs::metricsSnapshot();
    Counts c;
    c.plan_calls = times.plan_calls;
    c.cis_calls = times.cis_calls;
    c.plan_cache_hits = s.counterValue("plan_cache.hits");
    c.plan_cache_misses = s.counterValue("plan_cache.misses");
    c.events = s.counterValue("sim.events_dispatched");
    c.jobs_completed = s.counterValue("sim.jobs_completed");
    c.evictions = s.counterValue("sim.evictions");
    c.faults = s.counterValue("fault.injected");
    c.cis_retries = s.counterValue("cis.retries");
    c.degraded_slots = s.counterValue("policy.degraded_slots");
    return c;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Traced run: set-up layer times; one in-process pass of the served
 * scenario through ControlServer::handleLine and one through
 * ServeDaemon::submit; rounds of (host probe, untraced one-thread
 * sweep, decorated one-thread sweep, all-thread sweep); and last,
 * with this thread pinned for the client, kSocketRoundsTraced socket
 * streams.
 */
Status
runTraced(const Options &opt, const Workload &workload,
          const std::vector<gaia::ScenarioSpec> &specs,
          FingerprintCheck &fps, Report &report)
{
    HostProbe probe;
    std::vector<double> probe_s{probe.run()};
    std::vector<double> workload_s, carbon_s, calibrate_s, realize_s;
    std::unique_ptr<gaia::AssetCache> cache;
    for (int k = 0; k < kSetupRepeats; ++k) {
        cache = std::make_unique<gaia::AssetCache>();
        GAIA_TRY_ASSIGN(const SetupTimes t, timeSetup(specs, *cache));
        workload_s.push_back(t.workload_s);
        carbon_s.push_back(t.carbon_s);
        calibrate_s.push_back(t.calibrate_s);
        realize_s.push_back(t.realize_scenario_s);
    }

    // Every stream of the served scenario must reproduce its batch
    // run's fingerprint.
    GAIA_TRY_ASSIGN(const gaia::ScenarioSpec served,
                    scenarioFromFlags(workload.serve));
    GAIA_TRY_ASSIGN(const gaia::SimulationResult served_batch,
                    gaia::runScenario(served, *cache));
    const std::uint64_t served_fp =
        gaia::resultFingerprint(served_batch);
    const auto checkServed = [&](const StreamRun &s,
                                 const std::string &context) {
        report.stream(s, context);
        report.attempt();
        if (s.fingerprint != served_fp)
            report.fail(context + ": drained " + hex(s.fingerprint) +
                        ", batch twin " + hex(served_fp));
    };
    GAIA_TRY_ASSIGN(const StreamRun lines,
                    handleLinesInProcess(served, kStatsEvery));
    checkServed(lines, "in-process handleLine");
    GAIA_TRY_ASSIGN(const StreamRun submits, submitInProcess(served));
    checkServed(submits, "in-process submit");

    gaia::SweepEngine sweep;
    addCells(sweep, specs);
    sweep.run();
    fps.checkSweep(sweep, "all-thread sweep");
    const std::size_t jobs = sweepJobs(sweep);

    std::vector<double> jps, jps_1t, traced_1t, plan_s, cis_s,
        replay_s, loop_self_s, finalize_s, finalize_share, stolen;
    std::optional<Counts> counts;
    const double deadline = nowSeconds() + opt.seconds;
    for (int round = 0; round < kMinRounds || nowSeconds() < deadline;
         ++round) {
        probe_s.push_back(probe.run());
        gaia::setParallelThreads(1);
        jps_1t.push_back(timeSweep(sweep, jobs));
        gaia::setParallelThreads(0);
        fps.checkSweep(sweep, "one-thread sweep");

        gaia::obs::resetMetrics();
        LayerTimes times;
        const double begin = nowSeconds();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            Result<gaia::SimulationResult> cell =
                runTimedCell(specs[i], *cache, times);
            if (!cell.isOk()) {
                report.attempt();
                report.fail("traced cell failed: " +
                            cell.status().toString());
                continue;
            }
            fps.check(i, gaia::resultFingerprint(*cell),
                      "traced sweep");
        }
        traced_1t.push_back(static_cast<double>(jobs) /
                            (nowSeconds() - begin));
        const Counts c = readCounts(times);
        report.attempt();
        if (counts && !(*counts == c))
            report.fail("traced counts differ between rounds");
        counts = c;
        plan_s.push_back(times.plan_s);
        cis_s.push_back(times.cis_s);
        replay_s.push_back(times.replay_s);
        loop_self_s.push_back(times.loopSelfSeconds());
        finalize_s.push_back(times.finalize_s);
        finalize_share.push_back(
            ratio(times.finalize_s, times.replay_s + times.finalize_s));

        gaia::obs::resetMetrics();
        jps.push_back(timeSweep(sweep, jobs));
        stolen.push_back(static_cast<double>(
            gaia::obs::metricsSnapshot().counterValue(
                "executor.tasks_stolen")));
        fps.checkSweep(sweep, "all-thread sweep");
    }

    const Counts &c = *counts;
    const double host_probe_s =
        timed(report, "host.probe_s", probe_s, "s");
    report.setProbeSeconds(host_probe_s);
    report.rawMetric("host.probe_s", host_probe_s, "s");
    const auto count = [&report](const std::string &name,
                                 std::uint64_t value) {
        report.metric(name, static_cast<double>(value), "count");
    };
    report.metric("workload.realize_s",
                  timed(report, "workload.realize_s", workload_s, "s"),
                  "s");
    report.metric("trace.realize_s",
                  timed(report, "trace.realize_s", carbon_s, "s"), "s");
    report.metric("analysis.calibrate_s",
                  timed(report, "analysis.calibrate_s", calibrate_s,
                        "s"),
                  "s");
    report.metric("analysis.realize_scenario_s",
                  timed(report, "analysis.realize_scenario_s",
                        realize_s, "s"),
                  "s");
    count("core.plan_calls", c.plan_calls);
    report.metric("core.plan_s",
                  timed(report, "core.plan_s", plan_s, "s"), "s");
    report.metric("core.plan_cache_hit_ratio",
                  ratio(static_cast<double>(c.plan_cache_hits),
                        static_cast<double>(c.plan_cache_hits +
                                            c.plan_cache_misses)),
                  "ratio");
    count("core.cis_calls", c.cis_calls);
    report.metric("core.cis_s", timed(report, "core.cis_s", cis_s, "s"),
                  "s");
    report.metric("sim.replay_s",
                  timed(report, "sim.replay_s", replay_s, "s"), "s");
    report.metric("sim.loop_self_s",
                  timed(report, "sim.loop_self_s", loop_self_s, "s"),
                  "s");
    report.metric("sim.events_per_job",
                  ratio(static_cast<double>(c.events),
                        static_cast<double>(c.jobs_completed)),
                  "event/job");
    report.metric("sim.finalize_s",
                  timed(report, "sim.finalize_s", finalize_s, "s"), "s");
    report.metric("sim.finalize_share", median(finalize_share), "ratio");
    count("sim.evictions", c.evictions);
    count("fault.injected", c.faults);
    count("cis.retries", c.cis_retries);
    count("policy.degraded_slots", c.degraded_slots);
    const double untraced = timed(report, "jobs_per_s_1t", jps_1t, "1/s");
    report.metric("analysis.sweep_scaling",
                  ratio(timed(report, "jobs_per_s", jps, "1/s"),
                        untraced),
                  "x");
    report.metric("common.executor.tasks_stolen", median(stolen),
                  "count");

    const auto ns_p50 = [&report](const std::string &name,
                                  const std::vector<double> &s) {
        return timed(report, name, scaled(s, 1e9), "ns");
    };
    report.metric("serve.handle_line_ns_p50",
                  ns_p50("serve.handle_line_ns", lines.submit_s), "ns");
    report.metric("serve.daemon_submit_ns_p50",
                  ns_p50("serve.daemon_submit_ns", submits.submit_s),
                  "ns");
    report.metric("serve.stats_ns_p50",
                  ns_p50("serve.stats_ns", lines.stats_s), "ns");
    count("serve.backlog_at_drain", lines.backlog_at_drain);
    report.metric("serve.drain_s", lines.drain_s, "s");
    count("serve.rejected_full",
          lines.rejected_full + submits.rejected_full);
    count("serve.rejected_late",
          lines.rejected_late + submits.rejected_late);
    GAIA_TRY_ASSIGN(const auto trace, cache->trace(served.workload));
    const SocketRounds socket(opt, workload, trace->jobs());
    std::vector<double> spawn_s, socket_jps, socket_submit, socket_stats,
        socket_drain, daemon_rss;
    for (int round = 0; round < kSocketRoundsTraced; ++round) {
        GAIA_TRY_ASSIGN(const SocketRound r, socket.run());
        checkServed(r.stream, "socket stream");
        spawn_s.push_back(r.setup_s);
        socket_jps.push_back(r.stream.jobs_per_s);
        append(socket_submit, r.stream.submit_s);
        append(socket_stats, r.stream.stats_s);
        socket_drain.push_back(r.stream.drain_s);
        daemon_rss.push_back(r.rss_mb);
    }
    report.metric("serve.spawn_s",
                  timed(report, "serve.spawn_s", spawn_s, "s"), "s");
    report.metric("serve.socket_jobs_per_s",
                  timed(report, "serve.socket_jobs_per_s", socket_jps,
                        "1/s"),
                  "1/s");
    const Distribution submit_us = report.timing(
        "serve.submit_us", scaled(socket_submit, 1e6), "us");
    report.metric("serve.submit_p50_us", submit_us.p50, "us");
    report.metric("serve.submit_p99_us", submit_us.p99, "us");
    report.metric("serve.socket_stats_p50_us",
                  timed(report, "serve.socket_stats_us",
                        scaled(socket_stats, 1e6), "us"),
                  "us");
    report.metric("serve.socket_drain_s",
                  timed(report, "serve.socket_drain_s", socket_drain,
                        "s"),
                  "s");
    report.metric("serve.peak_rss_mb", median(daemon_rss), "MiB");
    report.metric("trace_overhead",
                  ratio(untraced,
                        timed(report, "traced_jobs_per_s_1t", traced_1t,
                              "1/s")) -
                      1.0,
                  "ratio");
    report.metric("error_rate",
                  ratio(static_cast<double>(report.failed()),
                        static_cast<double>(report.attempted())),
                  "ratio");
    return Status::ok();
}

Status
run(const Options &opt, Report &report)
{
    GAIA_TRY_ASSIGN(const Workload workload,
                    makeWorkload(opt.workload, opt.seed));
    GAIA_TRY_ASSIGN(const std::vector<gaia::ScenarioSpec> specs,
                    workloadScenarios(workload));
    std::cout << "run: workload " << workload.name << ", seed "
              << opt.seed << ", seconds " << opt.seconds << ", trace "
              << opt.trace << "\n"
              << "build: " << PERFBENCH_COMPILER << ", "
              << PERFBENCH_BUILD_TYPE << ", "
              << gaia::defaultParallelThreads() << " sweep threads\n";
    FingerprintCheck fps(report, specs.size());
    GAIA_TRY(fps.loadReference(opt.reference, workload.name, opt.seed));
    if (opt.trace)
        return runTraced(opt, workload, specs, fps, report);
    return runBatch(opt, workload, specs, fps, report);
}

} // namespace

int
main(int argc, char **argv)
{
    const Result<Options> opt = parseOptions(argc, argv);
    if (!opt.isOk()) {
        std::cerr << "gaia_perfbench: " << opt.status().message()
                  << "\n";
        return 2;
    }
    Report report;
    const Status status = run(*opt, report);
    if (!status.isOk()) {
        std::cerr << "gaia_perfbench: " << status.toString() << "\n";
        return 1;
    }
    report.print();
    return report.correct() ? 0 : 1;
}
