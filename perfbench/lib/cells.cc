#include "lib/cells.h"

#include "cli/options.h"
#include "cli/runner.h"

namespace perfbench {

using gaia::Result;
using gaia::ScenarioSpec;
using gaia::Status;

namespace {

using Flags = std::vector<std::string>;

Flags
join(Flags base, const Flags &extra)
{
    base.insert(base.end(), extra.begin(), extra.end());
    return base;
}

/** Figure 14: NoWait, then Lowest-Window and Carbon-Time at each of
 *  the 13 waiting-limit points (W_short sweep at W_long = 24 h, then
 *  W_long sweep at W_short = 6 h). */
Workload
fig14Sweep(const std::string &seed)
{
    const Flags base = {"--workload", "alibaba",  "--jobs", "100000",
                        "--span-days", "365",     "--region", "SA-AU",
                        "--seed",      seed};
    Workload w;
    w.name = "fig14-sweep";
    w.cells.push_back(join(base, {"--policy", "NoWait"}));
    std::vector<std::string> points;
    for (const char *s : {"1", "3", "6", "12", "18", "24"})
        points.push_back(std::string(s) + "x24");
    for (const char *l : {"6", "12", "24", "36", "48", "72", "84"})
        points.push_back(std::string("6x") + l);
    for (const std::string &point : points) {
        for (const std::string policy : {"Lowest-Window", "Carbon-Time"}) {
            // The twin is the served scenario: Carbon-Time at the
            // default 6x24 limits (its first occurrence).
            if (policy == "Carbon-Time" && point == "6x24" && w.twin == 0)
                w.twin = w.cells.size();
            w.cells.push_back(
                join(base, {"--policy", policy, "-w", point}));
        }
    }
    return w;
}

/** Spot + reserved capacity under evictions and injected faults. */
Workload
spotFaults(const std::string &seed)
{
    const Flags base = {
        "--workload",      "azure",
        "--jobs",          "100000",
        "--span-days",     "365",
        "--region",        "SA-AU",
        "--strategy",      "spot-res",
        "--reserved",      "60",
        "--eviction-rate", "0.1",
        "--fault",
        "storm:rate=0.05;outage:rate=0.05,hours=6;"
        "straggler:rate=0.05,factor=1.5",
        "--seed",          seed,
        "--fault-seed",    seed};
    Workload w;
    w.name = "spot-faults";
    w.cells = {join(base, {"--policy", "Carbon-Time"}),
               join(base, {"--policy", "Wait-Awhile"}),
               join(base, {"--policy", "Lowest-Slot"}),
               join(base, {"--policy", "Carbon-Scaler",
                           "--elastic-profile", "linear:max=4"})};
    w.twin = 0;
    return w;
}

/** The served scenario: one Carbon-Time on-demand Alibaba year. */
Flags
serveFlags(const std::string &seed)
{
    return {"--workload", "alibaba", "--jobs", "100000",
            "--span-days", "365", "--region", "SA-AU",
            "--policy", "Carbon-Time", "--strategy", "on-demand",
            "--seed", seed};
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"fig14-sweep", "spot-faults"};
}

Result<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    const std::string s = std::to_string(seed);
    Workload w;
    if (name == "fig14-sweep")
        w = fig14Sweep(s);
    else if (name == "spot-faults")
        w = spotFaults(s);
    else
        return Status::notFound("unknown workload '", name,
                                "'; expected fig14-sweep or spot-faults");
    w.serve = serveFlags(s);
    return w;
}

Result<ScenarioSpec>
scenarioFromFlags(const std::vector<std::string> &flags)
{
    gaia::CliOptions options;
    GAIA_TRY_ASSIGN(const gaia::CliAction action,
                    gaia::parseCliOptions(flags, options));
    GAIA_REQUIRE(action == gaia::CliAction::Run,
                 "cell flags do not describe a run");
    return gaia::scenarioFromOptions(options);
}

Result<std::vector<ScenarioSpec>>
workloadScenarios(const Workload &workload)
{
    std::vector<ScenarioSpec> specs;
    for (const std::vector<std::string> &flags : workload.cells) {
        GAIA_TRY_ASSIGN(ScenarioSpec spec, scenarioFromFlags(flags));
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace perfbench
