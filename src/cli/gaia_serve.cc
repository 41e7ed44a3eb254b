/**
 * @file
 * gaia_serve — the policy engine as a streaming daemon.
 *
 * Boots a ServeDaemon for the scenario described by the usual
 * gaia_run flags, then serves the line-protocol control socket
 * until a client drains the stream. The run's correctness oracle
 * is driver parity: stream the trace gaia_run --export-workload
 * wrote, drain, and the reported fingerprint matches
 * gaia_run --print-fingerprint for the same scenario.
 *
 *   gaia_serve --socket /tmp/gaia.sock --accel 1000 \
 *              --workload azure --jobs 600 --strategy spot-res
 *   # then: scripts/serve_client.py /tmp/gaia.sock trace.csv
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "cli/options.h"
#include "cli/runner.h"
#include "serve/control.h"
#include "serve/daemon.h"

namespace {

/** Clean input error: one line on stderr, exit code 2. */
int
reportError(const gaia::Status &status)
{
    std::cerr << "gaia_serve: " << status.message() << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gaia;
    using namespace gaia::serve;

    CliOptions options;
    ServeFlags serve;
    const Result<CliAction> action = parseServeOptions(
        std::vector<std::string>(argv + 1, argv + argc), options, serve);
    if (!action.isOk())
        return reportError(action.status());
    if (*action == CliAction::ShowHelp) {
        std::cout << serveUsage();
        return 0;
    }
    if (const Status shared = applySharedFlags(options); !shared.isOk())
        return reportError(shared);

    ServeConfig config;
    const Result<ScenarioSpec> spec = scenarioFromOptions(options);
    if (!spec.isOk())
        return reportError(spec.status());
    config.scenario = *spec;
    config.accel = serve.accel;
    config.queue_capacity = serve.queue_capacity;

    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    if (!daemon.isOk())
        return reportError(daemon.status());

    // Announced (and flushed) before the blocking accept loop so
    // scripts can wait for readiness by watching stdout.
    std::cout << "gaia_serve: listening on " << serve.socket
              << " (accel " << serve.accel << "x, queue "
              << (*daemon)->stats().queue_capacity << " slots, "
              << (*daemon)->calibrationTrace().jobCount()
              << "-job calibration trace)" << std::endl;

    ControlServer server(**daemon, serve.socket);
    Result<SimulationResult> run = server.run();

    const Status sinks = writeObsSinks(options, std::cout);
    if (!run.isOk())
        return reportError(run.status());
    if (!sinks.isOk())
        return reportError(sinks);

    const SimulationResult &result = *run;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      resultFingerprint(result)));
    std::cout << "gaia_serve: drained " << result.outcomes.size()
              << " jobs, carbon " << result.carbon_kg
              << " kg, fingerprint " << hex << "\n";
    return 0;
}
