/**
 * @file
 * ControlServer line-protocol tests, exercised through
 * handleLine() — the exact code path the socket loop runs, minus
 * the socket plumbing (which the CI serve-smoke job covers end to
 * end with a real client).
 */

#include "serve/control.h"

#include <gtest/gtest.h>

#include <memory>

#include "serve/daemon.h"
#include "sim/results.h"

namespace gaia::serve {
namespace {

std::unique_ptr<ServeDaemon>
startSmallDaemon()
{
    TraceBuildOptions options;
    options.job_count = 60;
    options.span = kSecondsPerDay;
    options.seed = 1;

    ScenarioSpec spec;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    ServeConfig config;
    config.scenario = spec;
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    GAIA_ASSERT(daemon.isOk(), "daemon start failed: ",
                daemon.status().message());
    return std::move(daemon).value();
}

TEST(ControlServer, SubmitStatsAndDrainRoundTrip)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    ControlServer server(*daemon, "/unused.sock");

    std::string reply;
    EXPECT_FALSE(
        server.handleLine("submit 1 100 3600 1", reply));
    EXPECT_EQ(reply, "ok");

    EXPECT_FALSE(server.handleLine("stats", reply));
    EXPECT_EQ(reply.front(), '{');
    EXPECT_EQ(reply.back(), '}');
    EXPECT_NE(reply.find("\"accepted\":1"), std::string::npos);
    for (const char *books : {"carbon_kg", "variable_cost", "energy_kwh"})
        EXPECT_NE(reply.find(std::string("\"") + books + "\":"),
                  std::string::npos)
            << books << " missing from " << reply;

    EXPECT_TRUE(server.handleLine("drain", reply));
    ASSERT_EQ(reply.rfind("drained ", 0), 0u) << reply;
    EXPECT_EQ(reply.size(), std::string("drained ").size() + 16)
        << "fingerprint must be 16 hex digits: " << reply;

    ASSERT_TRUE(server.drained().isOk());
    EXPECT_EQ(server.drained()->outcomes.size(), 1u);
}

TEST(ControlServer, MalformedAndUnknownLinesAreCleanErrors)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    ControlServer server(*daemon, "/unused.sock");

    std::string reply;
    EXPECT_FALSE(server.handleLine("submit 1 100", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    EXPECT_FALSE(server.handleLine("submit 1 100 -5 1", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    EXPECT_FALSE(server.handleLine("frobnicate", reply));
    EXPECT_EQ(reply.rfind("err unknown command", 0), 0u) << reply;

    reply = "stale";
    EXPECT_FALSE(server.handleLine("", reply));
    EXPECT_EQ(reply, "stale") << "blank lines draw no reply";

    // The daemon is still healthy after every bad line.
    EXPECT_FALSE(server.handleLine("submit 2 200 600 1", reply));
    EXPECT_EQ(reply, "ok");
    EXPECT_TRUE(server.handleLine("drain", reply));
    EXPECT_EQ(reply.rfind("drained ", 0), 0u) << reply;
}

} // namespace
} // namespace gaia::serve
