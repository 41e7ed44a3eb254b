/**
 * @file
 * ControlServer line-protocol tests, mostly exercised through
 * handleLine() — the exact code path the socket loop runs, minus
 * the socket plumbing (which the CI serve-smoke job covers end to
 * end with a real client). The line-length cap lives in the socket
 * loop itself, so its test drives run() over a real socket.
 */

#include "serve/control.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

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

/** Connects to the AF_UNIX socket at `path`, giving the server up
 *  to five seconds to start listening; -1 when it never does. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (int attempt = 0; attempt < 500; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        if (fd >= 0)
            ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

/** Sends as much of `text` as the peer accepts; stops at hang-up. */
void
sendAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::send(fd, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

/** Everything the server sends until it closes the connection. */
std::string
readUntilClosed(int fd)
{
    std::string text;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    return text;
}

TEST(ControlServer, OverlongLineIsCutOffAndNextConnectionServed)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    const std::string path = testing::TempDir() + "gaia_control_" +
                             std::to_string(::getpid()) + ".sock";
    ControlServer server(*daemon, path);
    Result<SimulationResult> served =
        Status::failedPrecondition("server never returned");
    std::thread serving([&] { served = server.run(); });

    // 1 MiB without a newline: cut off past the cap.
    const int flood = connectTo(path);
    if (flood < 0) {
        serving.detach();
        FAIL() << "could not connect to " << path;
    }
    sendAll(flood, std::string(std::size_t{1} << 20, 'x'));
    EXPECT_EQ(readUntilClosed(flood), "err line too long\n");
    ::close(flood);

    // The server moved on and still serves the next client.
    const int next = connectTo(path);
    if (next < 0) {
        serving.detach();
        FAIL() << "no second connection to " << path;
    }
    sendAll(next, "submit 1 100 3600 1\ndrain\n");
    const std::string replies = readUntilClosed(next);
    ::close(next);
    serving.join();

    EXPECT_EQ(replies.rfind("ok\ndrained ", 0), 0u) << replies;
    ASSERT_TRUE(served.isOk()) << served.status().message();
    EXPECT_EQ(served->outcomes.size(), 1u);
}

} // namespace
} // namespace gaia::serve
