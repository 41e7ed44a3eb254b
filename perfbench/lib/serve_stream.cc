#include "lib/serve_stream.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "serve/control.h"
#include "serve/daemon.h"
#include "sim/results.h"

extern char **environ;

namespace perfbench {

using gaia::Result;
using gaia::Status;

namespace {

/** How long a daemon may take to realize its scenario and listen. */
constexpr double kStartTimeoutS = 120.0;
/** How long one command may wait for its reply (drain included). */
constexpr double kReplyTimeoutS = 60.0;

/** A connected AF_UNIX socket, or -1. */
int
tryConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Write all of `text` to `fd`; false if the peer went away. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::send(fd, text.data() + off, text.size() - off,
                   MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** The reply a full submission queue gives; the client retries. */
bool
queueFull(const std::string &reply)
{
    return reply.rfind("err submission queue is full", 0) == 0;
}

} // namespace

std::optional<cpu_set_t>
pinClient()
{
    cpu_set_t rest{};
    if (::sched_getaffinity(0, sizeof rest, &rest) != 0 ||
        CPU_COUNT(&rest) < 2)
        return std::nullopt;
    int last = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &rest))
            last = cpu;
    }
    cpu_set_t one{};
    CPU_SET(last, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0)
        return std::nullopt;
    CPU_CLR(last, &rest);
    return rest;
}

std::string
submitLine(const gaia::Job &job)
{
    return "submit " + std::to_string(job.id) + " " +
           std::to_string(job.submit) + " " +
           std::to_string(job.length) + " " + std::to_string(job.cpus);
}

std::vector<std::string>
submitLines(const std::vector<gaia::Job> &jobs)
{
    std::vector<std::string> lines;
    lines.reserve(jobs.size());
    for (const gaia::Job &job : jobs)
        lines.push_back(submitLine(job));
    return lines;
}

std::uint64_t
parseDrained(const std::string &reply)
{
    const std::string prefix = "drained ";
    if (reply.size() != prefix.size() + 16 ||
        reply.compare(0, prefix.size(), prefix) != 0)
        return 0;
    return std::strtoull(reply.c_str() + prefix.size(), nullptr, 16);
}

Result<DaemonProcess>
DaemonProcess::spawn(const std::string &binary,
                     const std::vector<std::string> &flags,
                     const std::string &socket_path,
                     const std::string &log_path,
                     const cpu_set_t *daemon_cpus)
{
    GAIA_REQUIRE(socket_path.size() < sizeof(sockaddr_un::sun_path),
                 "socket path too long: ", socket_path);
    std::vector<std::string> args = {binary};
    args.insert(args.end(), flags.begin(), flags.end());
    for (const char *extra :
         {"--socket", socket_path.c_str(), "--accel", "0"})
        args.emplace_back(extra);
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    // A socket file left by an earlier, killed daemon would accept
    // nothing; remove it so readiness means this daemon listens.
    ::unlink(socket_path.c_str());

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    // The child inherits the affinity of the thread that spawns it.
    cpu_set_t own{};
    const bool split = daemon_cpus != nullptr &&
                       ::sched_getaffinity(0, sizeof own, &own) == 0 &&
                       ::sched_setaffinity(0, sizeof *daemon_cpus,
                                           daemon_cpus) == 0;
    DaemonProcess daemon;
    daemon.spin_ = split;
    const double begin = nowSeconds();
    const int rc = posix_spawn(&daemon.pid_, binary.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (split)
        ::sched_setaffinity(0, sizeof own, &own);
    if (rc != 0) {
        daemon.pid_ = -1;
        return Status::invalidArgument("cannot spawn ", binary, ": ",
                                       std::strerror(rc));
    }

    while ((daemon.fd_ = tryConnect(socket_path)) < 0) {
        int status = 0;
        if (::waitpid(daemon.pid_, &status, WNOHANG) == daemon.pid_) {
            daemon.pid_ = -1;
            return Status::failedPrecondition(
                "gaia_serve exited before listening; see ", log_path);
        }
        if (nowSeconds() - begin > kStartTimeoutS)
            return Status::failedPrecondition(
                "gaia_serve did not listen within ", kStartTimeoutS,
                " s; see ", log_path);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    daemon.setup_s_ = nowSeconds() - begin;
    return daemon;
}

DaemonProcess::DaemonProcess(DaemonProcess &&other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      fd_(std::exchange(other.fd_, -1)), spin_(other.spin_),
      setup_s_(other.setup_s_),
      peak_rss_mb_(other.peak_rss_mb_),
      pending_(std::move(other.pending_))
{
}

DaemonProcess::~DaemonProcess()
{
    closeConnection();
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }
}

void
DaemonProcess::closeConnection()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Result<std::string>
DaemonProcess::command(const std::string &line)
{
    GAIA_REQUIRE(fd_ >= 0, "daemon connection is closed");
    if (!writeAll(fd_, line + "\n"))
        return Status::failedPrecondition("daemon closed the socket");
    // With a CPU of its own the client spins on a non-blocking read
    // rather than sleeping in read(): a sleeping client adds its own
    // wake-up, which on a virtual machine costs as much as the
    // daemon's work and varies with the host's load. The round trip
    // then holds the daemon's side only. Sharing a CPU with the
    // daemon, spinning would only delay it, so the client blocks.
    std::size_t nl;
    double since = 0.0;
    while ((nl = pending_.find('\n')) == std::string::npos) {
        char buf[4096];
        const ssize_t n =
            ::recv(fd_, buf, sizeof buf, spin_ ? MSG_DONTWAIT : 0);
        if (n > 0) {
            pending_.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                      errno == EINTR)) {
            if (since == 0.0)
                since = nowSeconds();
            else if (nowSeconds() - since > kReplyTimeoutS)
                return Status::failedPrecondition(
                    "no reply from the daemon within ",
                    kReplyTimeoutS, " s");
            continue;
        }
        return Status::failedPrecondition("daemon closed the socket");
    }
    std::string reply = pending_.substr(0, nl);
    pending_.erase(0, nl + 1);
    return reply;
}

Status
DaemonProcess::wait()
{
    closeConnection();
    GAIA_REQUIRE(pid_ > 0, "daemon is not running");
    int status = 0;
    rusage usage{};
    pid_t got;
    while ((got = ::wait4(pid_, &status, 0, &usage)) < 0 &&
           errno == EINTR) {
    }
    pid_ = -1;
    GAIA_REQUIRE(got > 0, "wait4 failed: ", std::strerror(errno));
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    GAIA_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "gaia_serve ended with status ", status);
    return Status::ok();
}

Result<StreamRun>
streamOverSocket(DaemonProcess &daemon,
                 const std::vector<std::string> &lines,
                 std::size_t stats_every)
{
    StreamRun out;
    out.submit_s.reserve(lines.size());
    const double first = nowSeconds();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const double begin = nowSeconds();
        std::string reply;
        do {
            GAIA_TRY_ASSIGN(reply, daemon.command(lines[i]));
        } while (queueFull(reply));
        out.submit_s.push_back(nowSeconds() - begin);
        ++out.attempted;
        if (reply != "ok")
            ++out.failed;
        if ((i + 1) % stats_every == 0) {
            const double stats_begin = nowSeconds();
            GAIA_TRY_ASSIGN(const std::string stats,
                            daemon.command("stats"));
            out.stats_s.push_back(nowSeconds() - stats_begin);
            ++out.attempted;
            if (stats.empty() || stats.front() != '{')
                ++out.failed;
        }
    }
    const double drain_begin = nowSeconds();
    GAIA_TRY_ASSIGN(const std::string drained, daemon.command("drain"));
    const double end = nowSeconds();
    ++out.attempted;
    out.drain_s = end - drain_begin;
    out.jobs_per_s = static_cast<double>(lines.size()) / (end - first);
    out.fingerprint = parseDrained(drained);
    if (out.fingerprint == 0)
        ++out.failed;
    return out;
}

namespace {

Result<std::unique_ptr<gaia::serve::ServeDaemon>>
startUnpaced(const gaia::ScenarioSpec &spec)
{
    gaia::serve::ServeConfig config;
    config.scenario = spec;
    config.accel = 0.0;
    return gaia::serve::ServeDaemon::start(config);
}

/** The daemon's counters just before drain. */
void
recordBacklog(const gaia::serve::ServeDaemon &daemon, StreamRun &out)
{
    const gaia::serve::ServeStats stats = daemon.stats();
    out.backlog_at_drain = stats.accepted - stats.released;
    out.rejected_full = stats.rejected_full;
    out.rejected_late = stats.rejected_late;
}

} // namespace

Result<StreamRun>
handleLinesInProcess(const gaia::ScenarioSpec &spec,
                     std::size_t stats_every)
{
    GAIA_TRY_ASSIGN(auto daemon, startUnpaced(spec));
    // The socket path is never bound: only handleLine() is used.
    gaia::serve::ControlServer server(*daemon, "");
    const std::vector<gaia::Job> &jobs =
        daemon->calibrationTrace().jobs();
    const std::vector<std::string> lines = submitLines(jobs);

    StreamRun out;
    out.submit_s.reserve(jobs.size());
    std::string reply;
    const double first = nowSeconds();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const double begin = nowSeconds();
        server.handleLine(lines[i], reply);
        while (queueFull(reply)) {
            std::this_thread::yield();
            server.handleLine(lines[i], reply);
        }
        out.submit_s.push_back(nowSeconds() - begin);
        ++out.attempted;
        if (reply != "ok")
            ++out.failed;
        if ((i + 1) % stats_every == 0) {
            const double stats_begin = nowSeconds();
            server.handleLine("stats", reply);
            out.stats_s.push_back(nowSeconds() - stats_begin);
            ++out.attempted;
        }
    }
    recordBacklog(*daemon, out);
    const double drain_begin = nowSeconds();
    server.handleLine("drain", reply);
    const double end = nowSeconds();
    ++out.attempted;
    out.drain_s = end - drain_begin;
    out.jobs_per_s = static_cast<double>(jobs.size()) / (end - first);
    out.fingerprint = parseDrained(reply);
    if (out.fingerprint == 0)
        ++out.failed;
    return out;
}

Result<StreamRun>
submitInProcess(const gaia::ScenarioSpec &spec)
{
    GAIA_TRY_ASSIGN(auto daemon, startUnpaced(spec));
    const std::vector<gaia::Job> &jobs =
        daemon->calibrationTrace().jobs();
    StreamRun out;
    out.submit_s.reserve(jobs.size());
    const double first = nowSeconds();
    for (const gaia::Job &job : jobs) {
        const double begin = nowSeconds();
        Status submitted = daemon->submit(job);
        while (submitted.code() == gaia::ErrorCode::ResourceExhausted) {
            std::this_thread::yield();
            submitted = daemon->submit(job);
        }
        out.submit_s.push_back(nowSeconds() - begin);
        ++out.attempted;
        if (!submitted.isOk())
            ++out.failed;
    }
    recordBacklog(*daemon, out);
    const double drain_begin = nowSeconds();
    const Result<gaia::SimulationResult> drained = daemon->drain();
    const double end = nowSeconds();
    ++out.attempted;
    out.drain_s = end - drain_begin;
    out.jobs_per_s = static_cast<double>(jobs.size()) / (end - first);
    if (drained.isOk())
        out.fingerprint = gaia::resultFingerprint(*drained);
    else
        ++out.failed;
    return out;
}

} // namespace perfbench
