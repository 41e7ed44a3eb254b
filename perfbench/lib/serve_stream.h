/**
 * @file
 * The serving side of the benchmark: a gaia_serve child process
 * driven over its AF_UNIX control socket by one closed-loop client
 * (each command waits for its reply), and the same command stream
 * fed to an in-process daemon to time ControlServer::handleLine and
 * ServeDaemon::submit directly.
 */

#ifndef PERFBENCH_LIB_SERVE_STREAM_H
#define PERFBENCH_LIB_SERVE_STREAM_H

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "common/status.h"
#include "lib/layers.h"
#include "workload/job.h"

namespace perfbench {

/** A gaia_serve child process; killed and reaped if still running
 *  when destroyed. */
class DaemonProcess
{
  public:
    /**
     * Spawn `binary` with `flags` plus --socket/--accel 0, sending
     * its output to `log_path` and confining it to `daemon_cpus`
     * when given, and connect to its socket. Returns once the
     * socket accepts; setupSeconds() is that delay.
     */
    static gaia::Result<DaemonProcess>
    spawn(const std::string &binary,
          const std::vector<std::string> &flags,
          const std::string &socket_path, const std::string &log_path,
          const cpu_set_t *daemon_cpus);

    DaemonProcess(DaemonProcess &&other) noexcept;
    DaemonProcess &operator=(DaemonProcess &&) = delete;
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;
    ~DaemonProcess();

    /** Spawn until the first successful connect(), seconds. */
    double setupSeconds() const { return setup_s_; }

    /** Send `line` and wait for one reply line (without '\n'). */
    gaia::Result<std::string> command(const std::string &line);

    /**
     * Close the connection and wait for the process to exit; error
     * unless it exited with status 0. Sets peakRssMb().
     */
    gaia::Status wait();

    /** The child's peak resident set, MiB (after wait()). */
    double peakRssMb() const { return peak_rss_mb_; }

  private:
    DaemonProcess() = default;
    void closeConnection();

    pid_t pid_ = -1;
    int fd_ = -1;
    /** Spin on replies: the daemon runs on other CPUs. */
    bool spin_ = false;
    double setup_s_ = 0.0;
    double peak_rss_mb_ = 0.0;
    /** Bytes read past the last reply line. */
    std::string pending_;
};

/**
 * Pin the calling thread to the last CPU it may use and return the
 * others, for DaemonProcess::spawn(), so that a client spinning on
 * replies never holds the CPU a daemon thread wakes on. nullopt,
 * and no pinning, on a single CPU.
 */
std::optional<cpu_set_t> pinClient();

/** The control-protocol line submitting `job`. */
std::string submitLine(const gaia::Job &job);

/** submitLine() of each of `jobs`. */
std::vector<std::string> submitLines(const std::vector<gaia::Job> &jobs);

/** Parse "drained <16 hex digits>"; 0 when `reply` is not one. */
std::uint64_t parseDrained(const std::string &reply);

/** Send each submitLine() of `lines` to `daemon` over its socket,
 *  then drain. */
gaia::Result<StreamRun>
streamOverSocket(DaemonProcess &daemon,
                 const std::vector<std::string> &lines,
                 std::size_t stats_every);

/**
 * Start a ServeDaemon for `spec` in this process (unpaced) and feed
 * its calibration trace through ControlServer::handleLine, with a
 * stats line every `stats_every` submits, then drain.
 */
gaia::Result<StreamRun> handleLinesInProcess(const gaia::ScenarioSpec &spec,
                                             std::size_t stats_every);

/**
 * Start a ServeDaemon for `spec` in this process and call
 * ServeDaemon::submit for each calibration job, then drain.
 */
gaia::Result<StreamRun> submitInProcess(const gaia::ScenarioSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_LIB_SERVE_STREAM_H
