/**
 * @file
 * A fixed CPU and memory kernel that measures how fast the host runs
 * right now, and the scaling of a run's figures to a reference host
 * speed.
 *
 * On a shared host the speed of one core drifts with the
 * neighbours' load: on a 4-vCPU Xeon VM, in ten fig14-sweep runs
 * of about 45 s each, the sweep ran 1.75M to 2.46M jobs/s on one
 * thread while this probe took 0.181 s to 0.144 s. Whole runs move
 * together, so no statistic inside a run removes it. The benchmark therefore runs
 * the probe between its measured rounds and reports every time and
 * rate at the speed of a host on which the probe takes
 * kReferenceProbeSeconds: value x (reference / probe median) for a
 * time, the inverse for a rate. The probe uses none of GAIA's code,
 * so a change to GAIA moves the scaled figures exactly as it moves
 * the measured ones.
 */

#ifndef PERFBENCH_LIB_HOST_PROBE_H
#define PERFBENCH_LIB_HOST_PROBE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Probe time, in seconds, that the reported figures are scaled to. */
constexpr double kReferenceProbeSeconds = 0.15;

/**
 * Sorts one million pseudo-random doubles, then inserts 300k keys
 * into a hash map and looks up 600k: branchy compute, a working set
 * beyond the core's caches, and heap churn, like the simulator's
 * mix. The input is the same on every call.
 */
class HostProbe
{
  public:
    HostProbe();

    /** Run the kernel once; return its wall time in seconds. */
    double run();

  private:
    std::vector<double> input_;
    std::vector<double> work_;
    /** Folds every result in, so that no work is optimised away. */
    std::uint64_t sink_ = 0;
};

/**
 * `value` in `unit` as it would read on the reference host, given
 * the run's median probe time `probe_s`: times (s, ms, us, ns) scale
 * by kReferenceProbeSeconds / probe_s, rates (1/s) by the inverse,
 * and any other unit (counts, ratios, MiB) is returned unchanged.
 */
double atReferenceSpeed(double value, const std::string &unit,
                        double probe_s);

} // namespace perfbench

#endif // PERFBENCH_LIB_HOST_PROBE_H
