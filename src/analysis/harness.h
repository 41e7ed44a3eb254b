/**
 * @file
 * Conveniences shared by the figure-reproduction benches and the
 * example applications: calibrated queue setup and ASCII
 * sparklines for time-series output. Simulations themselves run
 * through ScenarioSpec + runScenario()/SweepEngine
 * (analysis/scenario.h, analysis/sweep.h), or through
 * SimulationSetup::Builder + simulateChecked() when a cell needs
 * inputs a spec cannot express.
 */

#ifndef GAIA_ANALYSIS_HARNESS_H
#define GAIA_ANALYSIS_HARNESS_H

#include <string>
#include <vector>

#include "core/queues.h"
#include "workload/job.h"

namespace gaia {

/**
 * The paper's standard two-queue configuration with J_avg
 * calibrated on `trace` (the "historical queue-wide average").
 */
QueueConfig calibratedQueues(
    const JobTrace &trace,
    Seconds short_wait = 6 * kSecondsPerHour,
    Seconds long_wait = 24 * kSecondsPerHour);

/**
 * Render a numeric series as a one-line unicode sparkline (8
 * levels), for quick shape checks in bench output.
 */
std::string sparkline(const std::vector<double> &values,
                      std::size_t width = 72);

/** Downsample a series to `width` points by averaging buckets. */
std::vector<double> downsample(const std::vector<double> &values,
                               std::size_t width);

} // namespace gaia

#endif // GAIA_ANALYSIS_HARNESS_H
