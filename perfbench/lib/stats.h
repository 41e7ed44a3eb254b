/**
 * @file
 * Order statistics for benchmark samples: median, quartiles, the
 * relative spread the acceptance rule uses, and nearest-rank
 * percentiles with the "well-supported" rule for latency reports.
 */

#ifndef PERFBENCH_LIB_STATS_H
#define PERFBENCH_LIB_STATS_H

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** Median of `values` (mean of the middle pair when even); 0 when
 *  empty. */
double median(std::vector<double> values);

/**
 * Quartiles q1, q2, q3 exactly as Python's
 * `statistics.quantiles(values, n=4)` (the default "exclusive"
 * method) computes them. One value yields that value three times;
 * an empty sample yields zeros.
 */
std::array<double, 3> quartiles(std::vector<double> values);

/** (q3 - q1) / median, the run-to-run spread as a share of the
 *  median; 0 when the median is 0. */
double relativeIqr(const std::vector<double> &values);

/**
 * Nearest-rank percentile `p` in [0, 1] of `sorted` (ascending):
 * the smallest sample with at least p·n samples at or below it.
 */
double percentileSorted(const std::vector<double> &sorted, double p);

/**
 * Whether percentile `p` of `count` samples has at least `beyond`
 * samples above it, so that one outlier cannot set it.
 */
bool wellSupported(std::size_t count, double p,
                   std::size_t beyond = 10);

/** Summary of one timing series for the report. */
struct Distribution
{
    std::size_t count = 0;
    /** median() of the samples. */
    double p50 = 0.0;
    /** Nearest-rank 99th percentile. */
    double p99 = 0.0;
    /** Highest of p90 / p99 / p99.9 / p99.99 that wellSupported()
     *  admits; p50 when none is. */
    double top_p = 0.5;
    double top = 0.0;
};

/** Sorts `samples` in place and summarises them. */
Distribution summarize(std::vector<double> &samples);

/** "p99.9"-style label for percentile `p`. */
std::string percentileLabel(double p);

} // namespace perfbench

#endif // PERFBENCH_LIB_STATS_H
