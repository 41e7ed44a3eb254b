#include "lib/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.empty())
        return {0.0, 0.0, 0.0};
    if (values.size() == 1)
        return {values[0], values[0], values[0]};
    std::sort(values.begin(), values.end());
    // statistics.quantiles(method="exclusive"): m = n + 1, and cut
    // point i interpolates between data[j - 1] and data[j] where
    // j = floor(i * m / 4), clamped to the sample's ends.
    const long n = static_cast<long>(values.size());
    const long m = n + 1;
    std::array<double, 3> out{};
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, n - 1);
        const long delta = i * m - j * 4;
        out[static_cast<std::size_t>(i - 1)] =
            (values[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(4 - delta) +
             values[static_cast<std::size_t>(j)] *
                 static_cast<double>(delta)) /
            4.0;
    }
    return out;
}

double
relativeIqr(const std::vector<double> &values)
{
    const std::array<double, 3> q = quartiles(values);
    return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / q[1];
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::ceil(p * static_cast<double>(sorted.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

bool
wellSupported(std::size_t count, double p, std::size_t beyond)
{
    // Samples strictly above the nearest-rank position.
    const double rank = std::ceil(p * static_cast<double>(count));
    return static_cast<double>(count) - rank >=
           static_cast<double>(beyond);
}

Distribution
summarize(std::vector<double> &samples)
{
    std::sort(samples.begin(), samples.end());
    Distribution d;
    d.count = samples.size();
    d.p50 = median(samples);
    d.p99 = percentileSorted(samples, 0.99);
    d.top = d.p50;
    for (const double p : {0.9, 0.99, 0.999, 0.9999}) {
        if (!wellSupported(d.count, p))
            break;
        d.top_p = p;
        d.top = percentileSorted(samples, p);
    }
    return d;
}

std::string
percentileLabel(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", p * 100.0);
    return buf;
}

} // namespace perfbench
