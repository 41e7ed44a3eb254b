#include "lib/host_probe.h"

#include <algorithm>
#include <unordered_map>

#include "lib/layers.h"

namespace perfbench {

namespace {

constexpr std::size_t kSortValues = std::size_t{1} << 20;
constexpr std::uint64_t kMapInserts = 300000;
constexpr std::uint64_t kMapLookups = 600000;

/** SplitMix64: a fixed, portable stream for the probe's input. */
std::uint64_t
splitMix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

HostProbe::HostProbe() : input_(kSortValues), work_(kSortValues)
{
    std::uint64_t state = 42;
    for (double &x : input_)
        x = static_cast<double>(splitMix(state) >> 11);
}

double
HostProbe::run()
{
    std::copy(input_.begin(), input_.end(), work_.begin());
    const double begin = nowSeconds();
    std::sort(work_.begin(), work_.end());
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < kMapInserts; ++i)
        map[(i * 0x9E3779B97F4A7C15ull) >> 20] += i;
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; i < kMapLookups; ++i) {
        const auto it = map.find((i * 0x9E3779B97F4A7C15ull) >> 20);
        if (it != map.end())
            found += it->second;
    }
    const double seconds = nowSeconds() - begin;
    sink_ += found + static_cast<std::uint64_t>(work_[kSortValues / 2]);
    return seconds;
}

double
atReferenceSpeed(double value, const std::string &unit, double probe_s)
{
    if (probe_s <= 0.0)
        return value;
    const double slower = kReferenceProbeSeconds / probe_s;
    if (unit == "s" || unit == "ms" || unit == "us" || unit == "ns")
        return value * slower;
    if (unit == "1/s")
        return value / slower;
    return value;
}

} // namespace perfbench
