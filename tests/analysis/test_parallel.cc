/** @file Tests for parallelFor, the sweep index loop. */

#include "analysis/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace gaia {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ResultsSlottedByIndex)
{
    const std::size_t n = 257;
    std::vector<double> out(n, 0.0);
    parallelFor(n,
                [&](std::size_t i) {
                    out[i] = static_cast<double>(i) * 2.0;
                });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_DOUBLE_EQ(out[i], 2.0 * static_cast<double>(i));
}

TEST(ParallelFor, ZeroAndSingleItem)
{
    int calls = 0;
    parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ExplicitSingleThreadRunsInline)
{
    std::vector<std::size_t> order;
    parallelFor(
        5, [&](std::size_t i) { order.push_back(i); }, 1);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::atomic<int> sum{0};
    parallelFor(
        3, [&](std::size_t i) { sum += static_cast<int>(i); }, 16);
    EXPECT_EQ(sum.load(), 3);
}

} // namespace
} // namespace gaia
