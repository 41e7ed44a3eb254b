/** @file Tests for the work-stealing Executor and parallelFor. */

#include "common/executor.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/parallel.h"
#include "common/logging.h"

namespace gaia {
namespace {

/** Restores the thread override on scope exit. */
struct ExecutorConfigGuard
{
    ~ExecutorConfigGuard() { setParallelThreads(0); }
};

TEST(Executor, RunsSubmittedTasks)
{
    Executor pool(2);
    EXPECT_EQ(pool.workerCount(), 2u);

    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i)
        group.run([&] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 64);
}

TEST(Executor, ZeroWorkerRequestStillRuns)
{
    Executor pool(0);
    EXPECT_EQ(pool.workerCount(), 1u);

    std::atomic<bool> ran{false};
    TaskGroup group(pool);
    group.run([&] { ran.store(true); });
    group.wait();
    EXPECT_TRUE(ran.load());
}

TEST(Executor, WaitIsReusableAfterCompletion)
{
    Executor pool(2);
    TaskGroup group(pool);
    std::atomic<int> ran{0};

    group.run([&] { ran.fetch_add(1); });
    group.wait();
    group.run([&] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(Executor, NestedGroupsComposeWithoutDeadlock)
{
    // Every task opens an inner group and waits on it; with only
    // two workers this deadlocks unless wait() helps run queued
    // tasks instead of blocking.
    Executor pool(2);
    std::atomic<int> leaves{0};

    TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i) {
        outer.run([&] {
            TaskGroup inner(pool);
            for (int j = 0; j < 8; ++j)
                inner.run([&] { leaves.fetch_add(1); });
            inner.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(leaves.load(), 64);
}

TEST(Executor, WaitRethrowsFirstTaskError)
{
    Executor pool(2);
    TaskGroup group(pool);
    std::atomic<int> completed{0};

    for (int i = 0; i < 16; ++i) {
        group.run([&, i] {
            if (i == 5)
                throw std::runtime_error("task 5 failed");
            completed.fetch_add(1);
        });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    // Every non-throwing task still ran to completion.
    EXPECT_EQ(completed.load(), 15);
}

TEST(Executor, DestructorDrainsWithoutRethrow)
{
    Executor pool(2);
    std::atomic<int> ran{0};
    {
        TaskGroup group(pool);
        for (int i = 0; i < 32; ++i) {
            group.run([&] {
                ran.fetch_add(1);
                throw std::runtime_error("always fails");
            });
        }
        // No wait(): the destructor must drain and swallow.
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(Executor, TryRunOneTaskReportsIdle)
{
    Executor pool(1);
    EXPECT_FALSE(pool.tryRunOneTask());

    TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 4; ++i)
        group.run([&] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 4);
    EXPECT_FALSE(pool.tryRunOneTask());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(
        n, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroAndSingleIndexRunInline)
{
    parallelFor(0, [](std::size_t) { FAIL() << "n = 0 called fn"; },
                8);

    std::size_t calls = 0;
    parallelFor(1, [&](std::size_t i) { calls += i + 1; }, 8);
    EXPECT_EQ(calls, 1u);
}

TEST(ParallelFor, PropagatesExceptionOnPoolPath)
{
    EXPECT_THROW(parallelFor(
                     100,
                     [](std::size_t i) {
                         if (i == 37)
                             throw std::runtime_error("boom");
                     },
                     4),
                 std::runtime_error);
}

TEST(ParallelFor, NestedLoopsCompose)
{
    // The sweep shape: outer groups, inner replicas, both parallel.
    std::atomic<int> cells{0};
    parallelFor(
        8,
        [&](std::size_t) {
            parallelFor(
                8, [&](std::size_t) { cells.fetch_add(1); }, 4);
        },
        4);
    EXPECT_EQ(cells.load(), 64);
}

TEST(Threads, ExplicitOverrideWins)
{
    ExecutorConfigGuard guard;
    setParallelThreads(3);
    EXPECT_EQ(defaultParallelThreads(), 3u);
    setParallelThreads(0);
    EXPECT_GE(defaultParallelThreads(), 1u);
}

TEST(Threads, GarbageEnvValueWarnsOnceAndFallsBack)
{
    ExecutorConfigGuard guard;
    setParallelThreads(0);
    ASSERT_EQ(setenv("GAIA_THREADS", "abc", 1), 0);
    setQuiet(true);
    const std::size_t before = warningCount();
    const unsigned fallback = defaultParallelThreads();
    const std::size_t after_first = warningCount();
    const unsigned again = defaultParallelThreads();
    // Above the ceiling is invalid too: no pool of that size starts.
    const std::string above = std::to_string(kMaxParallelThreads + 1);
    for (const std::string &value : {above, std::string("4294967297")}) {
        EXPECT_EQ(setenv("GAIA_THREADS", value.c_str(), 1), 0);
        EXPECT_EQ(defaultParallelThreads(), fallback) << value;
    }
    setQuiet(false);
    unsetenv("GAIA_THREADS");

    EXPECT_GE(fallback, 1u);
    EXPECT_EQ(again, fallback);
    // The warning fires once per process, not once per call.
    EXPECT_EQ(after_first, before + 1);
    EXPECT_EQ(warningCount(), after_first);
}

TEST(Threads, ValidEnvValueIsUsed)
{
    ExecutorConfigGuard guard;
    setParallelThreads(0);
    ASSERT_EQ(setenv("GAIA_THREADS", "5", 1), 0);
    EXPECT_EQ(defaultParallelThreads(), 5u);
    ASSERT_EQ(setenv("GAIA_THREADS", "1024", 1), 0);
    EXPECT_EQ(defaultParallelThreads(), kMaxParallelThreads);
    unsetenv("GAIA_THREADS");
}

} // namespace
} // namespace gaia
