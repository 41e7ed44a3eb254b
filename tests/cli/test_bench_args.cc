/**
 * @file
 * Bench flag parsing through the real binaries: a flag a bench does
 * not know, or a value it cannot use, exits with code 2 before any
 * simulation runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

int
exitCode(const std::string &binary, const std::string &args)
{
    const std::string command =
        binary + " " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_NE(status, -1);
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
}

TEST(BenchArgs, UnknownFlagExitsTwo)
{
    EXPECT_EQ(exitCode(FIG08_BIN, "--bogus-flag"), 2);
    EXPECT_EQ(exitCode(FIG08_BIN, "--thread 1"), 2);
}

TEST(BenchArgs, EveryBenchRejectsAnUnknownFlag)
{
    // micro_benchmarks is skipped: its argv belongs to
    // google-benchmark.
    std::istringstream names(GAIA_BENCH_NAMES);
    std::string name;
    std::size_t checked = 0;
    while (std::getline(names, name, ',')) {
        if (name == "micro_benchmarks")
            continue;
        EXPECT_EQ(exitCode(std::string(GAIA_BENCH_DIR) + "/" + name,
                           "--bogus-flag"),
                  2)
            << name;
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST(BenchArgs, BadThreadsValueExitsTwo)
{
    EXPECT_EQ(exitCode(FIG08_BIN, "--threads 0"), 2);
    EXPECT_EQ(exitCode(FIG08_BIN, "--threads=abc"), 2);
    EXPECT_EQ(exitCode(FIG08_BIN, "--threads 4294967297"), 2);
    EXPECT_EQ(exitCode(FIG08_BIN, "--threads"), 2);
}

TEST(BenchArgs, MalformedFaultSeedExitsTwo)
{
    EXPECT_EQ(exitCode(RESILIENCE_BIN, "--fault-seed abc"), 2);
    EXPECT_EQ(exitCode(RESILIENCE_BIN, "--fault-seed=7x"), 2);
    EXPECT_EQ(exitCode(RESILIENCE_BIN, "--fault-seed"), 2);
}

/** resilience_sweep's CSV for `args`, written under `dir`. */
std::string
resilienceCsv(const std::filesystem::path &dir, const std::string &args)
{
    const std::string env = "GAIA_RESULTS_DIR=" + dir.string() + " ";
    EXPECT_EQ(exitCode(env + RESILIENCE_BIN, args), 0);
    std::ifstream in(dir / "resilience_sweep.csv");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(BenchArgs, FaultSeedTakesEffectInBothSpellings)
{
    const std::filesystem::path root =
        std::filesystem::temp_directory_path() / "gaia_bench_args";
    std::filesystem::remove_all(root);
    const std::string spaced = resilienceCsv(root / "a", "--fault-seed 7");
    const std::string equals = resilienceCsv(root / "b", "--fault-seed=7");
    const std::string fallback = resilienceCsv(root / "c", "");
    ASSERT_FALSE(spaced.empty());
    EXPECT_EQ(spaced, equals);
    EXPECT_NE(spaced, fallback);
    std::filesystem::remove_all(root);
}

} // namespace
