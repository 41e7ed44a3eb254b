/**
 * @file
 * Flag parsing through the real binaries: a flag a bench, gaia_run
 * or gaia_serve does not know, or a value it cannot use, exits with
 * code 2 before any simulation runs or any socket is bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

/** A per-process path in the temp directory. */
std::filesystem::path
scratchPath(const std::string &name)
{
    return std::filesystem::temp_directory_path() /
           (name + "." + std::to_string(::getpid()));
}

/** Exit code and stderr of `binary args`, killed after 60 s. */
std::pair<int, std::string>
runProbe(const std::string &binary, const std::string &args)
{
    const std::filesystem::path err = scratchPath("gaia_probe_stderr");
    const std::string command = "timeout 60 " + binary + " " + args +
                                " >/dev/null 2>" + err.string();
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    std::ostringstream text;
    text << std::ifstream(err).rdbuf();
    std::filesystem::remove(err);
    return {WEXITSTATUS(status), text.str()};
}

int
exitCode(const std::string &binary, const std::string &args)
{
    return runProbe(binary, args).first;
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

/** Expect exit 2 and one stderr line naming `needle`. */
void
expectRejected(const std::string &binary, const std::string &args,
               const std::string &needle)
{
    const auto [code, err] = runProbe(binary, args);
    EXPECT_EQ(code, 2) << binary << " " << args;
    EXPECT_NE(err.find(needle), std::string::npos)
        << binary << " " << args << ": " << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1)
        << binary << " " << args << ": " << err;
}

/** gaia_serve with its socket in the temp directory, so a probe that
 *  wrongly starts serving binds nothing in the build tree. */
std::string
serveBin()
{
    return std::string(GAIA_SERVE_BIN) + " --socket " +
           scratchPath("gaia_probe_sock").string();
}

TEST(BenchArgs, SharedFlagsRejectTheSameInputsEverywhere)
{
    const std::vector<std::pair<std::string, std::string>> probes = {
        {"--threads 0", "--threads"},
        {"--threads abc", "--threads"},
        {"--threads=abc", "--threads"},
        {"--threads 4294967297", "--threads"},
        {"--metrics-out /nonexistent/dir/m.json", "--metrics-out"},
        {"--bogus", "--bogus"},
        // Last on the line: the flag has no value.
        {"--metrics-out", "--metrics-out"},
        {"--threads", "--threads"},
    };
    for (const std::string &binary :
         {std::string(GAIA_RUN_BIN), serveBin(), std::string(FIG08_BIN)}) {
        for (const auto &[args, needle] : probes)
            expectRejected(binary, args, needle);
    }
}

TEST(BenchArgs, ServeRejectsBadServeFlagsAndRunOnlyFlags)
{
    const std::vector<std::pair<std::string, std::string>> probes = {
        {"--accel -1", "--accel"},
        {"--accel nan", "--accel"},
        {"--accel inf", "--accel"},
        {"--queue-capacity 99999999999999", "--queue-capacity"},
        {"--output-dir x", "--output-dir"},
        {"--export-workload x", "--export-workload"},
        {"--print-fingerprint", "--print-fingerprint"},
        {"--socket", "missing value for --socket"},
    };
    for (const auto &[args, needle] : probes)
        expectRejected(serveBin(), args, needle);
}

TEST(BenchArgs, SinkWriteFailureAtTheEndExitsTwo)
{
    // /dev/full opens fine, so the up-front check passes, and every
    // write to it fails.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    const std::filesystem::path out = scratchPath("gaia_sink_probe");
    expectRejected("env GAIA_RESULTS_DIR=" + out.string() + " " + FIG08_BIN,
                   "--metrics-out /dev/full", "--metrics-out");
    expectRejected(GAIA_RUN_BIN,
                   "--workload motivating --span-days 1 --output-dir " +
                       out.string() + " --trace-out /dev/full",
                   "--trace-out");
    std::filesystem::remove_all(out);
}

TEST(BenchArgs, SinkMayGoUnderTheDirectoryTheRunCreates)
{
    // Neither directory exists yet: the bench and gaia_run make it
    // before checking the sink path.
    const std::filesystem::path out = scratchPath("gaia_sink_dir");
    std::filesystem::remove_all(out);
    const std::string metrics = (out / "bench" / "m.json").string();
    EXPECT_EQ(exitCode("env GAIA_RESULTS_DIR=" + (out / "bench").string() +
                           " " + FIG08_BIN,
                       "--metrics-out " + metrics),
              0);
    EXPECT_GT(std::filesystem::file_size(metrics), 0u);

    const std::string trace = (out / "run" / "t.json").string();
    EXPECT_EQ(exitCode(GAIA_RUN_BIN,
                       "--workload motivating --span-days 1 --output-dir " +
                           (out / "run").string() + " --trace-out " + trace),
              0);
    EXPECT_GT(std::filesystem::file_size(trace), 0u);
    std::filesystem::remove_all(out);
}

TEST(BenchArgs, MalformedFaultSeedExitsTwo)
{
    EXPECT_EQ(exitCode(RESILIENCE_BIN, "--fault-seed abc"), 2);
    EXPECT_EQ(exitCode(RESILIENCE_BIN, "--fault-seed=7x"), 2);
    EXPECT_EQ(exitCode(RESILIENCE_BIN, "--fault-seed"), 2);
    EXPECT_EQ(exitCode(RESILIENCE_BIN, "--fault-seed -1"), 2);
}

/** resilience_sweep's CSV for `args`, written under `dir`. */
std::string
resilienceCsv(const std::filesystem::path &dir, const std::string &args)
{
    const std::string env = "env GAIA_RESULTS_DIR=" + dir.string() + " ";
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
