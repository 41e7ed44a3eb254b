/**
 * @file
 * Bench CSV pins: each directory under tests/golden/bench/ is named
 * after a figure bench and holds that bench's CSV mirrors. The test
 * runs every such bench into a fresh GAIA_RESULTS_DIR and compares
 * each pinned CSV byte for byte, so a change to a bench's scenario
 * wiring, policy pipeline or number formatting fails here.
 *
 * Set GAIA_UPDATE_GOLDENS=1 to rewrite the pins after an
 * *intentional* behaviour change (and explain the diff).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(BenchPins, EveryPinnedCsvIsByteIdentical)
{
    const char *update_env = std::getenv("GAIA_UPDATE_GOLDENS");
    const bool update =
        update_env != nullptr && std::string(update_env) != "0";
    const fs::path out_root =
        fs::temp_directory_path() / "gaia_bench_pins";
    fs::remove_all(out_root);

    std::size_t benches = 0;
    for (const fs::directory_entry &dir :
         fs::directory_iterator(GAIA_BENCH_GOLDEN_DIR)) {
        const std::string bench = dir.path().filename().string();
        const fs::path out = out_root / bench;
        const std::string command =
            "GAIA_RESULTS_DIR=" + out.string() + " " +
            GAIA_BENCH_DIR + "/" + bench + " >/dev/null 2>&1";
        const int status = std::system(command.c_str());
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << command;
        ++benches;
        for (const fs::directory_entry &pin :
             fs::directory_iterator(dir.path())) {
            const fs::path produced = out / pin.path().filename();
            ASSERT_TRUE(fs::exists(produced))
                << bench << " no longer writes "
                << pin.path().filename();
            if (update)
                fs::copy_file(produced, pin.path(),
                              fs::copy_options::overwrite_existing);
            EXPECT_EQ(slurp(pin.path()), slurp(produced))
                << bench << ": " << pin.path().filename()
                << " drifted from its pin";
        }
    }
    EXPECT_GT(benches, 0u);
    fs::remove_all(out_root);
}

} // namespace
