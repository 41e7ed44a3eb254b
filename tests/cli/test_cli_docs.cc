/**
 * @file
 * Doc-drift guard for docs/CLI.md: every long flag the CLI and
 * bench parsers accept must be documented, and every long flag the
 * doc mentions must exist in a parser. The flag inventory is
 * extracted from the sources with the same `--[a-z][a-z0-9-]*`
 * pattern the CI docs job uses, so the doc cannot silently fall
 * behind a parser change (or vice versa).
 */

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::set<std::string>
extractFlags(const std::string &text)
{
    static const std::regex pattern("--[a-z][a-z0-9-]*");
    std::set<std::string> flags;
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        pattern);
         it != std::sregex_iterator(); ++it)
        flags.insert(it->str());
    return flags;
}

std::string
repoPath(const std::string &relative)
{
    return std::string(GAIA_REPO_DIR) + "/" + relative;
}

const std::vector<std::string> kFlagSources = {
    "src/cli/options.cc",
    "src/cli/gaia_serve.cc",
    "bench/bench_common.h",
    "bench/resilience_sweep.cc",
};

} // namespace

TEST(CliDocs, EveryAcceptedFlagIsDocumented)
{
    const std::set<std::string> documented =
        extractFlags(readFile(repoPath("docs/CLI.md")));
    ASSERT_FALSE(documented.empty());
    for (const std::string &source : kFlagSources) {
        for (const std::string &flag :
             extractFlags(readFile(repoPath(source)))) {
            EXPECT_TRUE(documented.count(flag) > 0)
                << flag << " (accepted by " << source
                << ") is missing from docs/CLI.md";
        }
    }
}

TEST(CliDocs, EveryDocumentedFlagIsAccepted)
{
    std::set<std::string> accepted;
    for (const std::string &source : kFlagSources) {
        for (const std::string &flag :
             extractFlags(readFile(repoPath(source))))
            accepted.insert(flag);
    }
    ASSERT_FALSE(accepted.empty());
    for (const std::string &flag :
         extractFlags(readFile(repoPath("docs/CLI.md")))) {
        EXPECT_TRUE(accepted.count(flag) > 0)
            << flag
            << " is documented in docs/CLI.md but no parser "
               "accepts it";
    }
}

TEST(CliDocs, ReadmeLinksTheCliAndArchitectureDocs)
{
    const std::string readme = readFile(repoPath("README.md"));
    EXPECT_NE(readme.find("docs/CLI.md"), std::string::npos);
    EXPECT_NE(readme.find("docs/ARCHITECTURE.md"),
              std::string::npos);
}
