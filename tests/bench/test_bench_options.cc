/**
 * @file
 * Tests for the benches' shared flag parser (bench/bench_util.hh):
 * --threads, --iters and --jobs take a whole positive decimal
 * integer, and anything else is a usage error (exit 1) before any
 * simulation is built.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace ocor;

namespace
{

/** parseOptions over the command line "bench FLAG VALUE". A valid
 * line arms the crash handler, so every call runs in a death test's
 * child process. */
bench::Options
parse(const std::string &flag, const std::string &value)
{
    std::vector<std::string> args{"bench", flag, value};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::parseOptions(static_cast<int>(argv.size()),
                               argv.data());
}

} // namespace

TEST(BenchOptionsDeathTest, CountFlagsRejectAllButPositiveIntegers)
{
    for (const std::string flag : {"--threads", "--iters", "--jobs"}) {
        for (const char *bad : {"-1", "0", "abc", "4x", ""}) {
            EXPECT_EXIT(parse(flag, bad), testing::ExitedWithCode(1),
                        flag + " takes a positive integer")
                << flag << " '" << bad << "'";
        }
    }
}

TEST(BenchOptionsDeathTest, CountFlagsAcceptPositiveIntegers)
{
    EXPECT_EXIT(std::exit(parse("--threads", "4").threads == 4 ? 0 : 2),
                testing::ExitedWithCode(0), "");
    EXPECT_EXIT(
        std::exit(parse("--iters", "4").iterations == 4 ? 0 : 2),
        testing::ExitedWithCode(0), "");
    EXPECT_EXIT(std::exit(parse("--jobs", "4").jobs == 4 ? 0 : 2),
                testing::ExitedWithCode(0), "");
}
