/**
 * @file
 * Tests for the benches' shared flag parser (bench/bench_util.hh):
 * --threads, --iters and --jobs take a whole positive decimal
 * integer; --seed and --trace-capacity a whole decimal integer that
 * fits their field; --deadline a finite number
 * of seconds >= 0. Anything else is a usage error (exit 1) before
 * any simulation is built.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hh"

using namespace ocor;

namespace
{

/** parseOptions over the command line "bench FLAG VALUE" (or
 * "bench FLAG" when @p value is null). */
bench::Options
parse(const std::string &flag, const char *value)
{
    std::vector<std::string> args{"bench", flag};
    if (value)
        args.emplace_back(value);
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
    EXPECT_EQ(parse("--threads", "4").threads, 4u);
    EXPECT_EQ(parse("--iters", "4").iterations, 4u);
    EXPECT_EQ(parse("--jobs", "4").jobs, 4u);
}

TEST(BenchOptionsDeathTest, WholeNumberFlagsTakeOnlyWholeNumbersThatFit)
{
    for (const std::string flag : {"--seed", "--trace-capacity"}) {
        for (const char *bad : {"-1", "abc", "4x", "", " 4", "+4",
                                "1.5", "18446744073709551616"}) {
            EXPECT_EXIT(parse(flag, bad), testing::ExitedWithCode(1),
                        flag + " takes a whole number")
                << flag << " '" << bad << "'";
        }
    }
    EXPECT_EQ(parse("--seed", "18446744073709551615").seed,
              18446744073709551615ull);
    EXPECT_EQ(parse("--trace-capacity", "4096").traceCapacity, 4096u);
}

TEST(BenchOptionsDeathTest, DeadlineTakesOnlyFiniteNonNegativeSeconds)
{
    for (const char *bad :
         {"abc", "-1", "nan", "inf", "1e400", "", "5s", " 5"}) {
        EXPECT_EXIT(parse("--deadline", bad),
                    testing::ExitedWithCode(1),
                    "--deadline takes a finite number")
            << "'" << bad << "'";
    }
    EXPECT_EQ(parse("--deadline", "0").deadline, 0.0);
    EXPECT_EQ(parse("--deadline", "2.5").deadline, 2.5);
    EXPECT_EQ(parse("--deadline", "1e10").deadline, 1e10);
}

TEST(BenchOptions, CheckedRunsBypassTheJournal)
{
    // A journal hit runs no checker, so --check gets the in-memory
    // cache (empty path), as --fresh does.
    EXPECT_EQ(bench::cacheFor(parse("--check", nullptr)).path(), "");
    EXPECT_EQ(bench::cacheFor(parse("--check=mutex", nullptr)).path(),
              "");
    EXPECT_EQ(bench::cacheFor(parse("--fresh", nullptr)).path(), "");
    EXPECT_EQ(bench::cacheFor(parse("--threads", "4")).path(),
              "ocor_results.tsv");
}
