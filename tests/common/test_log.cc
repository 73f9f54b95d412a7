/**
 * @file
 * Unit tests for the logging/error helpers.
 */

#include <gtest/gtest.h>

#include "common/log.hh"

using namespace ocor;

TEST(Log, FormatvBasic)
{
    EXPECT_EQ(detail::formatv("x=%d y=%s", 3, "abc"), "x=3 y=abc");
}

TEST(Log, FormatvEmpty)
{
    EXPECT_EQ(detail::formatv("%s", ""), "");
}

TEST(Log, FormatvLongString)
{
    std::string big(1000, 'q');
    EXPECT_EQ(detail::formatv("%s", big.c_str()), big);
}

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(ocor_panic("boom %d", 42), "boom 42");
}

TEST(LogDeath, FatalExits)
{
    EXPECT_EXIT(ocor_fatal("bad config"),
                ::testing::ExitedWithCode(1), "bad config");
}

TEST(LogDeath, PanicNamesTheRun)
{
    RunLabelScope outer("botss 16 1 3 1 8 15");
    {
        RunLabelScope inner("inner");
    } // restores the outer label
    EXPECT_DEATH(ocor_panic("boom"),
                 "boom .* in run \\[botss 16 1 3 1 8 15\\]");
}

TEST(Log, LevelsOrdered)
{
    EXPECT_LT(static_cast<int>(LogLevel::Silent),
              static_cast<int>(LogLevel::Warn));
    EXPECT_LT(static_cast<int>(LogLevel::Warn),
              static_cast<int>(LogLevel::Inform));
}
