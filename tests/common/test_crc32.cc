/**
 * @file
 * CRC-32 known-answer test: the results journal's row stamps are
 * CRC-32 values, so the function must keep computing the standard
 * check value or every journal on disk stops loading.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/crc32.hh"

using namespace ocor;

TEST(Crc32, MatchesTheStandardCheckValue)
{
    const std::string msg = "123456789";
    EXPECT_EQ(crc32Update(0, msg.data(), msg.size()), 0xCBF43926u);
}
