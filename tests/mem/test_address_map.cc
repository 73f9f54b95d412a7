/**
 * @file
 * Unit tests for address interpretation and MC placement.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/address_map.hh"

using namespace ocor;

TEST(AddressMap, LineAlignment)
{
    AddressMap amap(MeshShape{8, 8}, 128);
    EXPECT_EQ(amap.lineAddr(0x0), 0u);
    EXPECT_EQ(amap.lineAddr(0x7f), 0u);
    EXPECT_EQ(amap.lineAddr(0x80), 0x80u);
    EXPECT_EQ(amap.lineAddr(0x1234), 0x1200u);
}

TEST(AddressMap, HomeInterleavesAcrossAllBanks)
{
    AddressMap amap(MeshShape{8, 8}, 128);
    std::set<NodeId> homes;
    for (Addr line = 0; line < 64; ++line)
        homes.insert(amap.homeOf(line * 128));
    EXPECT_EQ(homes.size(), 64u);
}

TEST(AddressMap, HomeStableWithinLine)
{
    AddressMap amap(MeshShape{8, 8}, 128);
    for (Addr off = 0; off < 128; ++off)
        EXPECT_EQ(amap.homeOf(0x4500 + off), amap.homeOf(0x4500));
}

TEST(AddressMap, PaperMcPlacement8x8)
{
    // Eight MCs at the middle four nodes of the top and bottom rows
    // (Figure 3).
    AddressMap amap(MeshShape{8, 8}, 128);
    const auto &mcs = amap.mcNodes();
    ASSERT_EQ(mcs.size(), 8u);
    EXPECT_EQ(mcs[0], 2u);
    EXPECT_EQ(mcs[1], 3u);
    EXPECT_EQ(mcs[2], 4u);
    EXPECT_EQ(mcs[3], 5u);
    EXPECT_EQ(mcs[4], 58u);
    EXPECT_EQ(mcs[5], 59u);
    EXPECT_EQ(mcs[6], 60u);
    EXPECT_EQ(mcs[7], 61u);
}

TEST(AddressMap, McPlacementScalesDown)
{
    AddressMap small(MeshShape{2, 2}, 128);
    ASSERT_EQ(small.mcNodes().size(), 4u);
    AddressMap mid(MeshShape{4, 4}, 128);
    ASSERT_EQ(mid.mcNodes().size(), 8u);
    for (NodeId n : mid.mcNodes())
        EXPECT_LT(n, 16u);
}

TEST(AddressMap, McNodesAscendAndAreUnique)
{
    // System keeps one controller per entry, in this order, and finds
    // a node's controller by binary search.
    for (const MeshShape mesh :
         {MeshShape{1, 1}, MeshShape{4, 1}, MeshShape{2, 2},
          MeshShape{3, 5}, MeshShape{4, 4}, MeshShape{8, 8}}) {
        const AddressMap amap(mesh, 128);
        const std::vector<NodeId> &mcs = amap.mcNodes();
        ASSERT_FALSE(mcs.empty());
        for (std::size_t i = 1; i < mcs.size(); ++i)
            EXPECT_LT(mcs[i - 1], mcs[i])
                << mesh.width << "x" << mesh.height << " entry " << i;
    }
}

TEST(AddressMap, EveryAddressHasAnMc)
{
    AddressMap amap(MeshShape{8, 8}, 128);
    std::set<NodeId> used;
    for (Addr line = 0; line < 4096; ++line)
        used.insert(amap.mcOf(line * 128));
    // All eight controllers serve some address.
    EXPECT_EQ(used.size(), 8u);
    for (NodeId n : used) {
        bool in_list = false;
        for (NodeId mc : amap.mcNodes())
            in_list |= mc == n;
        EXPECT_TRUE(in_list);
    }
}

TEST(AddressMapDeath, RejectsNonPowerOfTwoLine)
{
    EXPECT_EXIT(AddressMap(MeshShape{8, 8}, 100),
                ::testing::ExitedWithCode(1), "power of two");
}
