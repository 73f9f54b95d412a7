/**
 * @file
 * Integration tests of the MOESI directory protocol: L1s and L2
 * banks wired through a real mesh, exercised with loads and stores.
 *
 * These tests drive the actual System (network + caches + directory
 * + memory controllers) via a tiny helper that issues accesses from
 * chosen cores and runs the clock until completion, then inspect
 * protocol invariants white-box.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/stats_registry.hh"
#include "sim/system.hh"
#include "workload/program.hh"

using namespace ocor;

namespace
{

/** 16-node system with idle programs; accesses injected by hand. */
struct CohRig
{
    SystemConfig cfg;
    std::unique_ptr<System> sys;
    Cycle now = 0;

    explicit CohRig(const MemParams &mem = MemParams{})
    {
        cfg.mesh = MeshShape{4, 4};
        cfg.numThreads = 16;
        cfg.mem = mem;
        std::vector<Program> progs;
        for (unsigned t = 0; t < 16; ++t)
            progs.push_back(ProgramBuilder().compute(1).build());
        BgTrafficConfig bg; // rate 0: silent cores
        sys = std::make_unique<System>(cfg, std::move(progs), bg);
        run(200); // let the trivial programs finish
    }

    void
    run(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now)
            sys->tick(now);
    }

    /** Issue one access and run until it completes (or timeout). */
    bool
    access(NodeId node, Addr addr, bool write,
           Cycle timeout = 20000)
    {
        bool done = false;
        bool accepted = sys->l1(node).request(
            addr, write, now, [&](Cycle) { done = true; });
        if (!accepted)
            return false;
        for (Cycle end = now + timeout; now < end && !done; ++now)
            sys->tick(now);
        return done;
    }
};

} // namespace

TEST(Coherence, ColdReadFillsExclusive)
{
    CohRig rig;
    const Addr a = 0x10000;
    ASSERT_TRUE(rig.access(1, a, false));
    // MOESI: sole reader is granted E.
    EXPECT_EQ(rig.sys->l1(1).lineState(a), CoherState::E);
    NodeId home = rig.sys->addressMap().homeOf(a);
    EXPECT_EQ(rig.sys->l2(home).ownerOf(a), 1u);
}

TEST(Coherence, SecondReaderSharesAndOwnerDowngrades)
{
    CohRig rig;
    const Addr a = 0x10000;
    ASSERT_TRUE(rig.access(1, a, false));
    ASSERT_TRUE(rig.access(2, a, false));
    // First reader held E; a second GetS downgrades it to O and the
    // new reader gets S.
    EXPECT_EQ(rig.sys->l1(2).lineState(a), CoherState::S);
    EXPECT_EQ(rig.sys->l1(1).lineState(a), CoherState::O);
}

TEST(Coherence, WriteInvalidatesSharers)
{
    CohRig rig;
    const Addr a = 0x20000;
    ASSERT_TRUE(rig.access(1, a, false));
    ASSERT_TRUE(rig.access(2, a, false));
    ASSERT_TRUE(rig.access(3, a, true)); // GetM
    EXPECT_EQ(rig.sys->l1(3).lineState(a), CoherState::M);
    EXPECT_EQ(rig.sys->l1(1).lineState(a), CoherState::I);
    EXPECT_EQ(rig.sys->l1(2).lineState(a), CoherState::I);
    NodeId home = rig.sys->addressMap().homeOf(a);
    EXPECT_EQ(rig.sys->l2(home).ownerOf(a), 3u);
    EXPECT_EQ(rig.sys->l2(home).sharersOf(a), 0u);
}

TEST(Coherence, SingleWriterInvariant)
{
    // Property: after any interleaving of writes from many cores, at
    // most one L1 holds the line in M/E, and the directory's owner
    // matches.
    CohRig rig;
    const Addr a = 0x30000;
    for (NodeId w : {0u, 5u, 9u, 14u, 3u, 7u})
        ASSERT_TRUE(rig.access(w, a, true));

    unsigned exclusive_holders = 0;
    for (NodeId n = 0; n < 16; ++n) {
        CoherState s = rig.sys->l1(n).lineState(a);
        if (s == CoherState::M || s == CoherState::E)
            ++exclusive_holders;
    }
    EXPECT_EQ(exclusive_holders, 1u);
    EXPECT_EQ(rig.sys->l1(7).lineState(a), CoherState::M);
}

TEST(Coherence, WriteAfterReadUpgrades)
{
    CohRig rig;
    const Addr a = 0x40000;
    ASSERT_TRUE(rig.access(4, a, false));
    ASSERT_TRUE(rig.access(5, a, false));
    // Now node 4 writes: needs a GetM although it already shares.
    ASSERT_TRUE(rig.access(4, a, true));
    EXPECT_EQ(rig.sys->l1(4).lineState(a), CoherState::M);
    EXPECT_EQ(rig.sys->l1(5).lineState(a), CoherState::I);
}

TEST(Coherence, SilentEToMUpgradeOnWriteHit)
{
    CohRig rig;
    const Addr a = 0x50000;
    ASSERT_TRUE(rig.access(6, a, false)); // E
    ASSERT_EQ(rig.sys->l1(6).lineState(a), CoherState::E);
    ASSERT_TRUE(rig.access(6, a, true)); // hit, silent upgrade
    EXPECT_EQ(rig.sys->l1(6).lineState(a), CoherState::M);
    EXPECT_EQ(rig.sys->l1(6).stats().hits, 1u);
}

TEST(Coherence, ReadAfterRemoteWriteSeesOwnership)
{
    CohRig rig;
    const Addr a = 0x60000;
    ASSERT_TRUE(rig.access(8, a, true));  // M at node 8
    ASSERT_TRUE(rig.access(9, a, false)); // GetS: owner downgrades
    EXPECT_EQ(rig.sys->l1(8).lineState(a), CoherState::O);
    EXPECT_EQ(rig.sys->l1(9).lineState(a), CoherState::S);
}

TEST(Coherence, EvictionWritebackAllowsRefill)
{
    CohRig rig;
    // L1: 64 sets, 4 ways. Fill 5 lines of the same set from node 0
    // to force an eviction of the first (M) line, then re-read it.
    const unsigned set_stride = 64 * 128; // sets * lineBytes
    ASSERT_TRUE(rig.access(0, 0x100000, true)); // will become victim
    for (unsigned i = 1; i <= 4; ++i)
        ASSERT_TRUE(rig.access(0, 0x100000 + i * set_stride, true));
    EXPECT_GE(rig.sys->l1(0).stats().evictions, 1u);
    EXPECT_GE(rig.sys->l1(0).stats().writebacks, 1u);
    // The evicted line is gone locally but must be re-readable.
    EXPECT_EQ(rig.sys->l1(0).lineState(0x100000), CoherState::I);
    ASSERT_TRUE(rig.access(0, 0x100000, false));
    EXPECT_NE(rig.sys->l1(0).lineState(0x100000), CoherState::I);
}

TEST(Coherence, ManyLinesManyCores)
{
    // Smoke property: a pseudo-random mix of reads/writes from all
    // cores to a small line pool completes (no protocol deadlock)
    // and preserves the single-writer invariant on every line.
    CohRig rig;
    const unsigned lines = 8;
    std::uint64_t x = 12345;
    for (int i = 0; i < 200; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        NodeId node = static_cast<NodeId>((x >> 33) % 16);
        Addr addr = 0x80000 + ((x >> 40) % lines) * 128;
        bool write = ((x >> 50) & 1) != 0;
        ASSERT_TRUE(rig.access(node, addr, write))
            << "iteration " << i;
    }
    for (unsigned l = 0; l < lines; ++l) {
        Addr addr = 0x80000 + l * 128;
        unsigned excl = 0;
        for (NodeId n = 0; n < 16; ++n) {
            CoherState s = rig.sys->l1(n).lineState(addr);
            if (s == CoherState::M || s == CoherState::E)
                ++excl;
        }
        EXPECT_LE(excl, 1u) << "line " << l;
    }
}

TEST(Coherence, DirectoryQueuesConcurrentRequests)
{
    // Two simultaneous writers to one line: both must eventually
    // complete (the home serializes, the loser queues).
    CohRig rig;
    const Addr a = 0x90000;
    bool done1 = false, done2 = false;
    ASSERT_TRUE(rig.sys->l1(1).request(a, true, rig.now,
                                       [&](Cycle) { done1 = true; }));
    ASSERT_TRUE(rig.sys->l1(2).request(a, true, rig.now,
                                       [&](Cycle) { done2 = true; }));
    rig.run(20000);
    EXPECT_TRUE(done1);
    EXPECT_TRUE(done2);
    unsigned excl = 0;
    for (NodeId n : {1u, 2u}) {
        CoherState s = rig.sys->l1(n).lineState(a);
        if (s == CoherState::M || s == CoherState::E)
            ++excl;
    }
    EXPECT_EQ(excl, 1u);
}

TEST(Coherence, MemoryControllerServesMisses)
{
    CohRig rig;
    ASSERT_TRUE(rig.access(0, 0xA0000, false));
    // The cold miss must have gone to DRAM.
    NodeId home = rig.sys->addressMap().homeOf(0xA0000);
    EXPECT_GE(rig.sys->l2(home).stats().memReads, 1u);
}

TEST(Coherence, TinyL2EvictsAndRegistersItsStats)
{
    // 2 sets x 2 ways. On a 4x4 mesh all lines of one home bank share
    // a set, so the third line homed at a bank evicts its LRU line.
    MemParams mem;
    mem.l2Sets = 2;
    mem.l2Ways = 2;
    CohRig rig(mem);
    const NodeId home = 5;
    auto line = [&](unsigned k) { return (home + 16 * Addr{k}) * 128; };
    ASSERT_TRUE(rig.access(1, line(0), false)); // E at node 1
    ASSERT_TRUE(rig.access(2, line(0), false)); // node 1 O, node 2 S
    ASSERT_TRUE(rig.access(3, line(1), false));
    ASSERT_TRUE(rig.access(4, line(2), false)); // evicts line(0)
    rig.run(500); // the recall Invs and their acks drain

    const L2Stats &st = rig.sys->l2(home).stats();
    EXPECT_EQ(st.l2Evictions, 1u);
    EXPECT_EQ(st.memWrites, 1u);
    EXPECT_EQ(st.staleAcks, 2u);
    EXPECT_EQ(rig.sys->l1(1).lineState(line(0)), CoherState::I);
    EXPECT_EQ(rig.sys->l1(2).lineState(line(0)), CoherState::I);
    EXPECT_EQ(rig.sys->l2(home).ownerOf(line(0)), invalidNode);

    StatsRegistry reg;
    rig.sys->registerStats(reg);
    for (NodeId n = 0; n < 16; ++n)
        for (const char *name :
             {"get_s", "get_m", "invs_sent", "fetches_sent",
              "mem_reads", "mem_writes", "queued_requests",
              "stale_acks", "evictions"})
            EXPECT_TRUE(reg.has("system.l2" + std::to_string(n) + "." +
                                name))
                << n << " " << name;
    const std::string bank = "system.l2" + std::to_string(home);
    EXPECT_EQ(reg.scalar(bank + ".evictions"), 1.0);
    EXPECT_EQ(reg.scalar(bank + ".mem_writes"), 1.0);
    EXPECT_EQ(reg.scalar(bank + ".stale_acks"), 2.0);
    EXPECT_EQ(reg.scalar(bank + ".get_s"),
              static_cast<double>(st.getS));
    EXPECT_EQ(reg.scalar("system.l20.evictions"), 0.0);
}
