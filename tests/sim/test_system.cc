/**
 * @file
 * Integration tests for the fully wired System.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/system.hh"
#include "workload/program.hh"

using namespace ocor;

namespace
{

std::vector<Program>
trivialPrograms(unsigned n)
{
    std::vector<Program> out;
    for (unsigned t = 0; t < n; ++t)
        out.push_back(ProgramBuilder().compute(5).build());
    return out;
}

} // namespace

TEST(System, BuildsAllMeshSizes)
{
    for (unsigned cores : {4u, 16u, 32u, 64u}) {
        SystemConfig cfg;
        cfg.mesh = SystemConfig::meshFor(cores);
        cfg.numThreads = cores;
        BgTrafficConfig bg;
        System sys(cfg, trivialPrograms(cores), bg);
        EXPECT_EQ(sys.numThreads(), cores);
    }
}

TEST(System, TrivialProgramsFinish)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{4, 4};
    cfg.numThreads = 16;
    BgTrafficConfig bg;
    System sys(cfg, trivialPrograms(16), bg);
    for (Cycle c = 0; c < 100 && !sys.allFinished(); ++c)
        sys.tick(c);
    EXPECT_TRUE(sys.allFinished());
}

TEST(System, SingleLockProgramRoundTrips)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    std::vector<Program> progs;
    for (unsigned t = 0; t < 4; ++t)
        progs.push_back(ProgramBuilder()
                            .compute(10 + t * 7)
                            .lock(0)
                            .compute(20)
                            .unlock(0)
                            .build());
    BgTrafficConfig bg;
    System sys(cfg, std::move(progs), bg);
    Cycle c = 0;
    for (; c < 100000 && !sys.allFinished(); ++c)
        sys.tick(c);
    ASSERT_TRUE(sys.allFinished());
    for (ThreadId t = 0; t < 4; ++t) {
        EXPECT_EQ(sys.pcb(t).counters.acquisitions, 1u);
        EXPECT_EQ(sys.pcb(t).prog, 1u) << "PROG counts unlocks";
    }
    // Let the final release (in flight when the program ends) land.
    for (Cycle end = c + 500; c < end; ++c)
        sys.tick(c);
    EXPECT_FALSE(sys.lockHeld(cfg.lockRegionBase));
}

TEST(System, MutualExclusionHolds)
{
    // Oracle property: across the whole run, at most one thread is
    // ever inside a critical section of the same lock.
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    std::vector<Program> progs;
    for (unsigned t = 0; t < 4; ++t) {
        ProgramBuilder b;
        for (int i = 0; i < 5; ++i)
            b.compute(5 + t).lock(0).compute(30).unlock(0);
        progs.push_back(b.build());
    }
    BgTrafficConfig bg;
    System sys(cfg, std::move(progs), bg);
    for (Cycle c = 0; c < 500000 && !sys.allFinished(); ++c) {
        sys.tick(c);
        unsigned in_cs = 0;
        for (ThreadId t = 0; t < 4; ++t)
            in_cs += sys.pcb(t).state == ThreadState::InCS ? 1 : 0;
        ASSERT_LE(in_cs, 1u) << "mutual exclusion violated at " << c;
    }
    ASSERT_TRUE(sys.allFinished());
}

TEST(System, DistinctLocksDoNotSerialize)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    std::vector<Program> progs;
    for (unsigned t = 0; t < 4; ++t)
        progs.push_back(ProgramBuilder()
                            .lock(t) // four different locks
                            .compute(1000)
                            .unlock(t)
                            .build());
    BgTrafficConfig bg;
    System sys(cfg, std::move(progs), bg);
    Cycle c = 0;
    for (; c < 100000 && !sys.allFinished(); ++c)
        sys.tick(c);
    ASSERT_TRUE(sys.allFinished());
    // With no contention the four 1000-cycle critical sections must
    // overlap: the whole run takes far less than 4000 cycles.
    EXPECT_LT(c, 3000u);
}

TEST(System, DrainsAfterCompletion)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    std::vector<Program> progs;
    for (unsigned t = 0; t < 4; ++t)
        progs.push_back(ProgramBuilder()
                            .lock(0)
                            .store(0x8000)
                            .unlock(0)
                            .build());
    BgTrafficConfig bg;
    System sys(cfg, std::move(progs), bg);
    Cycle c = 0;
    for (; c < 200000 && !sys.allFinished(); ++c)
        sys.tick(c);
    ASSERT_TRUE(sys.allFinished());
    // Let in-flight traffic (wakes, writebacks) land.
    Cycle drain_deadline =
        c + cfg.os.wakeRetryDelay + cfg.os.futexWakeDelay + 5000;
    for (; c < drain_deadline && !sys.drained(); ++c)
        sys.tick(c);
    EXPECT_TRUE(sys.drained());
}

TEST(System, BackgroundTrafficFlows)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{4, 4};
    cfg.numThreads = 16;
    std::vector<Program> progs;
    for (unsigned t = 0; t < 16; ++t)
        progs.push_back(ProgramBuilder().compute(5000).build());
    BgTrafficConfig bg;
    bg.rate = 0.05;
    System sys(cfg, std::move(progs), bg);
    for (Cycle c = 0; c < 6000 && !sys.allFinished(); ++c)
        sys.tick(c);
    EXPECT_GT(sys.network().totalPacketsInjected(), 100u);
    std::uint64_t bg_issued = 0;
    for (ThreadId t = 0; t < 16; ++t)
        bg_issued += sys.core(t).stats().bgAccesses;
    EXPECT_GT(bg_issued, 200u);
}

TEST(SystemDeath, ProgramCountMismatchIsFatal)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    BgTrafficConfig bg;
    auto progs = trivialPrograms(3);
    EXPECT_EXIT(System(cfg, std::move(progs), bg),
                ::testing::ExitedWithCode(1), "programs");
}

TEST(SystemDeath, TooManyThreadsIsFatal)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 9;
    BgTrafficConfig bg;
    EXPECT_EXIT(System(cfg, trivialPrograms(9), bg),
                ::testing::ExitedWithCode(1), "numThreads");
}

TEST(SystemDeath, MemRequestToNodeWithoutControllerPanics)
{
    // A 4x4 mesh has controllers on its top and bottom rows only, so
    // a MemRead delivered to node 5 has nowhere to go.
    SystemConfig cfg;
    cfg.mesh = MeshShape{4, 4};
    cfg.numThreads = 16;
    EXPECT_DEATH(
        {
            System sys(cfg, trivialPrograms(16), BgTrafficConfig{});
            sys.network().send(
                makePacket(MsgType::MemRead, 0, 5, 0x4000), 0);
            for (Cycle c = 0; c < 1000; ++c)
                sys.tick(c);
        },
        "node 5 has no memory controller");
}
