/**
 * @file
 * End-to-end tests for the CheckerRegistry: clean contended runs
 * stay violation-free, checking-off runs are bit-identical to
 * checked ones, and every checker with a component hook fires when
 * its invariant is deliberately broken through a test hook (inverted
 * arbitration, swapped VC flits, withheld credits, forced double lock
 * holds, malformed headers).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../sim/same_run.hh"
#include "check/checker_registry.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"
#include "sim/simulator.hh"

using namespace ocor;

namespace
{

SystemConfig
smallConfig(unsigned checks)
{
    SystemConfig cfg;
    cfg.mesh = MeshShape{2, 2};
    cfg.numThreads = 4;
    cfg.maxCycles = 2'000'000;
    cfg.seed = 11;
    cfg.check.checks = checks;
    return cfg;
}

std::vector<Program>
contendedPrograms(unsigned n, unsigned iters = 3)
{
    std::vector<Program> out;
    for (unsigned t = 0; t < n; ++t) {
        ProgramBuilder b;
        for (unsigned i = 0; i < iters; ++i)
            b.compute(100 + 37 * t).lock(0).compute(50).unlock(0);
        out.push_back(b.build());
    }
    return out;
}

/** Collecting handler for seeded-violation tests. */
struct Collector
{
    std::vector<CheckViolation> got;

    void
    attach(CheckerRegistry &reg)
    {
        reg.setViolationHandler([this](const CheckViolation &v) {
            got.push_back(v);
        });
    }

    bool
    has(CheckId id, const std::string &needle) const
    {
        for (const CheckViolation &v : got)
            if (v.id == id &&
                v.message.find(needle) != std::string::npos)
                return true;
        return false;
    }
};

/** The test_router rig plus an attached checker registry: one router
 * at node 0 of a 2x1 mesh, driven by hand through its links. */
struct CheckedRouterRig
{
    MeshShape mesh{2, 1};
    NocParams params;
    OcorConfig ocor;
    CheckConfig check;
    std::unique_ptr<CheckerRegistry> reg;
    Collector violations;
    std::unique_ptr<Router> router;
    Link intoWest;
    Link intoEast;
    Link outOfEast;
    Link intoLocal;
    Link outOfLocal;

    explicit CheckedRouterRig(unsigned checks, bool ocor_on = true)
    {
        ocor.enabled = ocor_on;
        check.checks = checks;
        reg = std::make_unique<CheckerRegistry>(check, ocor,
                                                params.vcDepth);
        violations.attach(*reg);
        router = std::make_unique<Router>(0, mesh, params, ocor);
        router->attach(PortEast, &intoEast, &outOfEast);
        router->attach(PortLocal, &intoLocal, &outOfLocal);
        router->attach(PortWest, &intoWest, nullptr);
        router->setChecker(reg.get());
    }

    void
    sendFlit(Link &link, const PacketPtr &pkt, unsigned index,
             unsigned vc, Cycle now)
    {
        Flit f;
        f.pkt = pkt;
        f.index = index;
        f.type = flitTypeFor(index, pkt->numFlits);
        f.vc = vc;
        link.sendFlit(f, now);
    }
};

} // namespace

// --- clean runs -----------------------------------------------------

TEST(CheckSystem, FullyCheckedContendedRunHasNoViolations)
{
    for (bool ocor_on : {false, true}) {
        SystemConfig cfg = smallConfig(allChecksMask());
        cfg.ocor.enabled = ocor_on;
        Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
        sim.run();
        CheckerRegistry *ck = sim.system().checker();
        ASSERT_NE(ck, nullptr);
        EXPECT_EQ(ck->violations(), 0u)
            << "ocor=" << ocor_on << " first: "
            << (ck->log().empty() ? "" : ck->log().front().message);
    }
}

TEST(CheckSystem, CheckingOffLeavesNoRegistry)
{
    SystemConfig cfg = smallConfig(0);
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    EXPECT_EQ(sim.system().checker(), nullptr);
}

// Checkers are pure observers: a fully checked run must be
// bit-identical to an unchecked one, metric for metric.
TEST(CheckSystem, CheckedRunIsBitIdenticalToUnchecked)
{
    Simulator off(smallConfig(0), contendedPrograms(4),
                  BgTrafficConfig{});
    RunMetrics moff = off.run();

    Simulator on(smallConfig(allChecksMask()), contendedPrograms(4),
                 BgTrafficConfig{});
    RunMetrics mon = on.run();

    EXPECT_TRUE(sameRun(moff, mon));
}

// --- seeded violations ----------------------------------------------

TEST(CheckSystem, SeededDoubleHolderTripsMutexChecker)
{
    SystemConfig cfg = smallConfig(checkBit(CheckId::Mutex));
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    CheckerRegistry *ck = sim.system().checker();
    ASSERT_NE(ck, nullptr);
    Collector got;
    got.attach(*ck);

    sim.system().qspinlock(0).testForceHold(0x1000);
    sim.system().qspinlock(1).testForceHold(0x1000);
    ck->onCycleEnd(0);

    EXPECT_TRUE(got.has(CheckId::Mutex, "mutual exclusion broken"));
}

TEST(CheckSystem, SeededInCsWithoutHoldTripsMutexChecker)
{
    SystemConfig cfg = smallConfig(checkBit(CheckId::Mutex));
    Simulator sim(cfg, contendedPrograms(4), BgTrafficConfig{});
    CheckerRegistry *ck = sim.system().checker();
    ASSERT_NE(ck, nullptr);
    Collector got;
    got.attach(*ck);

    sim.system().pcb(2).state = ThreadState::InCS;
    ck->onCycleEnd(0);

    EXPECT_TRUE(got.has(CheckId::Mutex, "InCS without holding"));
}

TEST(CheckSystem, SeededInvertedArbiterTripsArbitrationChecker)
{
    // The OcorPrioritizesLockPacket scenario from test_router.cc,
    // with the arbiter's rank comparison inverted under a test hook:
    // the data packet now beats the competing lock packet, which the
    // checker's independent Table-1 recomputation must flag.
    CheckedRouterRig rig(checkBit(CheckId::Arbitration));
    rig.router->testInvertArbitration(true);

    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);
    auto lock = makePacket(MsgType::LockTry, 0, 1, 0x200);
    lock->priority = makePriority(rig.ocor, PriorityClass::LockTry,
                                  1, 0);

    rig.sendFlit(rig.intoWest, data, 0, 0, 0);
    rig.sendFlit(rig.intoLocal, lock, 0, 0, 0);
    for (Cycle c = 1; c <= 12; ++c) {
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c))
            rig.outOfEast.sendCredit(f->vc, c);
    }

    EXPECT_TRUE(rig.violations.has(CheckId::Arbitration,
                                   "Table 1 violated"));
}

TEST(CheckSystem, IntactArbiterStaysCleanUnderTheSameContention)
{
    CheckedRouterRig rig(checkBit(CheckId::Arbitration));

    auto data = makePacket(MsgType::GetS, 0, 1, 0x80);
    auto lock = makePacket(MsgType::LockTry, 0, 1, 0x200);
    lock->priority = makePriority(rig.ocor, PriorityClass::LockTry,
                                  1, 0);

    rig.sendFlit(rig.intoWest, data, 0, 0, 0);
    rig.sendFlit(rig.intoLocal, lock, 0, 0, 0);
    for (Cycle c = 1; c <= 12; ++c) {
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c))
            rig.outOfEast.sendCredit(f->vc, c);
    }

    EXPECT_EQ(rig.violations.got.size(), 0u);
}

TEST(CheckSystem, SeededBufferSwapTripsVcFifoChecker)
{
    CheckedRouterRig rig(checkBit(CheckId::VcFifo),
                         /*ocor_on=*/false);

    auto a = makePacket(MsgType::GetS, 0, 1, 0x80);
    auto b = makePacket(MsgType::GetS, 0, 1, 0xc0);
    rig.sendFlit(rig.intoWest, a, 0, 0, 0); // arrives cycle 1
    rig.sendFlit(rig.intoWest, b, 0, 0, 1); // arrives cycle 2
    rig.router->tick(1);
    rig.router->tick(2); // both buffered in west vc 0, neither popped

    rig.router->testSwapVcFlits(PortWest, 0);
    for (Cycle c = 3; c <= 12; ++c) {
        rig.router->tick(c);
        if (auto f = rig.outOfEast.takeFlit(c))
            rig.outOfEast.sendCredit(f->vc, c);
    }

    EXPECT_TRUE(rig.violations.has(CheckId::VcFifo, "reordered"));
}

TEST(CheckSystem, WithheldCreditTripsCreditCheckerAtFinalize)
{
    CheckedRouterRig rig(checkBit(CheckId::Credit),
                         /*ocor_on=*/false);

    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    rig.sendFlit(rig.intoWest, pkt, 0, 0, 0);
    bool exited = false;
    for (Cycle c = 1; c <= 12; ++c) {
        rig.router->tick(c);
        // Consume the flit but "lose" the credit on the way back.
        if (rig.outOfEast.takeFlit(c))
            exited = true;
    }
    ASSERT_TRUE(exited);
    EXPECT_EQ(rig.violations.got.size(), 0u);

    rig.reg->finalize(20);
    EXPECT_TRUE(rig.violations.has(CheckId::Credit,
                                   "never returned after drain"));
}

TEST(CheckSystem, LostWireFlitTripsConservationAtFinalize)
{
    OcorConfig ocor;
    CheckConfig cc;
    cc.checks = checkBit(CheckId::Credit);
    CheckerRegistry reg(cc, ocor, 4);
    Collector got;
    got.attach(reg);

    Link wire;
    wire.setChecker(&reg);
    auto pkt = makePacket(MsgType::GetS, 0, 1, 0x80);
    Flit f;
    f.pkt = pkt;
    f.index = 0;
    f.type = flitTypeFor(0, pkt->numFlits);
    f.vc = 0;
    wire.sendFlit(f, 0); // put on the wire, never taken off
    reg.finalize(10);

    EXPECT_TRUE(got.has(CheckId::Credit, "conservation broken"));
}

TEST(CheckSystem, MalformedHeaderAtInjectionTripsOneHotChecker)
{
    OcorConfig ocor;
    ocor.enabled = true;
    NocParams params;
    CheckConfig cc;
    cc.checks = checkBit(CheckId::OneHot);
    CheckerRegistry reg(cc, ocor, params.vcDepth);
    Collector got;
    got.attach(reg);

    NetworkInterface ni(0, params, ocor);
    ni.setChecker(&reg);
    auto pkt = makePacket(MsgType::LockTry, 0, 1, 0x200);
    pkt->priority = makePriority(ocor, PriorityClass::LockTry, 1, 0);
    pkt->priority.priorityBits |= 0x6; // corrupt: not one-hot
    ni.inject(pkt, 0);

    EXPECT_TRUE(got.has(CheckId::OneHot, "not one-hot"));
}

TEST(CheckSystem, RegistryRoutesOsHooksToRtrAndWakeupCheckers)
{
    OcorConfig ocor;
    ocor.enabled = true;
    CheckConfig cc;
    cc.checks = checkBit(CheckId::Rtr) | checkBit(CheckId::Wakeup);
    CheckerRegistry reg(cc, ocor, 4);
    Collector got;
    got.attach(reg);

    reg.onAcquireStart(0, 1);
    reg.onLockTry(0, 3, 2);
    reg.onLockTry(0, 5, 10); // RTR rose mid-attempt
    reg.onWakeSent(0x200, 2, 20);
    reg.finalize(100); // wake never consumed, no System: drained

    EXPECT_TRUE(got.has(CheckId::Rtr, "must be non-increasing"));
    EXPECT_TRUE(got.has(CheckId::Wakeup, "lost wakeup"));
    EXPECT_EQ(reg.violations(), got.got.size());
    EXPECT_EQ(reg.log().size(), got.got.size());
}

TEST(CheckSystem, DiagnosticDumpExplainsMissingTracer)
{
    OcorConfig ocor;
    CheckConfig cc;
    cc.checks = checkBit(CheckId::Credit);
    CheckerRegistry reg(cc, ocor, 4);
    std::ostringstream os;
    reg.dumpDiagnostics(os);
    EXPECT_NE(os.str().find("no tracer attached"), std::string::npos);
}
