/**
 * @file
 * Unit tests for the event-tracing subsystem: category parsing, the
 * bounded ring buffer, category filtering and the JSON exporter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/trace.hh"

using namespace ocor;

namespace
{

TraceConfig
allCats(std::size_t capacity = 1024)
{
    TraceConfig cfg;
    cfg.categories = parseTraceCats("all");
    cfg.capacity = capacity;
    return cfg;
}

} // namespace

TEST(TraceCats, ParseSingleAndList)
{
    EXPECT_EQ(parseTraceCats("lock"), traceCatBit(TraceCat::Lock));
    EXPECT_EQ(parseTraceCats("noc"), traceCatBit(TraceCat::Noc));
    EXPECT_EQ(parseTraceCats("sim"), traceCatBit(TraceCat::Sim));
    EXPECT_EQ(parseTraceCats("lock,noc"),
              traceCatBit(TraceCat::Lock) | traceCatBit(TraceCat::Noc));
    EXPECT_EQ(parseTraceCats("all"),
              traceCatBit(TraceCat::Lock) | traceCatBit(TraceCat::Noc)
                  | traceCatBit(TraceCat::Sim));
}

TEST(TraceCatsDeath, UnknownNameAborts)
{
    EXPECT_DEATH((void)parseTraceCats("bogus"), "bogus");
}

TEST(TraceCats, EveryEventMapsToItsCategory)
{
    EXPECT_EQ(traceEvCat(TraceEv::LockAcquireStart), TraceCat::Lock);
    EXPECT_EQ(traceEvCat(TraceEv::LockHandover), TraceCat::Lock);
    EXPECT_EQ(traceEvCat(TraceEv::PktInject), TraceCat::Noc);
    EXPECT_EQ(traceEvCat(TraceEv::PktEject), TraceCat::Noc);
    EXPECT_EQ(traceEvCat(TraceEv::RunBegin), TraceCat::Sim);
    EXPECT_EQ(traceEvCat(TraceEv::WatchdogFired), TraceCat::Sim);
}

TEST(Tracer, CategoryFilter)
{
    TraceConfig cfg;
    cfg.categories = traceCatBit(TraceCat::Lock);
    Tracer tr(cfg);
    EXPECT_TRUE(tr.wants(TraceCat::Lock));
    EXPECT_FALSE(tr.wants(TraceCat::Noc));
    tr.record(TraceCat::Noc, TraceEv::PktInject, 1, 0);
    tr.record(TraceCat::Lock, TraceEv::CsEnter, 2, 0, 0);
    EXPECT_EQ(tr.emitted(), 1u);
    ASSERT_EQ(tr.snapshot().size(), 1u);
    EXPECT_EQ(tr.snapshot()[0].ev, TraceEv::CsEnter);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops)
{
    Tracer tr(allCats(4));
    for (Cycle c = 1; c <= 6; ++c)
        tr.record(TraceCat::Sim, TraceEv::RunEnd, c, invalidNode);
    EXPECT_EQ(tr.emitted(), 6u);
    EXPECT_EQ(tr.dropped(), 2u);
    std::vector<TraceRecord> snap = tr.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest records fall off the front; the end of the run survives.
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].cycle, i + 3);
}

TEST(Tracer, ChromeJsonShape)
{
    Tracer tr(allCats());
    tr.record(TraceCat::Lock, TraceEv::CsEnter, 10, 1, 1, 0x1000);
    tr.record(TraceCat::Lock, TraceEv::CsExit, 25, 1, 1, 0x1000);
    tr.record(TraceCat::Noc, TraceEv::PktInject, 12, 5,
              invalidThread, 0, 42);
    std::ostringstream os;
    tr.exportChromeJson(os);
    std::string s = os.str();
    EXPECT_EQ(s.front(), '[');
    EXPECT_EQ(s.substr(s.size() - 2), "]\n");
    // CS enter/exit become a begin/end duration pair.
    EXPECT_NE(s.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"E\""), std::string::npos);
    // NoC events are instants in the noc process.
    EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(s.find("PktInject"), std::string::npos);
    // Process-name metadata for both pid groups.
    EXPECT_NE(s.find("process_name"), std::string::npos);
}

TEST(Tracer, CsvShape)
{
    // One NoC record exports as one instant in the node's lane, with
    // every field of the record in the event.
    Tracer tr(allCats());
    tr.record(TraceCat::Noc, TraceEv::SaGrant, 7, 4, invalidThread,
              0, 9, 1, 2);
    std::ostringstream os;
    tr.exportChromeJson(os);
    // Packet id 9 is renumbered to 1 (first packet seen) on export.
    EXPECT_NE(os.str().find(
                  R"({"name":"SaGrant","cat":"noc","ph":"i","ts":7,)"
                  R"("pid":2,"tid":4,"s":"t","args":{"node":4,"pkt":1,)"
                  R"("msg":1,"val":2}})"),
              std::string::npos)
        << os.str();
}

TEST(Tracer, ExportsAreDeterministic)
{
    auto build = [] {
        Tracer tr(allCats(8)); // force wrap to cover that path too
        for (Cycle c = 1; c <= 20; ++c)
            tr.record(TraceCat::Lock, TraceEv::LockTrySent, c,
                      c % 4, c % 4, 0x2000, c, 8, 1);
        return tr;
    };
    Tracer a = build(), b = build();
    std::ostringstream ja, jb;
    a.exportChromeJson(ja);
    b.exportChromeJson(jb);
    EXPECT_EQ(ja.str(), jb.str());
}
