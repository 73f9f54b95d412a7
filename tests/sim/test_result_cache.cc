/**
 * @file
 * Unit tests for the experiment result cache.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hh"
#include "same_run.hh"
#include "sim/result_cache.hh"

using namespace ocor;

namespace
{

class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Per-test file: ctest runs each test as its own process,
        // possibly in parallel, so a shared name would collide.
        path_ = ::testing::TempDir() + "ocor_cache_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".tsv";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    /** A run of 3 threads with distinct counters and doubles that
     * 6 significant digits cannot hold: a row that kept sums, one
     * entry or 6 digits would not read back equal. */
    RunMetrics
    sampleMetrics()
    {
        RunMetrics m;
        m.roiFinish = 12345;
        m.threads = 3;
        std::uint64_t v = 100;
        for (unsigned t = 0; t < m.threads; ++t) {
            ThreadCounters c;
            ThreadCounters::forEachField(
                [&](const char *, auto f) { c.*f = v++; });
            m.perThread.push_back(c);
        }
        m.packetsInjected = 777;
        m.flitsInjected = 3000;
        m.lockPacketsInjected = 111;
        m.avgPacketLatency = 205.51054870802051;
        m.avgLockPacketLatency = 54.099337748344368;
        m.avgDataPacketLatency = 40.75;
        m.p50PacketLatency = 28.0;
        m.p95PacketLatency = 55.5;
        m.p99PacketLatency = 80.125;
        m.p50LockHandover = 140.0;
        m.p95LockHandover = 300.0;
        m.p99LockHandover = 444.5;
        return m;
    }

    CacheKey
    sampleKey(bool ocor = false)
    {
        CacheKey k;
        k.benchmark = "testprog";
        k.threads = 16;
        k.ocorEnabled = ocor;
        k.iterations = 4;
        k.seed = 9;
        return k;
    }

    std::string path_;
};

} // namespace

TEST_F(ResultCacheTest, MissOnEmptyCache)
{
    ResultCache cache(path_);
    EXPECT_FALSE(cache.lookup(sampleKey()).has_value());
}

TEST_F(ResultCacheTest, StoreThenLookupRoundTrips)
{
    const RunMetrics m = sampleMetrics();
    {
        ResultCache cache(path_);
        cache.store(sampleKey(), m);
    } // destructor flushes the batched row
    ResultCache reopened(path_);
    auto hit = reopened.lookup(sampleKey());
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(sameRun(*hit, m));
}

TEST_F(ResultCacheTest, PrePercentileSchemaLinesAreMisses)
{
    // A row with fewer fields than this version writes fails to
    // parse and is treated as a miss (the run is redone, not
    // corrupted).
    {
        ResultCache cache(path_);
        cache.store(sampleKey(), sampleMetrics());
        cache.flush();
    }
    // Rewrite the row without its last 6 columns, CRC-stamped anew
    // so that only the schema, not the stamp, rejects it.
    std::ifstream in(path_);
    std::string header, line;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_EQ(header, std::string(ResultCache::headerLine()));
    ASSERT_TRUE(std::getline(in, line));
    in.close();
    std::string payload = line.substr(line.find('\t') + 1);
    for (int i = 0; i < 6; ++i)
        payload.erase(payload.find_last_of('\t'));
    char stamp[9];
    std::snprintf(stamp, sizeof(stamp), "%08x",
                  crc32Update(0, payload.data(), payload.size()));
    std::ofstream out(path_, std::ios::trunc);
    out << header << '\n' << stamp << '\t' << payload << '\n';
    out.close();

    ResultCache reopened(path_);
    EXPECT_FALSE(reopened.lookup(sampleKey()).has_value());
    EXPECT_EQ(reopened.parseErrors(), 1u);
}

TEST_F(ResultCacheTest, KeysAreDiscriminating)
{
    ResultCache cache(path_);
    cache.store(sampleKey(false), sampleMetrics());
    EXPECT_FALSE(cache.lookup(sampleKey(true)).has_value());

    CacheKey other = sampleKey(false);
    other.threads = 32;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = sampleKey(false);
    other.seed = 10;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = sampleKey(false);
    other.rtrLevels = 4;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = sampleKey(false);
    other.ruleMask = 0x7;
    EXPECT_FALSE(cache.lookup(other).has_value());
}

TEST_F(ResultCacheTest, BenchmarkPrefixesDoNotCollide)
{
    // "can" must not match a line stored for "canneal"-like names.
    ResultCache cache(path_);
    CacheKey a = sampleKey();
    a.benchmark = "can";
    CacheKey b = sampleKey();
    b.benchmark = "canx";
    RunMetrics m = sampleMetrics();
    m.roiFinish = 1;
    cache.store(b, m);
    EXPECT_FALSE(cache.lookup(a).has_value());
}

TEST_F(ResultCacheTest, MultipleEntriesCoexist)
{
    ResultCache cache(path_);
    for (unsigned t : {4u, 16u, 32u, 64u}) {
        CacheKey k = sampleKey();
        k.threads = t;
        RunMetrics m = sampleMetrics();
        m.roiFinish = t * 100;
        cache.store(k, m);
    }
    for (unsigned t : {4u, 16u, 32u, 64u}) {
        CacheKey k = sampleKey();
        k.threads = t;
        auto hit = cache.lookup(k);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->roiFinish, t * 100);
    }
}

TEST_F(ResultCacheTest, ConcurrentGetSimulatesEachKeyOnce)
{
    // 8 threads all hammer the same 4 configurations (2 profiles x
    // {base, OCOR}); in-flight dedup must collapse the 32 calls to
    // exactly 4 simulations, and every caller must see the result.
    ResultCache cache(path_);
    const std::vector<BenchmarkProfile> profiles = {
        profileByName("imag"), profileByName("ferret")};
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 2;
    exp.seed = 3;

    const unsigned kHammerThreads = 8;
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kHammerThreads; ++i) {
        threads.emplace_back([&] {
            for (const auto &p : profiles) {
                for (bool ocor : {false, true}) {
                    RunMetrics m = cache.get(p, exp, ocor);
                    EXPECT_GT(m.roiFinish, 0u);
                    EXPECT_EQ(m.threads, 4u);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(cache.simulationsRun(), 4u);

    cache.flush();
    // The journal must hold exactly one uncorrupted row per key
    // (plus the format header).
    std::ifstream in(path_);
    ASSERT_TRUE(in.is_open());
    std::string line;
    unsigned header = 0, rows = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#')
            ++header;
        else
            ++rows;
    }
    EXPECT_EQ(header, 1u);
    EXPECT_EQ(rows, 4u);
    ResultCache fresh(path_);
    for (const auto &p : profiles) {
        for (bool ocor : {false, true}) {
            auto hit = fresh.lookup(makeCacheKey(p, exp, ocor));
            ASSERT_TRUE(hit.has_value())
                << p.name << (ocor ? " ocor" : " base");
            EXPECT_GT(hit->roiFinish, 0u);
        }
    }
}

TEST_F(ResultCacheTest, GetMemoizesAcrossInstances)
{
    ExperimentConfig exp;
    exp.threads = 4;
    exp.iterationsOverride = 2;
    exp.seed = 7;
    BenchmarkProfile p = profileByName("can");
    RunMetrics first;
    {
        ResultCache cache(path_);
        first = cache.get(p, exp, true);
        EXPECT_EQ(cache.simulationsRun(), 1u);
    } // destructor flushes the batched row
    ResultCache cache2(path_);
    RunMetrics again = cache2.get(p, exp, true);
    EXPECT_EQ(cache2.simulationsRun(), 0u); // pure disk hit
    EXPECT_TRUE(sameRun(again, first));
}

TEST_F(ResultCacheTest, JournalHitsEqualTheirRuns)
{
    // Real runs, ledger off and on, base and OCOR: each row read back
    // from the reopened journal is the run that was stored.
    const BenchmarkProfile p = profileByName("can");
    std::vector<ExperimentConfig> exps;
    for (bool ledger : {false, true}) {
        ExperimentConfig exp;
        exp.threads = 4;
        exp.iterationsOverride = 2;
        exp.seed = 5;
        exp.cohLedger = ledger;
        exps.push_back(exp);
    }
    std::vector<RunMetrics> fresh;
    {
        ResultCache cache(path_);
        for (const ExperimentConfig &exp : exps)
            for (bool ocor : {false, true})
                fresh.push_back(cache.get(p, exp, ocor));
        EXPECT_EQ(cache.simulationsRun(), 4u);
    }
    // The ledger runs carry cause counters, so the rows hold them.
    EXPECT_GT(fresh[2].totals().cohTransferCycles, 0u);

    ResultCache reopened(path_);
    std::size_t i = 0;
    for (const ExperimentConfig &exp : exps)
        for (bool ocor : {false, true})
            EXPECT_TRUE(sameRun(reopened.get(p, exp, ocor), fresh[i++]))
                << "ledger " << exp.cohLedger << " ocor " << ocor;
    EXPECT_EQ(reopened.simulationsRun(), 0u);
    EXPECT_EQ(reopened.rowsLoaded(), 4u);
}

TEST_F(ResultCacheTest, MakeCacheKeyCapturesOcorOverride)
{
    BenchmarkProfile profile;
    profile.name = "p";
    ExperimentConfig exp;
    exp.ocorOverrideSet = true;
    exp.ocorOverride.numRtrLevels = 16;
    exp.ocorOverride.ruleWakeupLast = false;
    CacheKey k = makeCacheKey(profile, exp, true);
    EXPECT_EQ(k.rtrLevels, 16u);
    EXPECT_EQ(k.ruleMask & 8u, 0u);
    EXPECT_TRUE(k.ocorEnabled);
}

TEST(ResultCacheDeathTest, MakeCacheKeyRefusesUnkeyedOverride)
{
    // The key names only the level count and rule bits; an override
    // of any other knob would be served the default run's row.
    BenchmarkProfile profile;
    profile.name = "p";
    for (void (*tweak)(OcorConfig &) : {
             +[](OcorConfig &c) { c.maxSpinCount = 64; },
             +[](OcorConfig &c) { c.numProgressLevels = 4; },
             +[](OcorConfig &c) { c.progressSegmentWidth = 2; },
         }) {
        ExperimentConfig exp;
        exp.ocorOverrideSet = true;
        tweak(exp.ocorOverride);
        for (const bool ocor : {false, true})
            EXPECT_DEATH(makeCacheKey(profile, exp, ocor),
                         "which the key does not name");
    }
}
