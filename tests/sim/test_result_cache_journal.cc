/**
 * @file
 * Crash-safety tests for the journaled result cache (DESIGN.md §12):
 * torn-tail recovery at every byte boundary, CRC detection of
 * mid-file corruption, duplicate-key resolution, rewriting of
 * headerless and foreign files, compaction and the exported
 * journal-health counters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/stats_registry.hh"
#include "sim/result_cache.hh"

using namespace ocor;

namespace
{

class ResultCacheJournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Per-test file: ctest runs each test as its own process,
        // possibly in parallel, so a shared name would collide.
        path_ = ::testing::TempDir() + "ocor_journal_" +
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
        std::remove((path_ + ".compact.tmp").c_str());
    }

    RunMetrics
    metricsWithRoi(std::uint64_t roi)
    {
        RunMetrics m;
        m.roiFinish = roi;
        m.threads = 8;
        ThreadCounters c;
        c.computeCycles = roi * 10;
        c.csCycles = roi;
        c.acquisitions = 8;
        c.spinWins = 8;
        m.perThread.push_back(c);
        m.packetsInjected = roi + 1;
        return m;
    }

    CacheKey
    keyFor(const std::string &bench)
    {
        CacheKey k;
        k.benchmark = bench;
        k.threads = 8;
        k.iterations = 2;
        k.seed = 3;
        return k;
    }

    std::string
    readFile()
    {
        std::ifstream in(path_, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }

    void
    writeFile(const std::string &text)
    {
        std::ofstream out(path_,
                          std::ios::binary | std::ios::trunc);
        out << text;
    }

    /** A journal with rows alpha, beta, gamma (in append order). */
    void
    buildJournal()
    {
        ResultCache cache(path_);
        cache.store(keyFor("alpha"), metricsWithRoi(1));
        cache.store(keyFor("beta"), metricsWithRoi(2));
        cache.store(keyFor("gamma"), metricsWithRoi(3));
        cache.flush();
    }

    std::string path_;
};

} // namespace

TEST_F(ResultCacheJournalTest, HeaderAndCrcStampsOnDisk)
{
    buildJournal();
    std::istringstream in(readFile());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, std::string(ResultCache::headerLine()));
    unsigned rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        // 8 lowercase hex digits, then a tab, then the payload.
        ASSERT_GE(line.size(), 10u);
        EXPECT_EQ(line[8], '\t');
        for (int i = 0; i < 8; ++i)
            EXPECT_TRUE(std::isxdigit(
                static_cast<unsigned char>(line[i])))
                << line;
    }
    EXPECT_EQ(rows, 3u);
}

TEST_F(ResultCacheJournalTest, TornTailAtEveryByteBoundaryRecovers)
{
    buildJournal();
    const std::string full = readFile();
    // First byte of the last (gamma) row.
    const std::size_t lastRow =
        full.find_last_of('\n', full.size() - 2) + 1;
    ASSERT_NE(full.find("gamma", lastRow), std::string::npos);

    // Cutting only the trailing newline is not a torn row: the
    // payload and CRC are intact, so the row still loads.
    {
        writeFile(full.substr(0, full.size() - 1));
        ResultCache cache(path_);
        EXPECT_TRUE(cache.lookup(keyFor("gamma")).has_value());
        EXPECT_EQ(cache.rowsLoaded(), 3u);
        EXPECT_EQ(cache.tailTruncations(), 0u);
    }

    // Simulate a crash tearing the final append at every byte
    // boundary that loses data: the journal must always load,
    // keeping every complete row and healing the file in place.
    for (std::size_t cut = lastRow; cut < full.size() - 1; ++cut) {
        writeFile(full.substr(0, cut));
        {
            ResultCache cache(path_);
            EXPECT_TRUE(cache.lookup(keyFor("alpha")).has_value())
                << "cut=" << cut;
            EXPECT_TRUE(cache.lookup(keyFor("beta")).has_value())
                << "cut=" << cut;
            EXPECT_FALSE(cache.lookup(keyFor("gamma")).has_value())
                << "cut=" << cut;
            EXPECT_EQ(cache.rowsLoaded(), 2u) << "cut=" << cut;
            if (cut > lastRow) {
                EXPECT_EQ(cache.tailTruncations(), 1u)
                    << "cut=" << cut;
                EXPECT_EQ(cache.truncatedBytes(), cut - lastRow)
                    << "cut=" << cut;
            }
        }
        // The truncation healed the file: a second open sees a
        // perfectly clean two-row journal.
        ResultCache again(path_);
        EXPECT_EQ(again.rowsLoaded(), 2u) << "cut=" << cut;
        EXPECT_EQ(again.parseErrors(), 0u) << "cut=" << cut;
        EXPECT_EQ(again.tailTruncations(), 0u) << "cut=" << cut;
    }
}

TEST_F(ResultCacheJournalTest, TornHeaderLoadsAsEmptyNotAbort)
{
    buildJournal();
    const std::string full = readFile();
    // Cut inside the header line itself (a crash during the very
    // first batch write): nothing loadable, but no abort either.
    writeFile(full.substr(0, 5));
    ResultCache cache(path_);
    EXPECT_EQ(cache.rowsLoaded(), 0u);
    EXPECT_FALSE(cache.lookup(keyFor("alpha")).has_value());
    // The cache is still usable for new work.
    cache.store(keyFor("delta"), metricsWithRoi(4));
    cache.flush();
    ResultCache again(path_);
    EXPECT_TRUE(again.lookup(keyFor("delta")).has_value());
    EXPECT_EQ(again.parseErrors(), 0u);
}

TEST_F(ResultCacheJournalTest, MidFileCorruptionSkipsOnlyThatRow)
{
    buildJournal();
    std::string text = readFile();
    // Flip one payload byte of the beta row: its CRC stamp no longer
    // matches, so the row is rejected instead of mis-parsed.
    const std::size_t pos = text.find("beta");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = 'B';
    writeFile(text);

    ResultCache cache(path_);
    EXPECT_TRUE(cache.lookup(keyFor("alpha")).has_value());
    EXPECT_FALSE(cache.lookup(keyFor("beta")).has_value());
    EXPECT_TRUE(cache.lookup(keyFor("gamma")).has_value());
    EXPECT_EQ(cache.rowsLoaded(), 2u);
    EXPECT_EQ(cache.parseErrors(), 1u);

    // The next flush scrubs the corrupt row via compaction.
    cache.store(keyFor("beta"), metricsWithRoi(22));
    cache.flush();
    ResultCache again(path_);
    EXPECT_EQ(again.parseErrors(), 0u);
    EXPECT_EQ(again.rowsLoaded(), 3u);
    auto beta = again.lookup(keyFor("beta"));
    ASSERT_TRUE(beta.has_value());
    EXPECT_EQ(beta->roiFinish, 22u);
}

TEST_F(ResultCacheJournalTest, DuplicateKeysResolveLastWriteWins)
{
    {
        ResultCache first(path_);
        first.store(keyFor("alpha"), metricsWithRoi(111));
        first.flush();
    }
    {
        // A second process (modeled by a second instance) re-stores
        // the same key: the journal now holds two rows for it.
        ResultCache second(path_);
        second.store(keyFor("alpha"), metricsWithRoi(222));
        second.flush();
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.rowsLoaded(), 2u);
    EXPECT_EQ(cache.size(), 1u);
    auto hit = cache.lookup(keyFor("alpha"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->roiFinish, 222u);
}

TEST_F(ResultCacheJournalTest, CompactionDeduplicatesAndSorts)
{
    {
        ResultCache c(path_);
        c.store(keyFor("zeta"), metricsWithRoi(1));
        c.store(keyFor("alpha"), metricsWithRoi(2));
        c.flush();
    }
    {
        ResultCache c(path_);
        c.store(keyFor("alpha"), metricsWithRoi(3));
        c.flush();
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.rowsLoaded(), 3u);
    cache.compact();
    EXPECT_EQ(cache.compactions(), 1u);

    // One row per key, keys in sorted order, full header.
    std::istringstream in(readFile());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, std::string(ResultCache::headerLine()));
    std::vector<std::string> rows;
    while (std::getline(in, line))
        rows.push_back(line);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_NE(rows[0].find("alpha"), std::string::npos);
    EXPECT_NE(rows[1].find("zeta"), std::string::npos);

    ResultCache again(path_);
    auto hit = again.lookup(keyFor("alpha"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->roiFinish, 3u);
}

TEST_F(ResultCacheJournalTest, HeaderlessFileLoadsEmptyAndIsRewritten)
{
    buildJournal();
    // Strip the header: valid CRC-stamped rows, but no header line.
    std::string text = readFile();
    text.erase(0, text.find('\n') + 1);
    writeFile(text);

    // Like a foreign header, nothing loads.
    ResultCache cache(path_);
    EXPECT_FALSE(cache.lookup(keyFor("alpha")).has_value());
    EXPECT_EQ(cache.rowsLoaded(), 0u);

    // The next flush rewrites the file in this version's format.
    cache.store(keyFor("delta"), metricsWithRoi(4));
    cache.flush();
    EXPECT_EQ(cache.compactions(), 1u);
    EXPECT_EQ(readFile().rfind(ResultCache::headerLine(), 0), 0u);
    ResultCache again(path_);
    EXPECT_EQ(again.rowsLoaded(), 1u);
    EXPECT_EQ(again.parseErrors(), 0u);
    EXPECT_TRUE(again.lookup(keyFor("delta")).has_value());
    EXPECT_FALSE(again.lookup(keyFor("alpha")).has_value());
}

TEST_F(ResultCacheJournalTest, ForeignHeaderTreatedAsEmpty)
{
    writeFile("#ocor-results v99\nsomething from the future\n");
    ResultCache cache(path_);
    EXPECT_EQ(cache.rowsLoaded(), 0u);
    cache.store(keyFor("alpha"), metricsWithRoi(7));
    cache.flush();
    // The flush rewrote the file in this version's format.
    ResultCache again(path_);
    EXPECT_EQ(again.rowsLoaded(), 1u);
    EXPECT_TRUE(again.lookup(keyFor("alpha")).has_value());
}

TEST_F(ResultCacheJournalTest, EphemeralModeWritesNothing)
{
    for (const char *p : {"", "/dev/null"}) {
        ResultCache cache(p);
        cache.store(keyFor("alpha"), metricsWithRoi(5));
        cache.flush();
        EXPECT_TRUE(cache.lookup(keyFor("alpha")).has_value()) << p;
        EXPECT_EQ(cache.size(), 1u) << p;
    }
    // /dev/null stayed empty (nothing was journaled).
    std::ifstream devnull("/dev/null");
    std::string s;
    EXPECT_FALSE(std::getline(devnull, s));
}

TEST_F(ResultCacheJournalTest, HealthCountersExportedThroughStats)
{
    buildJournal();
    std::string text = readFile();
    const std::size_t pos = text.find("beta");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = 'X';            // corrupt beta (parse error)
    text.resize(text.size() - 3); // tear the gamma tail
    writeFile(text);

    ResultCache cache(path_);
    StatsRegistry reg;
    cache.registerStats(reg);
    // Only alpha survives: beta is corrupt mid-file, and the torn
    // gamma fragment (plus the rejected beta row after the last good
    // one) is truncated away as the tail.
    EXPECT_EQ(reg.scalar("cache.rows_loaded"), 1.0);
    EXPECT_EQ(reg.scalar("cache.parse_errors"), 2.0);
    EXPECT_EQ(reg.scalar("cache.tail_truncations"), 1.0);
    EXPECT_GT(reg.scalar("cache.truncated_bytes"), 0.0);
    EXPECT_EQ(reg.scalar("cache.entries"), 1.0);
    EXPECT_EQ(reg.scalar("cache.simulations_run"), 0.0);
    EXPECT_TRUE(reg.has("cache.compactions"));
}
