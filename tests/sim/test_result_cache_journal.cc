/**
 * @file
 * Crash-safety tests for the journaled result cache (DESIGN.md §12):
 * a journal in the older append layout (unsorted, a repeated key, a
 * torn last row) loading at every cut, a stale temp file, flushes
 * that write only when they must, CRC detection of mid-file
 * corruption, one sorted row per key after each flush, two caches
 * merging into one journal, rewriting of headerless and foreign files
 * and the exported journal-health counters.
 */

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats_registry.hh"
#include "same_run.hh"
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
        std::remove((path_ + ".tmp").c_str());
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
    readFile(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }

    std::string readFile() { return readFile(path_); }

    void
    writeFile(const std::string &text,
              const std::string &path = std::string())
    {
        std::ofstream out(path.empty() ? path_ : path,
                          std::ios::binary | std::ios::trunc);
        out << text;
    }

    /** The rows of the journal, header dropped. */
    std::vector<std::string>
    rows()
    {
        std::istringstream in(readFile());
        std::string line;
        std::getline(in, line);
        EXPECT_EQ(line, std::string(ResultCache::headerLine()));
        std::vector<std::string> out;
        while (std::getline(in, line))
            out.push_back(line);
        return out;
    }

    /** The stamped row, newline included, that this version writes
     * for @p bench with metricsWithRoi(@p roi). */
    std::string
    rowFor(const std::string &bench, std::uint64_t roi)
    {
        const std::string path = path_ + ".row";
        {
            ResultCache c(path);
            c.store(keyFor(bench), metricsWithRoi(roi));
        }
        const std::string text = readFile(path);
        std::remove(path.c_str());
        return text.substr(text.find('\n') + 1);
    }

    /** A journal with rows alpha, beta, gamma. */
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
    const std::vector<std::string> lines = rows();
    for (const std::string &line : lines) {
        // 8 lowercase hex digits, then a tab, then the payload.
        ASSERT_GE(line.size(), 10u);
        EXPECT_EQ(line[8], '\t');
        for (int i = 0; i < 8; ++i)
            EXPECT_TRUE(std::isxdigit(
                static_cast<unsigned char>(line[i])))
                << line;
    }
    EXPECT_EQ(lines.size(), 3u);
}

TEST_F(ResultCacheJournalTest, TornTailAtEveryByteBoundaryRecovers)
{
    // The layout an appending writer leaves: rows in append order, a
    // key written twice, and a last row a crash may have cut short.
    const std::string head = std::string(ResultCache::headerLine()) +
                             '\n' + rowFor("zeta", 5) +
                             rowFor("alpha", 1) + rowFor("beta", 2) +
                             rowFor("alpha", 11);
    const std::string full = head + rowFor("gamma", 3);

    // Every cut from the end of the previous row to the whole file;
    // cutting only the trailing newline leaves gamma's row intact.
    for (std::size_t cut = head.size(); cut <= full.size(); ++cut) {
        const bool gammaWhole = cut + 1 >= full.size();
        const bool torn = cut > head.size() && !gammaWhole;
        writeFile(full.substr(0, cut));
        {
            ResultCache cache(path_);
            for (const char *b : {"zeta", "alpha", "beta"})
                EXPECT_TRUE(cache.lookup(keyFor(b)).has_value())
                    << b << " cut=" << cut;
            const auto alpha = cache.lookup(keyFor("alpha"));
            ASSERT_TRUE(alpha.has_value());
            EXPECT_TRUE(sameRun(*alpha, metricsWithRoi(11)))
                << "cut=" << cut;
            EXPECT_EQ(cache.lookup(keyFor("gamma")).has_value(),
                      gammaWhole)
                << "cut=" << cut;
            EXPECT_EQ(cache.rowsLoaded(), gammaWhole ? 5u : 4u)
                << "cut=" << cut;
            EXPECT_EQ(cache.parseErrors(), torn ? 1u : 0u)
                << "cut=" << cut;
            // Loading never writes the file.
            EXPECT_EQ(readFile(), full.substr(0, cut)) << "cut=" << cut;

            cache.store(keyFor("delta"), metricsWithRoi(4));
            cache.flush();
        }
        // One flush rewrote the journal as one row per key, sorted.
        const std::vector<std::string> lines = rows();
        ResultCache again(path_);
        EXPECT_EQ(again.parseErrors(), 0u) << "cut=" << cut;
        EXPECT_EQ(again.rowsLoaded(), gammaWhole ? 5u : 4u)
            << "cut=" << cut;
        ASSERT_EQ(lines.size(), again.rowsLoaded()) << "cut=" << cut;
        for (std::size_t i = 1; i < lines.size(); ++i)
            EXPECT_LT(lines[i - 1].substr(9), lines[i].substr(9))
                << "cut=" << cut;
        const auto alphaAgain = again.lookup(keyFor("alpha"));
        ASSERT_TRUE(alphaAgain.has_value()) << "cut=" << cut;
        EXPECT_TRUE(sameRun(*alphaAgain, metricsWithRoi(11)))
            << "cut=" << cut;
    }
}

TEST_F(ResultCacheJournalTest, StaleTempFileChangesNothing)
{
    // A kill between writing <path>.tmp and renaming it leaves the
    // temp file beside an intact journal.
    buildJournal();
    const std::string journal = readFile();
    const std::string tmp = path_ + ".tmp";
    writeFile(journal.substr(0, journal.size() / 2) + "\x01garbage",
              tmp);

    ResultCache cache(path_);
    EXPECT_EQ(cache.rowsLoaded(), 3u);
    EXPECT_EQ(cache.parseErrors(), 0u);
    EXPECT_EQ(cache.size(), 3u);
    std::uint64_t roi = 0;
    for (const char *b : {"alpha", "beta", "gamma"}) {
        const auto hit = cache.lookup(keyFor(b));
        ASSERT_TRUE(hit.has_value()) << b;
        EXPECT_TRUE(sameRun(*hit, metricsWithRoi(++roi))) << b;
    }
    EXPECT_EQ(readFile(), journal);

    // The next flush writes the temp file anew and renames it.
    cache.store(keyFor("delta"), metricsWithRoi(4));
    cache.flush();
    EXPECT_FALSE(std::filesystem::exists(tmp));
    ResultCache again(path_);
    EXPECT_EQ(again.rowsLoaded(), 4u);
    EXPECT_EQ(again.parseErrors(), 0u);
}

TEST_F(ResultCacheJournalTest, FlushWritesOnlyWhenItMust)
{
    buildJournal();
    struct stat before{}, after{};
    ASSERT_EQ(::stat(path_.c_str(), &before), 0);
    {
        // Holding the file open keeps its inode, so a replacement
        // could not reuse the number.
        const std::ifstream hold(path_);
        // Hits only: neither flush() nor the destructor writes.
        ResultCache cache(path_);
        EXPECT_TRUE(cache.lookup(keyFor("alpha")).has_value());
        cache.flush();
    }
    ASSERT_EQ(::stat(path_.c_str(), &after), 0);
    EXPECT_EQ(after.st_ino, before.st_ino);

    // A journal that exists but cannot be read is never replaced by
    // a snapshot. A symlink to itself fails open() with ELOOP, and a
    // rename would replace the link itself.
    std::remove(path_.c_str());
    std::filesystem::create_symlink(path_, path_);
    {
        ResultCache cache(path_);
        cache.store(keyFor("delta"), metricsWithRoi(4));
        cache.flush();
    }
    EXPECT_TRUE(std::filesystem::is_symlink(path_));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(ResultCacheJournalTest, TornHeaderLoadsAsEmptyNotAbort)
{
    buildJournal();
    const std::string full = readFile();
    // Cut inside the header line itself: nothing loadable, but no
    // abort either.
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

    // The next flush writes only valid rows: the corrupt one is gone.
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
        first.store(keyFor("zeta"), metricsWithRoi(1));
        first.store(keyFor("alpha"), metricsWithRoi(111));
        first.flush();
    }
    {
        // A second process (modeled by a second instance) re-stores
        // the same key: its row replaces the first.
        ResultCache second(path_);
        second.store(keyFor("alpha"), metricsWithRoi(222));
        second.flush();
    }
    // One row per key, in key order.
    const std::vector<std::string> lines = rows();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("alpha"), std::string::npos);
    EXPECT_NE(lines[1].find("zeta"), std::string::npos);

    ResultCache cache(path_);
    EXPECT_EQ(cache.rowsLoaded(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    auto hit = cache.lookup(keyFor("alpha"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->roiFinish, 222u);
}

TEST_F(ResultCacheJournalTest, CompactionDeduplicatesAndSorts)
{
    // An append-layout journal: keys out of order, alpha written twice.
    writeFile(std::string(ResultCache::headerLine()) + '\n' +
              rowFor("zeta", 1) + rowFor("alpha", 2) +
              rowFor("alpha", 3));
    {
        ResultCache cache(path_);
        EXPECT_EQ(cache.rowsLoaded(), 3u);
        EXPECT_EQ(cache.size(), 2u);
        // The first flush that writes compacts the whole file.
        cache.store(keyFor("beta"), metricsWithRoi(4));
        cache.flush();
    }

    // One row per key, keys in sorted order, full header.
    const std::vector<std::string> lines = rows();
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("alpha"), std::string::npos);
    EXPECT_NE(lines[1].find("beta"), std::string::npos);
    EXPECT_NE(lines[2].find("zeta"), std::string::npos);

    ResultCache again(path_);
    EXPECT_EQ(again.rowsLoaded(), 3u);
    EXPECT_EQ(again.parseErrors(), 0u);
    auto hit = again.lookup(keyFor("alpha"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->roiFinish, 3u);
}

TEST_F(ResultCacheJournalTest, TwoCachesOnOnePathKeepEveryKey)
{
    // Two instances have two open file descriptions of the directory,
    // so their flocks exclude each other as two processes' would.
    // Each stores 40 keys of its own: two batch flushes each, then
    // the destructor's.
    constexpr unsigned kKeys = 40;
    auto bench = [](unsigned side, unsigned i) {
        return "side" + std::to_string(side) + "_" + std::to_string(i);
    };
    {
        ResultCache a(path_), b(path_);
        std::vector<std::thread> writers;
        for (unsigned side = 0; side < 2; ++side) {
            ResultCache &cache = side == 0 ? a : b;
            writers.emplace_back([this, &cache, &bench, side] {
                for (unsigned i = 0; i < kKeys; ++i)
                    cache.store(keyFor(bench(side, i)),
                                metricsWithRoi(side * 1000 + i));
            });
        }
        for (std::thread &t : writers)
            t.join();
    }
    EXPECT_EQ(rows().size(), 2 * kKeys);
    ResultCache reopened(path_);
    EXPECT_EQ(reopened.rowsLoaded(), 2 * kKeys);
    EXPECT_EQ(reopened.parseErrors(), 0u);
    for (unsigned side = 0; side < 2; ++side) {
        for (unsigned i = 0; i < kKeys; ++i) {
            const auto hit = reopened.lookup(keyFor(bench(side, i)));
            ASSERT_TRUE(hit.has_value()) << bench(side, i);
            EXPECT_TRUE(sameRun(*hit, metricsWithRoi(side * 1000 + i)))
                << bench(side, i);
        }
    }
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
    // The empty path selects the in-memory cache. Its flushes write
    // nothing, so they warn about nothing either: a snapshot written
    // for the path "" would fail to rename its ".tmp" loudly.
    testing::internal::CaptureStderr();
    {
        ResultCache cache("");
        cache.store(keyFor("alpha"), metricsWithRoi(5));
        cache.flush();
        EXPECT_TRUE(cache.lookup(keyFor("alpha")).has_value());
        EXPECT_EQ(cache.size(), 1u);
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    // Nothing is durable: a second in-memory cache starts empty.
    ResultCache again("");
    EXPECT_FALSE(again.lookup(keyFor("alpha")).has_value());
    EXPECT_EQ(again.rowsLoaded(), 0u);
}

TEST_F(ResultCacheJournalTest, HealthCountersExportedThroughStats)
{
    buildJournal();
    std::string text = readFile();
    const std::size_t pos = text.find("beta");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = 'X';            // corrupt beta (parse error)
    text.resize(text.size() - 3); // tear the gamma row (parse error)
    writeFile(text);

    ResultCache cache(path_);
    StatsRegistry reg;
    cache.registerStats(reg);
    EXPECT_EQ(reg.scalar("cache.rows_loaded"), 1.0);
    EXPECT_EQ(reg.scalar("cache.parse_errors"), 2.0);
    EXPECT_EQ(reg.scalar("cache.entries"), 1.0);
    EXPECT_EQ(reg.scalar("cache.simulations_run"), 0.0);
}
