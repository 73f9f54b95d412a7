/**
 * @file
 * The one field-exact RunMetrics comparison of the tests: `==` over
 * every field, and on a mismatch the name of the first field that
 * differs, both driven by the field lists (RunMetrics::forEachField,
 * ThreadCounters::forEachField).
 */

#ifndef OCOR_TESTS_SIM_SAME_RUN_HH
#define OCOR_TESTS_SIM_SAME_RUN_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "sim/metrics.hh"

namespace ocor
{

/**
 * The first field, in list order, in which @p a and @p b differ, with
 * both values, for example "per_thread[3].coh_sleep_cycles: 12 vs 15".
 * A perThread length is checked before its entries. Empty when every
 * field is equal.
 */
inline std::string
firstDifference(const RunMetrics &a, const RunMetrics &b)
{
    std::string diff;
    auto check = [&diff](const std::string &name, const auto &x,
                         const auto &y) {
        if (!diff.empty() || x == y)
            return;
        std::ostringstream os;
        os.precision(17);
        os << name << ": " << x << " vs " << y;
        diff = os.str();
    };
    RunMetrics::forEachField([&](const char *name, auto f) {
        if constexpr (isPerThreadField<decltype(f)>) {
            check(std::string(name) + " size", a.perThread.size(),
                  b.perThread.size());
            const std::size_t n =
                std::min(a.perThread.size(), b.perThread.size());
            for (std::size_t t = 0; t < n; ++t)
                ThreadCounters::forEachField([&](const char *g_name,
                                                 auto g) {
                    check(std::string(name) + "[" + std::to_string(t) +
                              "]." + g_name,
                          a.perThread[t].*g, b.perThread[t].*g);
                });
        } else {
            check(name, a.*f, b.*f);
        }
    });
    return diff;
}

/** @p a == @p b; a failure names the first differing field. Use as
 * EXPECT_TRUE(sameRun(a, b)). */
inline ::testing::AssertionResult
sameRun(const RunMetrics &a, const RunMetrics &b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "RunMetrics differ in " << firstDifference(a, b);
}

} // namespace ocor

#endif // OCOR_TESTS_SIM_SAME_RUN_HH
