/**
 * @file
 * Bounded explicit-state exploration of the protocol model
 * (DESIGN.md §15).
 *
 * Breadth-first search over the abstract transition system with
 * canonical state hashing: BFS guarantees the first violation found
 * has a *minimal* schedule, which keeps counterexamples humanly
 * readable and replay cheap. Visited-set keys are the full canonical
 * encodings (not just hashes), so a hash collision can never hide a
 * state — soundness is not traded for memory.
 */

#ifndef OCOR_VERIFY_EXPLORER_HH
#define OCOR_VERIFY_EXPLORER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "verify/model.hh"

namespace ocor
{
namespace verify
{

/** Exploration statistics (reported by every run). */
struct ExploreStats
{
    std::uint64_t states = 0;      ///< distinct states reached
    std::uint64_t transitions = 0; ///< steps applied
    unsigned maxDepth = 0;         ///< longest schedule examined

    /** Transitions per clientStep action and per homeStep outcome,
     * indexed by enum value: protocol coverage, where a zero marks a
     * branch no explored schedule takes. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(proto::ClientAction::NumActions)>
        actions{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(proto::HomeOutcome::NumOutcomes)>
        outcomes{};
};

/** Outcome of one bounded exploration. */
struct ExploreResult
{
    ExploreStats stats;

    Property violated = Property::None;
    std::string detail;

    /** Minimal schedule reaching the violation (empty when clean). */
    std::vector<ScheduleStep> schedule;

    /** True when the state cap stopped the search early — the run
     * is then a smoke test, not an exhaustive proof. */
    bool capped = false;

    bool clean() const { return violated == Property::None; }
};

/**
 * Exhaustively explore @p cfg from the initial state.
 *
 * @p maxStates bounds the visited set (0 = unlimited). The first
 * violation ends the search with its minimal schedule.
 */
ExploreResult explore(const VerifyConfig &cfg,
                      std::uint64_t maxStates = 0);

} // namespace verify
} // namespace ocor

#endif // OCOR_VERIFY_EXPLORER_HH
