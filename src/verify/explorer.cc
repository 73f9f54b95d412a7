#include "verify/explorer.hh"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>

namespace ocor
{
namespace verify
{

namespace
{

/**
 * Path metadata for one reached state. The state itself lives only
 * in the frontier until expansion — keeping every WorldState alive
 * for the whole search multiplies memory by the full state count,
 * and only the edge chain is needed to rebuild a counterexample.
 */
struct Node
{
    std::int64_t parent = -1; ///< index into the node arena
    ScheduleStep step;        ///< edge from parent (root: unused)
    unsigned depth = 0;
};

std::vector<ScheduleStep>
schedulePath(const std::vector<Node> &arena, std::int64_t idx)
{
    std::vector<ScheduleStep> path;
    for (std::int64_t i = idx; i >= 0 && arena[i].parent >= 0;
         i = arena[i].parent)
        path.push_back(arena[i].step);
    std::reverse(path.begin(), path.end());
    return path;
}

} // namespace

ExploreResult
explore(const VerifyConfig &cfg, std::uint64_t maxStates)
{
    ExploreResult out;

    std::vector<Node> arena;
    std::unordered_set<std::string> visited;
    std::deque<std::pair<WorldState, std::int64_t>> frontier;

    WorldState root = initialState(cfg);
    visited.insert(canonicalKey(cfg, root));
    arena.push_back({});
    out.stats.states = 1;

    {
        StepOutcome init = checkState(cfg, root, false);
        if (init.violated != Property::None) {
            out.violated = init.violated;
            out.detail = init.detail;
            return out;
        }
    }
    frontier.emplace_back(std::move(root), 0);

    while (!frontier.empty()) {
        const WorldState curState = std::move(frontier.front().first);
        const std::int64_t cur = frontier.front().second;
        frontier.pop_front();

        const unsigned curDepth = arena[cur].depth;
        out.stats.maxDepth = std::max(out.stats.maxDepth, curDepth);

        std::vector<ScheduleStep> steps =
            enabledSteps(cfg, curState);

        if (steps.empty()) {
            StepOutcome term = checkState(cfg, curState, true);
            if (term.violated != Property::None) {
                out.violated = term.violated;
                out.detail = term.detail;
                out.schedule = schedulePath(arena, cur);
                return out;
            }
            continue;
        }

        for (ScheduleStep &step : steps) {
            WorldState next = curState;
            StepOutcome so = applyStep(cfg, next, step);
            ++out.stats.transitions;
            if (so.action != proto::ClientAction::NumActions)
                ++out.stats.actions[static_cast<std::size_t>(so.action)];
            if (so.outcome != proto::HomeOutcome::NumOutcomes)
                ++out.stats.outcomes[static_cast<std::size_t>(
                    so.outcome)];

            if (so.violated == Property::None)
                so = checkState(cfg, next, false);
            if (so.violated != Property::None) {
                arena.push_back({cur, step, curDepth + 1});
                out.violated = so.violated;
                out.detail = so.detail;
                out.schedule = schedulePath(
                    arena,
                    static_cast<std::int64_t>(arena.size()) - 1);
                return out;
            }

            if (!visited.insert(canonicalKey(cfg, next)).second)
                continue;

            if (maxStates && out.stats.states >= maxStates) {
                out.capped = true;
                continue; // count no new states; drain the frontier
            }

            arena.push_back({cur, step, curDepth + 1});
            frontier.emplace_back(
                std::move(next),
                static_cast<std::int64_t>(arena.size()) - 1);
            ++out.stats.states;
        }
    }

    return out;
}

} // namespace verify
} // namespace ocor
