/**
 * @file
 * Arbitration logic: the mask-based max-rank round-robin arbiter and
 * the Local Priority Arbiter (LPA) of Figure 9.
 *
 * Routers and NIs use one arbiter everywhere: the requesters arrive as
 * a bitmask, each carries an integer rank (from priorityRank()), the
 * arbiter picks the maximum rank and breaks ties round-robin. Like the
 * LPA's OR-reduce plus leading-one select, a pick walks set request
 * bits only. With OCOR disabled every rank is 0 and the arbiter
 * degenerates to the baseline round-robin VA/SA of the 2-stage
 * speculative router; pickEqual() is that round-robin pick alone, for
 * requests in which nobody carries a nonzero rank.
 *
 * lpaSelect additionally models the comparator-free one-hot datapath
 * of Figure 9 (priority check bit gating + OR-reduction + leading-one
 * select) and is unit-tested to order packets exactly as the rank
 * arbiter does.
 */

#ifndef OCOR_NOC_ARBITER_HH
#define OCOR_NOC_ARBITER_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/onehot.hh"
#include "core/priority.hh"

namespace ocor
{

/** Request set of an arbiter: bit i set = input i requests. */
class ReqMask
{
  public:
    /** Inputs one mask can hold: 5 ports x the 16-VC maximum fits. */
    static constexpr unsigned capacity = 128;

    ReqMask() = default;
    explicit ReqMask(std::uint64_t low) : words_{low, 0} {}

    void set(unsigned i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

    /** Set bit @p i to @p on, without branching on it. */
    void
    set(unsigned i, bool on)
    {
        const std::uint64_t b = std::uint64_t{1} << (i & 63);
        std::uint64_t &w = words_[i >> 6];
        w = (w & ~b) | (std::uint64_t{on} << (i & 63));
    }
    /** Index of the lowest set bit at or above @p from, else -1. */
    int
    firstFrom(unsigned from) const
    {
        for (unsigned w = from >> 6; w < words_.size(); ++w) {
            std::uint64_t m = words_[w];
            if (w == from >> 6)
                m &= ~std::uint64_t{0} << (from & 63);
            if (m != 0)
                return static_cast<int>(
                    w * 64 + static_cast<unsigned>(std::countr_zero(m)));
        }
        return -1;
    }

    /** Index of the highest set bit, else -1. */
    int
    last() const
    {
        for (unsigned w = words_.size(); w-- > 0;)
            if (words_[w] != 0)
                return static_cast<int>(w * 64 + 63 -
                                        static_cast<unsigned>(
                                            std::countl_zero(words_[w])));
        return -1;
    }

    /** Call @p fn(i) for every set bit, in ascending order. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned w = 0; w < words_.size(); ++w)
            for (std::uint64_t m = words_[w]; m != 0; m &= m - 1)
                fn(w * 64 + static_cast<unsigned>(std::countr_zero(m)));
    }

  private:
    std::array<std::uint64_t, 2> words_{};
};

/** Max-rank arbiter with a round-robin pointer for tie breaking. */
class Arbiter
{
  public:
    explicit Arbiter(unsigned num_inputs);

    /**
     * Pick among the inputs set in @p req. The highest rank wins;
     * among equal ranks the first requester at or after the
     * round-robin pointer wins (wrapping past the last input), and
     * the pointer moves just past the winner.
     *
     * Two branch-free passes over the set bits: the maximum rank, then
     * the mask of requesters holding it, whose first bit from the
     * pointer (else from 0) is the winner.
     *
     * @param rank maps an input index to its rank (a cheap lookup:
     *             it is called twice per requester).
     * @return winning input index, or -1 when nobody requests.
     */
    template <class RankFn>
    int
    pick(const ReqMask &req, RankFn &&rank)
    {
        const int top = req.last();
        if (top < 0)
            return -1;
        if (static_cast<unsigned>(top) >= numInputs_)
            badInput(static_cast<unsigned>(top));
        std::int64_t best = rank(static_cast<unsigned>(top));
        req.forEach([&](unsigned i) {
            const std::int64_t r = rank(i);
            best = r > best ? r : best;
        });
        ReqMask tied;
        req.forEach([&](unsigned i) { tied.set(i, rank(i) == best); });
        int winner = tied.firstFrom(pointer_);
        if (winner < 0)
            winner = tied.firstFrom(0);
        advancePast(static_cast<unsigned>(winner));
        return winner;
    }

    /**
     * pick() for a request in which every requester carries the same
     * rank: the first requester at or after the pointer (else the
     * first overall) wins and the pointer moves past it, exactly as
     * pick() with a constant rank, without the two rank passes.
     * Callers use it when no requester carries a nonzero Table-1 rank.
     */
    int
    pickEqual(const ReqMask &req)
    {
        const int top = req.last();
        if (top < 0)
            return -1;
        if (static_cast<unsigned>(top) >= numInputs_)
            badInput(static_cast<unsigned>(top));
        int winner = req.firstFrom(pointer_);
        if (winner < 0)
            winner = req.firstFrom(0);
        advancePast(static_cast<unsigned>(winner));
        return winner;
    }

    /**
     * Fast path for the common single-requester case: grant input
     * @p idx directly, advancing the round-robin pointer exactly as
     * pick() would with @p idx as the only requester.
     */
    int
    grantSingle(unsigned idx)
    {
        if (idx >= numInputs_)
            badInput(idx);
        advancePast(idx);
        return static_cast<int>(idx);
    }

    unsigned numInputs() const { return numInputs_; }
    unsigned pointer() const { return pointer_; }

  private:
    [[noreturn]] void badInput(unsigned idx) const;

    void
    advancePast(unsigned idx)
    {
        pointer_ = idx + 1 == numInputs_ ? 0 : idx + 1;
    }

    unsigned numInputs_;
    unsigned pointer_ = 0;
};

/** One candidate VC presented to the LPA. */
struct LpaInput
{
    bool valid = false;          ///< VC has a requesting flit
    PriorityFields fields;       ///< header fields of that flit
};

/** Output of the LPA (Figure 9): highest level + index mask. */
struct LpaResult
{
    /**
     * Highest priority level present among valid inputs, on the
     * *extended* level scale (progress-major: 1 + RTR level +
     * (numRtrLevels + 2) x progress level). With 8 progress levels it
     * passes 64, so it is an integer rather than a one-hot word. Zero
     * when only normal packets (or nothing) request.
     */
    unsigned highestLevel = 0;

    /** Bit i set iff input i carries the highest priority. */
    std::uint64_t indexMask = 0;
};

/**
 * Comparator-free local priority arbitration (Figure 9).
 *
 * Stage a: the check bit gates each VC's priority bits; non-check
 * packets contribute no priority. Stage b: progress words are
 * OR-reduced and the *lowest* set bit (slowest progress = highest
 * priority) filters candidates. Stage c: priority words of the
 * filtered candidates are OR-reduced and the *highest* set bit
 * selects the winners. Normal packets win only when no priority
 * packet requests.
 */
LpaResult lpaSelect(const OcorConfig &cfg,
                    const std::vector<LpaInput> &inputs);

} // namespace ocor

#endif // OCOR_NOC_ARBITER_HH
