/**
 * @file
 * Set-associative tag/state array with LRU replacement.
 *
 * Shared by the private L1s and the L2 bank of each node. The
 * simulator is timing directed: the array tracks tags and coherence
 * state, not data values.
 *
 * A set's ways are allocated on that set's first victimFor(), so an
 * array costs one null row pointer per set until it is filled (a
 * run touches few of an L2 bank's sets; DESIGN.md §6).
 */

#ifndef OCOR_MEM_CACHE_ARRAY_HH
#define OCOR_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace ocor
{

/** MOESI stable states (used by L1; the L2 holds its lines in S). */
enum class CoherState : std::uint8_t { I, S, E, O, M };

/** Name of a coherence state (tests/traces). */
const char *coherStateName(CoherState s);

/** One tag-array entry; a way in state I is empty. */
struct CacheLine
{
    Addr addr = 0;           ///< full line address
    CoherState state = CoherState::I;
    std::uint64_t lastUse = 0;
};

/** Tag array of sets x ways lines. */
class CacheArray
{
  public:
    CacheArray(unsigned sets, unsigned ways, unsigned line_bytes);

    /** Lookup; returns nullptr on miss. Does not update LRU. */
    CacheLine *find(Addr line_addr);
    const CacheLine *find(Addr line_addr) const;

    /**
     * Choose a victim way in the set of @p line_addr: the first empty
     * way if one exists, else the LRU way (the lowest way on a tie).
     * Returns the slot; the caller inspects *victim to handle
     * writeback, then overwrites it. Allocates the set's ways on the
     * set's first call; a slot's address stays valid for the array's
     * lifetime.
     */
    CacheLine *victimFor(Addr line_addr);

    /** Install @p line_addr into @p slot with @p state (not I). */
    void fill(CacheLine *slot, Addr line_addr, CoherState state,
              std::uint64_t use_tick);

    /** Mark an access for LRU purposes. */
    void touch(CacheLine *line, std::uint64_t use_tick);

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Number of non-I lines (occupancy checks in tests). */
    unsigned validCount() const;

  private:
    unsigned setOf(Addr line_addr) const;

    unsigned sets_;
    unsigned ways_;
    unsigned lineBytes_;
    /** ways_ lines per set; null until the set's first victimFor. */
    std::vector<std::unique_ptr<CacheLine[]>> rows_;
};

} // namespace ocor

#endif // OCOR_MEM_CACHE_ARRAY_HH
