/**
 * @file
 * Fundamental scalar types shared by every OCOR module.
 *
 * The simulator is cycle driven; all timestamps are expressed in core
 * clock cycles (2 GHz in the paper's Table 2, but the library never
 * needs the absolute frequency).
 */

#ifndef OCOR_COMMON_TYPES_HH
#define OCOR_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace ocor
{

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Flat node index into the mesh (row-major, 0 .. numNodes-1). */
using NodeId = std::uint32_t;

/** Thread identifier; one thread per core in all paper experiments. */
using ThreadId = std::uint32_t;

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Identifier of a lock word (its cache-line address). */
using LockId = std::uint64_t;

/** Sentinel for "no node". */
inline constexpr NodeId invalidNode =
    std::numeric_limits<NodeId>::max();

/** Sentinel for "no thread". */
inline constexpr ThreadId invalidThread =
    std::numeric_limits<ThreadId>::max();

/** Sentinel cycle meaning "never / unset". */
inline constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

} // namespace ocor

#endif // OCOR_COMMON_TYPES_HH
