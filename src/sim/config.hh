/**
 * @file
 * Full system configuration (Table 2 defaults).
 */

#ifndef OCOR_SIM_CONFIG_HH
#define OCOR_SIM_CONFIG_HH

#include <cstdint>

#include "check/check_config.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "core/ocor_config.hh"
#include "mem/params.hh"
#include "noc/params.hh"
#include "noc/routing.hh"
#include "os/params.hh"

namespace ocor
{

/** Everything needed to instantiate one simulated CMP. */
struct SystemConfig
{
    MeshShape mesh{8, 8};   ///< 64 nodes (Table 2)
    NocParams noc;
    MemParams mem;
    OsParams os;
    OcorConfig ocor;

    /** One thread per core; fewer threads leave cores idle. */
    unsigned numThreads = 64;

    std::uint64_t seed = 1;

    /** Hard stop for runaway experiments. */
    Cycle maxCycles = 50'000'000;

    /**
     * Forward-progress watchdog: abort the run (with per-thread lock
     * diagnostics) when no thread retires work for this many cycles.
     * 0 disables. Checked at a coarse granularity, so small values
     * are rounded up by up to ~2k cycles.
     */
    Cycle progressWindow = 1'000'000;

    /** Base address of the lock-word region. */
    Addr lockRegionBase = 0x1000'0000;

    /** Event tracing (off by default: categories == 0). */
    TraceConfig trace;

    /** Runtime invariant checking (off by default — checks == 0 —
     * unless the build sets OCOR_CHECK, which flips the default mask
     * to every checker). */
    CheckConfig check;

    void validate() const;

    /** Mesh shape conventionally used for a given core count. */
    static MeshShape meshFor(unsigned cores);
};

} // namespace ocor

#endif // OCOR_SIM_CONFIG_HH
