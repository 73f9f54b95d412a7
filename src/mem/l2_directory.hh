/**
 * @file
 * Shared L2 bank with an integrated MOESI directory.
 *
 * The home bank of every line serializes all coherence activity for
 * it (one transaction in flight per line; later requests queue in a
 * per-line pending FIFO, exactly like the lock requests of Figure 4
 * serialize at the lock variable's home node). The directory is
 * home-centric: owners write data back through the home instead of
 * forwarding cache-to-cache, which only lengthens the (fully
 * simulated) message chains and never changes protocol outcomes.
 *
 * Invariants, enforced by tests:
 *  - at most one owner per line;
 *  - a line with an owner has no conflicting exclusive grant pending;
 *  - every transaction eventually unblocks its pending queue.
 *
 * Storage grows with the lines a run touches (DESIGN.md §6): the
 * directory is a flat open-addressed table that starts small, and
 * every line's pending requests share one pool.
 */

#ifndef OCOR_MEM_L2_DIRECTORY_HH
#define OCOR_MEM_L2_DIRECTORY_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/cache_array.hh"
#include "mem/params.hh"
#include "noc/packet.hh"

namespace ocor
{

/** Directory/L2-bank observability counters. */
struct L2Stats
{
    std::uint64_t getS = 0;
    std::uint64_t getM = 0;
    std::uint64_t invsSent = 0;
    std::uint64_t fetchesSent = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t queuedRequests = 0;
    std::uint64_t staleAcks = 0;
    std::uint64_t l2Evictions = 0;
};

/** One node's shared L2 bank + directory controller. */
class L2Directory
{
  public:
    L2Directory(NodeId node, const AddressMap &amap,
                const MemParams &params, SendFn send);

    /** Coherence / memory traffic addressed to this bank. */
    void handle(const PacketPtr &pkt, Cycle now);

    /** Advance: process requests that finished the bank latency. */
    void tick(Cycle now);

    bool idle() const;

    /** Earliest cycle tick() would do any work (neverCycle = none):
     * delayed_ is a constant-latency FIFO, so its front is minimal.
     * Directory transactions advance via handle(), not tick(). */
    Cycle nextWake() const
    {
        return delayed_.empty() ? neverCycle : delayed_.front().first;
    }

    const L2Stats &stats() const { return stats_; }

    /** White-box inspection for tests. */
    NodeId ownerOf(Addr addr) const;
    std::uint64_t sharersOf(Addr addr) const;
    bool lineBusy(Addr addr) const;

  private:
    static constexpr std::uint32_t kNoPending = ~std::uint32_t{0};

    struct DirEntry
    {
        NodeId owner = invalidNode;
        std::uint32_t txSeq = 0;     ///< tags Inv/Fetch of each tx
        std::uint64_t sharers = 0;   ///< bit per node
        PacketPtr req;               ///< request being served
        unsigned acksLeft = 0;
        bool busy = false;
        bool waitingMem = false;
        bool waitingFetch = false;
        bool waitingUnblock = false;
        /** This line's FIFO of waiting requests in pending_. */
        std::uint32_t pendingHead = kNoPending;
        std::uint32_t pendingTail = kNoPending;
    };

    /** One slot of the line -> entry table. */
    struct DirSlot
    {
        Addr line = 0;
        bool used = false;
        DirEntry e;
    };

    /** A queued request and the next one of its line. */
    struct PendingReq
    {
        PacketPtr pkt;
        std::uint32_t next = kNoPending;
    };

    const DirEntry *findEntry(Addr line) const;
    DirEntry *findEntry(Addr line);
    /** The entry of @p line, inserted on first use. Inserting may
     * grow the table, which moves every entry. */
    DirEntry &entry(Addr line);
    std::size_t homeSlot(Addr line) const;
    /** The first unused slot on @p line's probe path. */
    DirSlot &freeSlot(Addr line);
    void pushPending(DirEntry &e, const PacketPtr &pkt);
    PacketPtr popPending(DirEntry &e);

    void process(const PacketPtr &pkt, Cycle now);
    void startRequest(DirEntry &e, const PacketPtr &pkt, Cycle now);
    void finishGetS(DirEntry &e, bool owner_had_data, Cycle now);
    void grantM(DirEntry &e, Cycle now);
    void awaitUnblock(DirEntry &e, const PacketPtr &req);
    void unbusyAndDrain(DirEntry &e, Cycle now);
    void fillL2(Addr line, Cycle now);

    NodeId node_;
    const AddressMap &amap_;
    MemParams params_;
    SendFn send_;

    CacheArray l2_;
    /**
     * Linear-probing table, a power of two in size and at most half
     * full. An entry never leaves it: evicting a line resets its
     * entry in place, the state a first request would see. So a
     * DirEntry reference stays valid until the next insertion, and
     * only process() inserts, for the line it is handling.
     */
    std::vector<DirSlot> dir_;
    std::size_t dirUsed_ = 0;
    /** Every line's queued requests; free slots chain through
     * PendingReq::next from freePending_. */
    std::vector<PendingReq> pending_;
    std::uint32_t freePending_ = kNoPending;
    std::deque<std::pair<Cycle, PacketPtr>> delayed_;
    std::uint64_t useTick_ = 0;

    L2Stats stats_;
};

} // namespace ocor

#endif // OCOR_MEM_L2_DIRECTORY_HH
