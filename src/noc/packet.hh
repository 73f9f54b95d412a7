/**
 * @file
 * Network packet model.
 *
 * One cache block (128 B) travels as one 8-flit packet over the
 * 128-bit datapath; control / coherence messages are single-flit
 * packets (Table 2). Lock-protocol packets additionally carry the
 * OCOR priority header fields of Figure 8.
 */

#ifndef OCOR_NOC_PACKET_HH
#define OCOR_NOC_PACKET_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/types.hh"
#include "core/priority.hh"

namespace ocor
{

/** Every protocol message type that rides the NoC. */
enum class MsgType : std::uint8_t
{
    // Coherence / data traffic (priority check bit = 0).
    GetS,       ///< read request L1 -> home directory
    GetM,       ///< write/ownership request L1 -> home directory
    PutM,       ///< dirty eviction writeback (data) L1 -> home
    PutE,       ///< clean-exclusive eviction notice L1 -> home
    Inv,        ///< invalidation home -> sharer L1
    InvAck,     ///< invalidation acknowledgement L1 -> home
    Fetch,      ///< owner data recall home -> owner L1
    FetchResp,  ///< owner data writeback (data) L1 -> home
    Data,       ///< shared data response (data) home -> L1
    DataExcl,   ///< exclusive/modified data response (data) home -> L1
    WbAck,      ///< writeback acknowledgement home -> L1
    Unblock,    ///< fill confirmation L1 -> home (closes the tx)

    // Off-chip memory traffic (priority check bit = 0).
    MemRead,    ///< line fetch L2 bank -> memory controller
    MemWrite,   ///< line writeback (data) L2 bank -> memory controller
    MemResp,    ///< line fill (data) memory controller -> L2 bank

    // Lock protocol (priority check bit = 1 under OCOR).
    LockTry,    ///< atomic_try_lock request core -> home bank
    LockGrant,  ///< lock granted home -> core
    LockFail,   ///< lock denied (models the invalidation of Fig. 4)
    LockFreeNotify, ///< release invalidation home -> polling sharers
    LockRelease,///< atomic_release store core -> home bank
    FutexWait,  ///< sys_futex(FUTEX_WAIT) registration core -> home
    FutexWake,  ///< sys_futex(FUTEX_WAKE) request core -> home
    WakeNotify, ///< wake-up of one sleeping waiter home -> core

    NumTypes
};

/** Human-readable message type name (for traces and tests). */
const char *msgTypeName(MsgType t);

/** True for message types that belong to the lock protocol. */
bool isLockProtocol(MsgType t);

/** True for message types that carry a full cache line (8 flits). */
bool carriesData(MsgType t);

/** A protocol message travelling the network as a packet. */
struct Packet
{
    std::uint64_t id = 0;       ///< globally unique, for tracing
    MsgType type = MsgType::Data;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    unsigned numFlits = 1;

    /** OCOR header fields (Figure 8); empty on normal packets. */
    PriorityFields priority;

    // --- protocol payload ------------------------------------------
    Addr addr = 0;              ///< line address / lock word address
    ThreadId thread = invalidThread; ///< issuing / target thread
    NodeId requester = invalidNode;  ///< original requester (3-party)
    std::uint32_t aux = 0;      ///< ack counts, flags, etc.

    // --- bookkeeping -------------------------------------------------
    Cycle injectCycle = 0;      ///< enqueued at the source NI
    Cycle networkEnter = 0;     ///< first flit left the source NI
    Cycle ejectCycle = 0;       ///< tail flit consumed at the sink NI

    std::string describe() const;
};

using PacketPtr = std::shared_ptr<Packet>;

/** Injection hook handed to protocol engines by the system glue. */
using SendFn = std::function<void(const PacketPtr &, Cycle)>;

/** Allocate a packet with a fresh id and a size implied by its type. */
PacketPtr makePacket(MsgType type, NodeId src, NodeId dst, Addr addr);

/** Number of flits for a message of type @p t (1 or dataPacketFlits). */
unsigned packetFlits(MsgType t);

/** Flits of a full-cache-line packet (128 B line / 128-bit flits). */
inline constexpr unsigned dataPacketFlits = 8;

} // namespace ocor

#endif // OCOR_NOC_PACKET_HH
