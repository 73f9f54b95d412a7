#include "noc/packet.hh"

#include <atomic>

#include "common/log.hh"

namespace ocor
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetM: return "GetM";
      case MsgType::PutM: return "PutM";
      case MsgType::PutE: return "PutE";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::Fetch: return "Fetch";
      case MsgType::FetchResp: return "FetchResp";
      case MsgType::Data: return "Data";
      case MsgType::DataExcl: return "DataExcl";
      case MsgType::WbAck: return "WbAck";
      case MsgType::Unblock: return "Unblock";
      case MsgType::MemRead: return "MemRead";
      case MsgType::MemWrite: return "MemWrite";
      case MsgType::MemResp: return "MemResp";
      case MsgType::LockTry: return "LockTry";
      case MsgType::LockGrant: return "LockGrant";
      case MsgType::LockFail: return "LockFail";
      case MsgType::LockFreeNotify: return "LockFreeNotify";
      case MsgType::LockRelease: return "LockRelease";
      case MsgType::FutexWait: return "FutexWait";
      case MsgType::FutexWake: return "FutexWake";
      case MsgType::WakeNotify: return "WakeNotify";
      default: return "?";
    }
}

bool
isLockProtocol(MsgType t)
{
    switch (t) {
      case MsgType::LockTry:
      case MsgType::LockGrant:
      case MsgType::LockFail:
      case MsgType::LockFreeNotify:
      case MsgType::LockRelease:
      case MsgType::FutexWait:
      case MsgType::FutexWake:
      case MsgType::WakeNotify:
        return true;
      default:
        return false;
    }
}

bool
carriesData(MsgType t)
{
    switch (t) {
      case MsgType::PutM:
      case MsgType::FetchResp:
      case MsgType::Data:
      case MsgType::DataExcl:
      case MsgType::MemWrite:
      case MsgType::MemResp:
        return true;
      default:
        return false;
    }
}

unsigned
packetFlits(MsgType t)
{
    return carriesData(t) ? dataPacketFlits : 1;
}

PacketPtr
makePacket(MsgType type, NodeId src, NodeId dst, Addr addr)
{
    static std::atomic<std::uint64_t> nextId{1};
    auto pkt = std::make_shared<Packet>();
    pkt->id = nextId.fetch_add(1, std::memory_order_relaxed);
    pkt->type = type;
    pkt->src = src;
    pkt->dst = dst;
    pkt->addr = addr;
    pkt->numFlits = packetFlits(type);
    return pkt;
}

std::string
Packet::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "pkt#%llu %s %u->%u addr=%llx",
                  static_cast<unsigned long long>(id), msgTypeName(type),
                  src, dst, static_cast<unsigned long long>(addr));
    return buf;
}

} // namespace ocor
