/**
 * @file
 * Flit model: the unit of link traversal and buffering.
 *
 * A packet of N flits is serialized as HEAD, BODY*, TAIL (a single
 * flit packet is HEAD_TAIL). Flits reference their parent packet so
 * routers can read routing/priority information from any flit of the
 * packet without duplicating the header.
 */

#ifndef OCOR_NOC_FLIT_HH
#define OCOR_NOC_FLIT_HH

#include "common/types.hh"
#include "noc/packet.hh"

namespace ocor
{

/** Position of a flit inside its packet. */
enum class FlitType : std::uint8_t { Head, Body, Tail, HeadTail };

/** One flit of a packet. */
struct Flit
{
    PacketPtr pkt;
    FlitType type = FlitType::HeadTail;
    unsigned index = 0;      ///< 0 .. pkt->numFlits-1
    unsigned vc = 0;         ///< VC currently occupied (rewritten per hop)

    bool isHead() const
    {
        return type == FlitType::Head || type == FlitType::HeadTail;
    }
    bool isTail() const
    {
        return type == FlitType::Tail || type == FlitType::HeadTail;
    }
};

/** Flit type for position @p index of an @p n flit packet. */
FlitType flitTypeFor(unsigned index, unsigned n);

} // namespace ocor

#endif // OCOR_NOC_FLIT_HH
