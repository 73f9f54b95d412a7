/**
 * @file
 * Physical address interpretation: line granularity, home L2 bank
 * interleaving, and memory-controller placement.
 *
 * Per Section 3.1 / Table 2: 128 B cache blocks, one shared L2 bank
 * per node (address-interleaved), and eight memory controllers
 * attached to the middle four nodes of the top and bottom mesh rows
 * for architectural symmetry.
 */

#ifndef OCOR_MEM_ADDRESS_MAP_HH
#define OCOR_MEM_ADDRESS_MAP_HH

#include <vector>

#include "common/types.hh"
#include "noc/routing.hh"

namespace ocor
{

/** Address decomposition and home mapping for one system instance. */
class AddressMap
{
  public:
    AddressMap(const MeshShape &mesh, unsigned line_bytes = 128);

    unsigned lineBytes() const { return lineBytes_; }

    /** Align an address down to its cache line. */
    Addr lineAddr(Addr a) const { return a & ~Addr{lineBytes_ - 1}; }

    /** Line index used for interleaving. */
    Addr lineIndex(Addr a) const { return a / lineBytes_; }

    /** Home L2 bank (node) of an address. */
    NodeId homeOf(Addr a) const
    {
        return static_cast<NodeId>(lineIndex(a) % mesh_.numNodes());
    }

    /** Memory controller node serving an address. */
    NodeId mcOf(Addr a) const
    {
        return mcNodes_[lineIndex(a) / mesh_.numNodes()
                        % mcNodes_.size()];
    }

    /** All nodes that host a memory controller, ascending and
     * unique. */
    const std::vector<NodeId> &mcNodes() const { return mcNodes_; }

    const MeshShape &mesh() const { return mesh_; }

  private:
    MeshShape mesh_;
    unsigned lineBytes_;
    std::vector<NodeId> mcNodes_;
};

} // namespace ocor

#endif // OCOR_MEM_ADDRESS_MAP_HH
