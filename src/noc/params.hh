/**
 * @file
 * Structural parameters of the NoC (Table 2 defaults).
 */

#ifndef OCOR_NOC_PARAMS_HH
#define OCOR_NOC_PARAMS_HH

namespace ocor
{

/** Buffering / pipelining parameters shared by routers and NIs. */
struct NocParams
{
    /** Virtual channels per port (Table 2: 6). */
    unsigned numVcs = 6;

    /** Flit slots per VC FIFO (Table 2: 4). */
    unsigned vcDepth = 4;

    /** Link traversal latency in cycles. */
    unsigned linkLatency = 1;

    /**
     * Router pipeline depth in cycles before a flit may traverse the
     * switch: stage 1 (RC/VA/SA in parallel) + stage 2 (ST) of the
     * 2-stage speculative router [Peh & Dally, HPCA'01].
     */
    unsigned routerStages = 2;
};

} // namespace ocor

#endif // OCOR_NOC_PARAMS_HH
