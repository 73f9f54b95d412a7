#include "noc/arbiter.hh"

#include "common/log.hh"

namespace ocor
{

Arbiter::Arbiter(unsigned num_inputs) : numInputs_(num_inputs)
{
    if (num_inputs == 0 || num_inputs > ReqMask::capacity)
        ocor_panic("Arbiter: %u inputs (must be in [1, %u])", num_inputs,
                   ReqMask::capacity);
}

void
Arbiter::badInput(unsigned idx) const
{
    ocor_panic("Arbiter: request from input %u of %u", idx, numInputs_);
}

LpaResult
lpaSelect(const OcorConfig &cfg, const std::vector<LpaInput> &inputs)
{
    LpaResult res;
    if (inputs.size() > 64)
        ocor_panic("lpaSelect: more than 64 inputs");

    // Stage a: gate priority/progress words with the check bit.
    // Disabled OCOR behaves as if no packet carried priority.
    std::vector<OneHot> prio(inputs.size(), 0);
    std::vector<OneHot> prog(inputs.size(), 0);
    std::uint64_t valid_mask = 0;
    OneHot prog_or = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!inputs[i].valid)
            continue;
        valid_mask |= std::uint64_t{1} << i;
        if (cfg.enabled && inputs[i].fields.check) {
            prio[i] = inputs[i].fields.priorityBits;
            prog[i] = cfg.ruleSlowProgressFirst
                ? inputs[i].fields.progressBits
                : OneHot{1}; // progress rule off: all equal
            prog_or |= prog[i];
        }
    }
    if (valid_mask == 0)
        return res;

    if (prog_or == 0) {
        // Only normal packets request: all tie at level 0.
        res.highestLevel = 0;
        res.indexMask = valid_mask;
        return res;
    }

    // Stage b: slowest progress = lowest set bit of the OR-reduction.
    OneHot best_prog = prog_or & (~prog_or + 1);

    // Stage c: among candidates in the winning progress segment, the
    // highest priority bit wins.
    OneHot prio_or = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        if (prog[i] == best_prog)
            prio_or |= prio[i];
    OneHot best_prio = onehotHighest(prio_or);

    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        if (prog[i] == best_prog && prio[i] == best_prio)
            mask |= std::uint64_t{1} << i;

    // Extended level: progress-major flattening so callers can
    // compare LPA outputs across input channels (global stage).
    unsigned prog_level = cfg.numProgressLevels - 1
        - onehotDecode(best_prog);
    unsigned prio_level = onehotDecode(best_prio);

    res.highestLevel =
        1 + prio_level + (cfg.numRtrLevels + 2) * prog_level;
    res.indexMask = mask;
    return res;
}

} // namespace ocor
