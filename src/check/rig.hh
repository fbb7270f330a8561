/**
 * @file
 * Shared test-rig construction for the check subsystem: a fast
 * HybridLlc over a pristine fault map (every NVM byte live, and no aging
 * ever runs), so frame capacities never bind and the degenerate-config
 * assumptions of the golden model and oracle hold.
 */

#ifndef HLLC_CHECK_RIG_HH
#define HLLC_CHECK_RIG_HH

#include <memory>

#include "fault/fault_map.hh"
#include "hybrid/hybrid_llc.hh"

namespace hllc::check
{

/** A fast LLC plus the pristine fault map backing its NVM part. */
struct FastRig
{
    std::unique_ptr<fault::FaultMap> map;
    std::unique_ptr<hybrid::HybridLlc> llc;
};

inline FastRig
makeFastRig(const hybrid::HybridLlcConfig &config)
{
    FastRig rig;
    rig.map = hybrid::makeFaultMap(config);
    rig.llc = std::make_unique<hybrid::HybridLlc>(config, rig.map.get());
    return rig;
}

} // namespace hllc::check

#endif // HLLC_CHECK_RIG_HH
