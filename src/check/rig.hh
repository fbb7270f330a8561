/**
 * @file
 * Shared test-rig construction for the check subsystem: a fast
 * HybridLlc over a pristine endurance fabric (write limits far beyond
 * anything a replay can accumulate, zero variability), so frame
 * capacities never bind and the degenerate-config assumptions of the
 * golden model and oracle hold.
 */

#ifndef HLLC_CHECK_RIG_HH
#define HLLC_CHECK_RIG_HH

#include <memory>

#include "common/rng.hh"
#include "fault/endurance.hh"
#include "fault/fault_map.hh"
#include "hybrid/hybrid_llc.hh"

namespace hllc::check
{

/** A fast LLC plus the pristine endurance fabric backing its NVM part. */
struct FastRig
{
    std::unique_ptr<fault::EnduranceModel> endurance;
    std::unique_ptr<fault::FaultMap> map;
    std::unique_ptr<hybrid::HybridLlc> llc;
};

inline FastRig
makeFastRig(const hybrid::HybridLlcConfig &config)
{
    FastRig rig;
    if (config.nvmWays > 0) {
        const fault::NvmGeometry geom{ config.numSets, config.nvmWays,
                                       blockBytes };
        rig.endurance = std::make_unique<fault::EnduranceModel>(
            geom, fault::EnduranceParams{ 1e15, 0.0 },
            Xoshiro256StarStar(1));
        rig.map = std::make_unique<fault::FaultMap>(
            *rig.endurance,
            hybrid::InsertionPolicy(config.policy).granularity());
    }
    rig.llc = std::make_unique<hybrid::HybridLlc>(config, rig.map.get());
    return rig;
}

} // namespace hllc::check

#endif // HLLC_CHECK_RIG_HH
