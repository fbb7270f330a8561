/**
 * @file
 * Per-byte NVM write-endurance model.
 *
 * Each NVM byte (the disabling granularity) draws a write limit from a
 * normal distribution of mean mu and coefficient of variation cv
 * (paper Sec. II-A: mu around 1e10 writes, cv 0.2-0.3, reflecting
 * manufacturing variability). A byte becomes permanently faulty once its
 * cumulative write count exceeds its limit.
 */

#ifndef HLLC_FAULT_ENDURANCE_HH
#define HLLC_FAULT_ENDURANCE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace hllc::fault
{

/** Geometry of the NVM part of the LLC data array. */
struct NvmGeometry
{
    std::uint32_t numSets = 0;      //!< LLC sets
    std::uint32_t numNvmWays = 0;   //!< NVM ways per set
    std::uint32_t frameBytes = blockBytes; //!< bytes per frame

    std::uint32_t numFrames() const { return numSets * numNvmWays; }
    std::uint64_t numBytes() const
    {
        return static_cast<std::uint64_t>(numFrames()) * frameBytes;
    }

    /** Linear frame index of (set, NVM way). */
    std::uint32_t
    frameIndex(std::uint32_t set, std::uint32_t nvm_way) const
    {
        return set * numNvmWays + nvm_way;
    }

    bool operator==(const NvmGeometry &) const = default;
};

/** Parameters of the endurance distribution. */
struct EnduranceParams
{
    double meanWrites = 1e10;   //!< mu of the normal distribution
    double cv = 0.2;            //!< sigma / mu
};

/**
 * Holds the per-byte write limits of the whole NVM data array. Limits are
 * drawn once at construction and are immutable afterwards; wear state
 * (cumulative writes) lives in the FaultMap so that the same endurance
 * fabric can be re-aged under different policies from a common seed.
 */
class EnduranceModel
{
  public:
    EnduranceModel(const NvmGeometry &geometry,
                   const EnduranceParams &params,
                   Xoshiro256StarStar rng);

    const NvmGeometry &geometry() const { return geometry_; }
    const EnduranceParams &params() const { return params_; }

    /** Write limit of byte @p byte of frame @p frame. */
    double
    limit(std::uint32_t frame, std::uint32_t byte) const
    {
        return limits_[static_cast<std::size_t>(frame) *
                       geometry_.frameBytes + byte];
    }

  private:
    NvmGeometry geometry_;
    EnduranceParams params_;
    /**
     * float keeps the 1.5M-entry array compact; the ~1e-7 relative
     * quantisation is far below the cv=0.2 modelled variability.
     */
    std::vector<float> limits_;
};

} // namespace hllc::fault

#endif // HLLC_FAULT_ENDURANCE_HH
