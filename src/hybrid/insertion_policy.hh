/**
 * @file
 * Insertion policies of the hybrid LLC, as one table.
 *
 * A policy answers, for each incoming block, which part (SRAM/NVM) it
 * should enter, and declares the structural features the LLC must enable
 * for it: compression + byte disabling vs. raw frames + frame disabling,
 * global vs. per-part replacement, SRAM-eviction migration, LHybrid's
 * loop-block-aware SRAM replacement, and Set Dueling. Every policy of the
 * paper (Table III) is one row of policyTable; adding a policy is one
 * PolicyKind enumerator plus one row.
 */

#ifndef HLLC_HYBRID_INSERTION_POLICY_HH
#define HLLC_HYBRID_INSERTION_POLICY_HH

#include <array>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "fault/fault_map.hh"
#include "hybrid/types.hh"

namespace hllc::hybrid
{

/** Everything a policy may consult when steering one incoming block. */
struct InsertContext
{
    Addr blockNum;      //!< block being inserted
    bool dirty;         //!< Put-dirty vs Put-clean
    unsigned ecbBytes;  //!< compressed (ECB) size of the contents
    ReuseClass reuse;   //!< current reuse classification
    unsigned hits;      //!< LLC hits since last memory fetch (TAP)
    std::uint32_t set;  //!< target set
    unsigned cpth;      //!< compression threshold in force for this set
};

/** Policy tunables carried by the LLC configuration. */
struct PolicyParams
{
    /** CA / CA_RWR compression threshold; the LLC passes it as ctx.cpth. */
    unsigned fixedCpth = 58;
    unsigned tapThreshold = 2;  //!< hits needed to become thrashing (TAP)
    double thPercent = 4.0;     //!< CP_SD_Th: Th (max hits sacrificed, %)
    double twPercent = 5.0;     //!< CP_SD_Th: Tw (min write reduction, %)
};

/** The steering rule a policy applies to each incoming block. */
enum class SteeringRule : std::uint8_t
{
    /**
     * BH / BH_CP / SRAM bound: the global (Fit-)LRU victim search decides
     * where the block lands; the part choice is never consulted.
     */
    Global,
    /** CA (Sec. IV-A): ECB <= CPth to NVM, bigger blocks to SRAM. */
    Ca,
    /**
     * CA_RWR and the CP_SD family (paper Table II): read-reused blocks to
     * NVM, write-reused to SRAM, non-reused blocks by ECB vs CPth.
     */
    CaRwr,
    /** LHybrid [9] (Sec. II-C): clean loop-blocks to NVM. */
    LHybrid,
    /** TAP [32] (Sec. II-C): clean thrashing-blocks to NVM. */
    Tap,
};

/** Where a Set Dueling policy's Th/Tw rule parameters come from. */
enum class ThTwSource : std::uint8_t
{
    /** Th = 0, Tw = 5: the plain max-hits winner (CP_SD, Sec. IV-C). */
    MaxHits,
    /** PolicyParams::thPercent / twPercent (CP_SD_Th, Sec. IV-D). */
    Params,
};

/** One row of the policy table. */
struct PolicySpec
{
    PolicyKind kind;
    std::string_view name;  //!< paper label
    SteeringRule rule;
    /** Blocks are stored compressed in NVM (byte disabling). */
    bool usesCompression;
    /** One (Fit-)LRU over all ways instead of steering to a part. */
    bool globalReplacement;
    /** An SRAM victim with read reuse migrates to NVM (Sec. IV-B). */
    bool migrateReadReuseOnSramEviction;
    /** On SRAM replacement the MRU loop-block migrates to NVM. */
    bool lhybridSramReplacement;
    /** The LLC runs the Set Dueling CPth selection (Sec. IV-C). */
    bool usesSetDueling;
    ThTwSource thTw;
};

// clang-format off
/** The policies evaluated in the paper, indexed by PolicyKind. */
inline constexpr std::array<PolicySpec, 9> policyTable = { {
    // kind, name, rule,
    //   compression, global, migrate-RR, LHybrid-SRAM, dueling, Th/Tw
    { PolicyKind::SramOnly, "SRAM", SteeringRule::Global,
      false, true,  false, false, false, ThTwSource::MaxHits },
    { PolicyKind::Bh, "BH", SteeringRule::Global,
      false, true,  false, false, false, ThTwSource::MaxHits },
    { PolicyKind::BhCp, "BH_CP", SteeringRule::Global,
      true,  true,  false, false, false, ThTwSource::MaxHits },
    { PolicyKind::Ca, "CA", SteeringRule::Ca,
      true,  false, false, false, false, ThTwSource::MaxHits },
    { PolicyKind::CaRwr, "CA_RWR", SteeringRule::CaRwr,
      true,  false, true,  false, false, ThTwSource::MaxHits },
    { PolicyKind::CpSd, "CP_SD", SteeringRule::CaRwr,
      true,  false, true,  false, true,  ThTwSource::MaxHits },
    { PolicyKind::CpSdTh, "CP_SD_Th", SteeringRule::CaRwr,
      true,  false, true,  false, true,  ThTwSource::Params },
    { PolicyKind::LHybrid, "LHybrid", SteeringRule::LHybrid,
      false, false, false, true,  false, ThTwSource::MaxHits },
    { PolicyKind::Tap, "TAP", SteeringRule::Tap,
      false, false, false, false, false, ThTwSource::MaxHits },
} };
// clang-format on

constexpr bool
policyTableIndexedByKind()
{
    for (std::size_t i = 0; i < policyTable.size(); ++i) {
        if (static_cast<std::size_t>(policyTable[i].kind) != i)
            return false;
    }
    return true;
}
static_assert(policyTableIndexedByKind(),
              "policyTable rows must follow PolicyKind order");

/** The table row of @p kind. */
constexpr const PolicySpec &
policySpec(PolicyKind kind)
{
    return policyTable[static_cast<std::size_t>(kind)];
}

/** Policy whose paper label is exactly @p name; nullopt otherwise. */
std::optional<PolicyKind> policyFromName(std::string_view name);

/**
 * Policies named by a comma list of paper labels ("BH,CP_SD"); one
 * trailing comma is allowed. nullopt when the list is empty or any name
 * is unknown.
 */
std::optional<std::vector<PolicyKind>>
policiesFromList(std::string_view list);

/** A table row bound to its parameters. */
class InsertionPolicy
{
  public:
    explicit InsertionPolicy(PolicyKind kind,
                             const PolicyParams &params = {});

    /** Heap-allocated policy, for callers that hold it by pointer. */
    static std::unique_ptr<InsertionPolicy>
    create(PolicyKind kind, const PolicyParams &params = {});

    PolicyKind kind() const { return spec_.kind; }
    /** Paper label, e.g. "CP_SD". */
    std::string_view name() const { return spec_.name; }

    /** Steer the incoming block of @p ctx to a part. */
    Part
    choosePart(const InsertContext &ctx) const
    {
        switch (spec_.rule) {
          case SteeringRule::Global:
            break;
          case SteeringRule::CaRwr:
            if (ctx.reuse == ReuseClass::Read)
                return Part::Nvm;  // long-lived resident
            if (ctx.reuse == ReuseClass::Write)
                return Part::Sram; // will be invalidated and rewritten
            [[fallthrough]];
          case SteeringRule::Ca:
            // ctx.cpth carries this set's threshold: the fixed value for
            // CA / CA_RWR, the dueling-selected one for the CP_SD family.
            return ctx.ecbBytes <= ctx.cpth ? Part::Nvm : Part::Sram;
          case SteeringRule::LHybrid:
            // A dirty Put can never be a loop-block.
            if (!ctx.dirty && ctx.reuse == ReuseClass::Read)
                return Part::Nvm;
            break;
          case SteeringRule::Tap:
            if (!ctx.dirty && ctx.reuse != ReuseClass::Write &&
                ctx.hits >= tapThreshold_) {
                return Part::Nvm;
            }
            break;
        }
        return Part::Sram;
    }

    bool usesCompression() const { return spec_.usesCompression; }
    bool globalReplacement() const { return spec_.globalReplacement; }
    bool
    migrateReadReuseOnSramEviction() const
    {
        return spec_.migrateReadReuseOnSramEviction;
    }
    bool
    lhybridSramReplacement() const
    {
        return spec_.lhybridSramReplacement;
    }
    bool usesSetDueling() const { return spec_.usesSetDueling; }

    /** Disabling granularity the NVM part must be configured with. */
    fault::DisableGranularity
    granularity() const
    {
        return usesCompression() ? fault::DisableGranularity::Byte
                                 : fault::DisableGranularity::Frame;
    }

    /** Th parameter of the CP_SD_Th rule (Sec. IV-D). */
    double thPercent() const { return thPercent_; }
    /** Tw parameter of the CP_SD_Th rule (Sec. IV-D). */
    double twPercent() const { return twPercent_; }

  private:
    PolicySpec spec_;
    unsigned tapThreshold_;
    double thPercent_;
    double twPercent_;
};

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_INSERTION_POLICY_HH
