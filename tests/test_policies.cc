/**
 * @file
 * Insertion-policy decision tests: the steering tables of paper
 * Sec. II-C (LHybrid, TAP) and Sec. IV (CA, CA_RWR), the policy table's
 * structural traits, names and Th/Tw sources.
 */

#include <gtest/gtest.h>

#include "hybrid/insertion_policy.hh"

namespace
{

using namespace hllc;
using namespace hllc::hybrid;

InsertContext
ctx(ReuseClass reuse, unsigned ecb, bool dirty = false,
    unsigned hits = 0, unsigned cpth = 58)
{
    return InsertContext{ 0x1000, dirty, ecb, reuse, hits, 0, cpth };
}

const PolicyKind allKinds[] = {
    PolicyKind::SramOnly, PolicyKind::Bh,     PolicyKind::BhCp,
    PolicyKind::Ca,       PolicyKind::CaRwr,  PolicyKind::CpSd,
    PolicyKind::CpSdTh,   PolicyKind::LHybrid, PolicyKind::Tap,
};

TEST(PolicyFactory, CreatesEveryKind)
{
    for (auto kind : allKinds) {
        const InsertionPolicy policy(kind);
        EXPECT_EQ(policy.kind(), kind);
        EXPECT_EQ(policy.name(), policyName(kind));
        EXPECT_FALSE(policy.name().empty());

        const auto heap = InsertionPolicy::create(kind);
        ASSERT_NE(heap, nullptr);
        EXPECT_EQ(heap->kind(), kind);
    }
}

TEST(PolicyNames, MatchPaperLabels)
{
    EXPECT_EQ(policyName(PolicyKind::SramOnly), "SRAM");
    EXPECT_EQ(policyName(PolicyKind::Bh), "BH");
    EXPECT_EQ(policyName(PolicyKind::BhCp), "BH_CP");
    EXPECT_EQ(policyName(PolicyKind::Ca), "CA");
    EXPECT_EQ(policyName(PolicyKind::CaRwr), "CA_RWR");
    EXPECT_EQ(policyName(PolicyKind::CpSd), "CP_SD");
    EXPECT_EQ(policyName(PolicyKind::CpSdTh), "CP_SD_Th");
    EXPECT_EQ(policyName(PolicyKind::LHybrid), "LHybrid");
    EXPECT_EQ(policyName(PolicyKind::Tap), "TAP");
}

TEST(PolicyNames, RoundTripThroughPolicyFromName)
{
    for (auto kind : allKinds) {
        const auto parsed = policyFromName(policyName(kind));
        ASSERT_TRUE(parsed.has_value()) << policyName(kind);
        EXPECT_EQ(*parsed, kind);
    }
    // Exact, case-sensitive match only.
    EXPECT_FALSE(policyFromName("cp_sd").has_value());
    EXPECT_FALSE(policyFromName("").has_value());
    EXPECT_FALSE(policyFromName("CP_SD ").has_value());
}

TEST(PolicyNames, CommaListsParseInOrder)
{
    const auto both = policiesFromList("BH,CP_SD");
    ASSERT_TRUE(both.has_value());
    EXPECT_EQ(*both,
              (std::vector<PolicyKind>{ PolicyKind::Bh, PolicyKind::CpSd }));
    // One trailing comma is tolerated, as the CLIs always have.
    const auto trailing = policiesFromList("BH,");
    ASSERT_TRUE(trailing.has_value());
    EXPECT_EQ(*trailing, std::vector<PolicyKind>{ PolicyKind::Bh });
}

TEST(PolicyNames, EmptyOrUnknownCommaListsAreRejected)
{
    EXPECT_FALSE(policiesFromList("").has_value());
    EXPECT_FALSE(policiesFromList(",BH").has_value());
    EXPECT_FALSE(policiesFromList("BH,XX").has_value());
    EXPECT_FALSE(policiesFromList("BH,,CP_SD").has_value());
}

TEST(PolicyFlags, CompressionImpliesByteDisabling)
{
    for (auto kind : allKinds) {
        const InsertionPolicy policy(kind);
        EXPECT_EQ(policy.granularity(),
                  policy.usesCompression()
                      ? fault::DisableGranularity::Byte
                      : fault::DisableGranularity::Frame)
            << policy.name();
    }
}

TEST(PolicyFlags, StructuralHooks)
{
    struct Expected
    {
        PolicyKind kind;
        bool compression, global, migrateRead, lhybridSram, dueling;
        fault::DisableGranularity granularity;
    };
    constexpr auto Byte = fault::DisableGranularity::Byte;
    constexpr auto Frame = fault::DisableGranularity::Frame;
    const Expected expected[] = {
        { PolicyKind::SramOnly, false, true, false, false, false, Frame },
        { PolicyKind::Bh, false, true, false, false, false, Frame },
        { PolicyKind::BhCp, true, true, false, false, false, Byte },
        { PolicyKind::Ca, true, false, false, false, false, Byte },
        { PolicyKind::CaRwr, true, false, true, false, false, Byte },
        { PolicyKind::CpSd, true, false, true, false, true, Byte },
        { PolicyKind::CpSdTh, true, false, true, false, true, Byte },
        { PolicyKind::LHybrid, false, false, false, true, false, Frame },
        { PolicyKind::Tap, false, false, false, false, false, Frame },
    };
    ASSERT_EQ(std::size(expected), policyTable.size());
    for (const Expected &e : expected) {
        const InsertionPolicy policy(e.kind);
        SCOPED_TRACE(std::string(policy.name()));
        EXPECT_EQ(policy.usesCompression(), e.compression);
        EXPECT_EQ(policy.globalReplacement(), e.global);
        EXPECT_EQ(policy.migrateReadReuseOnSramEviction(), e.migrateRead);
        EXPECT_EQ(policy.lhybridSramReplacement(), e.lhybridSram);
        EXPECT_EQ(policy.usesSetDueling(), e.dueling);
        EXPECT_EQ(policy.granularity(), e.granularity);
    }
}

TEST(PolicyFlags, CpSdIgnoresThTwParamsCpSdThHonoursThem)
{
    PolicyParams params;
    params.thPercent = 8.0;
    params.twPercent = 7.0;
    const InsertionPolicy cpsd(PolicyKind::CpSd, params);
    EXPECT_DOUBLE_EQ(cpsd.thPercent(), 0.0);
    EXPECT_DOUBLE_EQ(cpsd.twPercent(), 5.0);
    const InsertionPolicy th(PolicyKind::CpSdTh, params);
    EXPECT_DOUBLE_EQ(th.thPercent(), 8.0);
    EXPECT_DOUBLE_EQ(th.twPercent(), 7.0);
}

TEST(GlobalPolicies, NeverSteer)
{
    for (auto kind : { PolicyKind::SramOnly, PolicyKind::Bh,
                       PolicyKind::BhCp }) {
        const InsertionPolicy policy(kind);
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 2)), Part::Sram);
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 64, true, 9)),
                  Part::Sram);
    }
}

TEST(CaPolicy, SteersBySizeOnly)
{
    const InsertionPolicy ca(PolicyKind::Ca);
    // ctx.cpth is what matters (set-level threshold).
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 30)), Part::Nvm);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 58)), Part::Nvm);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 59)), Part::Sram);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 64)), Part::Sram);
    // Reuse is ignored by naive CA.
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::Write, 30)), Part::Nvm);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::Read, 64)), Part::Sram);
}

TEST(CaRwrPolicy, PaperTableII)
{
    for (auto kind : { PolicyKind::CaRwr, PolicyKind::CpSd,
                       PolicyKind::CpSdTh }) {
        const InsertionPolicy policy(kind);
        SCOPED_TRACE(std::string(policy.name()));
        // Read reuse -> NVM regardless of size.
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64)), Part::Nvm);
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 2)), Part::Nvm);
        // Write reuse -> SRAM regardless of size.
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 2)),
                  Part::Sram);
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 64)),
                  Part::Sram);
        // No reuse -> by compressed size.
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 37)), Part::Nvm);
        EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 64)),
                  Part::Sram);
    }
}

TEST(CaRwrPolicy, RespectsPerSetCpth)
{
    const InsertionPolicy policy(PolicyKind::CaRwr);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 44, false, 0, 30)),
              Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 44, false, 0, 44)),
              Part::Nvm);
}

TEST(LHybridPolicy, OnlyCleanLoopBlocksToNvm)
{
    const InsertionPolicy policy(PolicyKind::LHybrid);
    // Loop-block (read-reused, clean) -> NVM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false)),
              Part::Nvm);
    // Dirty Put can never be a loop-block.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, true)),
              Part::Sram);
    // Non-loop-blocks -> SRAM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 64, false)),
              Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 64, false)),
              Part::Sram);
}

TEST(TapPolicy, CleanThrashingBlocksOnly)
{
    PolicyParams params;
    params.tapThreshold = 2;
    const InsertionPolicy policy(PolicyKind::Tap, params);
    // Enough hits and clean -> NVM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 2)),
              Part::Nvm);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 5)),
              Part::Nvm);
    // Not enough reuse -> SRAM (more conservative than LHybrid).
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 1)),
              Part::Sram);
    // Dirty or write-reused -> SRAM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, true, 5)),
              Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 64, false, 5)),
              Part::Sram);
}

TEST(TapPolicy, ThresholdComesFromParams)
{
    PolicyParams params;
    params.tapThreshold = 4;
    const InsertionPolicy policy(PolicyKind::Tap, params);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 3)),
              Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 4)),
              Part::Nvm);
    // A non-reused clean block with enough hits is still thrashing.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 64, false, 4)),
              Part::Nvm);
}

} // namespace
