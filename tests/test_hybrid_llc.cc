/**
 * @file
 * HybridLlc behavioural tests: the non-inclusive protocol edge
 * (GetS/GetX/Put, invalidate-on-GetX-hit), part steering, Fit-LRU over
 * faulty frames, SRAM-eviction migration, LHybrid replacement, global
 * (Fit-)LRU baselines, wear recording and fault-map revalidation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "check/rig.hh"
#include "compression/encoding.hh"
#include "common/rng.hh"
#include "hybrid/hybrid_llc.hh"

namespace
{

using namespace hllc;
using namespace hllc::hybrid;

constexpr std::uint32_t kSets = 32;

/** LLC + its fault map for one test, dereferencing to the LLC. */
struct Rig : check::FastRig
{
    HybridLlc *operator->() { return llc.get(); }
};

Rig
makeRig(PolicyKind policy, std::uint32_t sram_ways = 2,
        std::uint32_t nvm_ways = 2, PolicyParams params = {})
{
    HybridLlcConfig config;
    config.numSets = kSets;
    config.sramWays = sram_ways;
    config.nvmWays = nvm_ways;
    config.policy = policy;
    config.params = params;
    config.epochCycles = 1u << 20;
    return { check::makeFastRig(config) };
}

/** Block number landing in set 0 with a unique tag. */
Addr
blk(unsigned i)
{
    return static_cast<Addr>(i) * kSets;
}

TEST(HybridLlc, MissFillHitCycle)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    EXPECT_EQ(rig->onGetS(blk(1)), AccessOutcome::Miss);
    rig->onPut(blk(1), false, 30);
    EXPECT_TRUE(rig->contains(blk(1)));
    EXPECT_NE(rig->onGetS(blk(1)), AccessOutcome::Miss);
}

TEST(HybridLlc, GetXHitInvalidates)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), false, 30);
    EXPECT_NE(rig->onGetX(blk(1)), AccessOutcome::Miss);
    // Invalidate-on-hit: the copy is gone.
    EXPECT_FALSE(rig->contains(blk(1)));
    EXPECT_EQ(rig->stats().counterValue("invalidate_on_getx"), 1u);
}

TEST(HybridLlc, CleanPutOfResidentBlockWritesNothing)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), false, 30);
    const auto bytes = rig->nvmBytesWritten();
    rig->onPut(blk(1), false, 30);
    EXPECT_EQ(rig->nvmBytesWritten(), bytes);
    EXPECT_EQ(rig->stats().counterValue("puts_present"), 1u);
}

TEST(HybridLlc, CaSteersBySize)
{
    Rig rig = makeRig(PolicyKind::Ca); // fixedCpth 58
    rig->onPut(blk(1), false, 30);
    rig->onPut(blk(2), false, 64);
    EXPECT_EQ(rig->partOf(blk(1)), Part::Nvm);
    EXPECT_EQ(rig->partOf(blk(2)), Part::Sram);
}

TEST(HybridLlc, CompressedSizeIsWhatNvmWears)
{
    Rig rig = makeRig(PolicyKind::Ca);
    rig->onPut(blk(1), false, 30);
    EXPECT_EQ(rig->nvmBytesWritten(), 30u);
    // The fault map saw the same 30 pending bytes.
    const auto frames = rig.map->geometry().numFrames();
    double pending = 0.0;
    for (std::uint32_t f = 0; f < frames; ++f)
        pending += rig.map->pendingWrites(f);
    EXPECT_DOUBLE_EQ(pending, 30.0);
}

TEST(HybridLlc, UncompressedPoliciesWearFullFrames)
{
    Rig rig = makeRig(PolicyKind::Bh);
    rig->onPut(blk(1), false, 30); // compressible, but BH stores raw
    std::uint64_t nvm_bytes = rig->nvmBytesWritten();
    if (rig->partOf(blk(1)) == Part::Nvm)
        EXPECT_EQ(nvm_bytes, 64u);
    else
        EXPECT_EQ(nvm_bytes, 0u);
}

TEST(HybridLlc, ReadReuseClassification)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), false, 30);
    rig->onGetS(blk(1)); // clean hit -> read reuse
    EXPECT_EQ(rig->tracker().classOf(blk(1)), ReuseClass::Read);
}

TEST(HybridLlc, WriteReuseClassification)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), false, 30);
    rig->onGetX(blk(1)); // write-permission hit -> write reuse
    EXPECT_EQ(rig->tracker().classOf(blk(1)), ReuseClass::Write);
    // The dirty block comes back: write-reused blocks go to SRAM even
    // when highly compressed (paper Table II).
    rig->onPut(blk(1), true, 2);
    EXPECT_EQ(rig->partOf(blk(1)), Part::Sram);
}

TEST(HybridLlc, DirtyHitAlsoMeansWriteReuse)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), true, 30); // dirty insert (small -> NVM)
    rig->onGetS(blk(1));          // hit on a dirty copy
    EXPECT_EQ(rig->tracker().classOf(blk(1)), ReuseClass::Write);
}

TEST(HybridLlc, MissResetsReuseHistory)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), false, 30);
    rig->onGetS(blk(1));
    EXPECT_EQ(rig->tracker().classOf(blk(1)), ReuseClass::Read);
    rig->onGetX(blk(1)); // invalidates
    rig->onGetS(blk(1)); // miss: refetched from memory
    EXPECT_EQ(rig->tracker().classOf(blk(1)), ReuseClass::None);
}

TEST(HybridLlc, ReadReuseGoesToNvmEvenWhenBig)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), false, 64); // big -> SRAM
    EXPECT_EQ(rig->partOf(blk(1)), Part::Sram);
    rig->onGetS(blk(1)); // read reuse
    // Evict it from SRAM by filling the SRAM ways; the read-reused
    // victim must migrate to NVM (paper Sec. IV-B).
    rig->onPut(blk(2), false, 64);
    rig->onPut(blk(3), false, 64);
    EXPECT_EQ(rig->partOf(blk(1)), Part::Nvm);
    EXPECT_EQ(rig->stats().counterValue("migrations_to_nvm"), 1u);
}

TEST(HybridLlc, FitLruSkipsTooSmallFrames)
{
    Rig rig = makeRig(PolicyKind::Ca);
    // Degrade NVM frame (set 0, way 0): only 40 live bytes left.
    for (unsigned b = 0; b < 24; ++b)
        rig.map->killByte(rig.map->geometry().frameIndex(0, 0), b);
    // A 44-byte block fits only frame 1; a 30-byte block fits both.
    rig->onPut(blk(1), false, 44);
    rig->onPut(blk(2), false, 44);
    // Only one NVM frame can hold 44 bytes: second 44B block must not
    // evict the first from frame 1 into frame 0.
    EXPECT_EQ(rig->stats().counterValue("inserts_nvm"), 2u);
    EXPECT_EQ(rig->stats().counterValue("evictions_nvm"), 1u);
}

TEST(HybridLlc, NvmFallbackToSramWhenNothingFits)
{
    Rig rig = makeRig(PolicyKind::Ca);
    // Both NVM frames of set 0 down to 20 live bytes.
    for (unsigned w = 0; w < 2; ++w)
        for (unsigned b = 0; b < 44; ++b)
            rig.map->killByte(rig.map->geometry().frameIndex(0, w), b);
    rig->onPut(blk(1), false, 30); // small, but does not fit NVM
    EXPECT_EQ(rig->partOf(blk(1)), Part::Sram);
    EXPECT_EQ(rig->stats().counterValue("insert_nvm_fallback_sram"), 1u);
    // A tiny block still lands in NVM.
    rig->onPut(blk(2), false, 9);
    EXPECT_EQ(rig->partOf(blk(2)), Part::Nvm);
}

TEST(HybridLlc, BhGlobalLruSpansBothParts)
{
    Rig rig = makeRig(PolicyKind::Bh);
    // 4 ways total in set 0; fill them all.
    for (unsigned i = 1; i <= 4; ++i)
        rig->onPut(blk(i), false, 64);
    EXPECT_EQ(rig->stats().counterValue("inserts_sram") +
                  rig->stats().counterValue("inserts_nvm"), 4u);
    // Fifth insert evicts the global LRU (block 1), wherever it lives.
    rig->onPut(blk(5), false, 64);
    EXPECT_FALSE(rig->contains(blk(1)));
}

TEST(HybridLlc, BhSkipsDeadFrames)
{
    Rig rig = makeRig(PolicyKind::Bh);
    // Frame-disabling: kill both NVM frames of set 0.
    rig.map->killFrame(rig.map->geometry().frameIndex(0, 0));
    rig.map->killFrame(rig.map->geometry().frameIndex(0, 1));
    for (unsigned i = 1; i <= 4; ++i)
        rig->onPut(blk(i), false, 64);
    // Everything must have gone to the two SRAM ways.
    EXPECT_EQ(rig->stats().counterValue("inserts_nvm"), 0u);
    EXPECT_EQ(rig->stats().counterValue("inserts_sram"), 4u);
    EXPECT_FALSE(rig->contains(blk(1)));
    EXPECT_FALSE(rig->contains(blk(2)));
}

/** Records the way of every fill and the number of bypasses. */
struct FillLog : LlcProbe
{
    std::vector<std::uint32_t> ways;
    unsigned bypasses = 0;

    void
    onFill(std::uint32_t, std::uint32_t way, Addr, bool, unsigned,
           bool) override
    {
        ways.push_back(way);
    }
    void onBypass(Addr, bool) override { ++bypasses; }
};

TEST(HybridLlc, EmptyFittingWayBeatsValidOnesLowestIndexFirst)
{
    Rig rig = makeRig(PolicyKind::BhCp);
    FillLog log;
    rig->setProbe(&log);
    for (unsigned i = 1; i <= 4; ++i)
        rig->onPut(blk(i), false, 64);
    EXPECT_EQ(log.ways, (std::vector<std::uint32_t>{ 0, 1, 2, 3 }));

    // Way 1 empties with the newest stamp; it still beats the LRU
    // valid way 0.
    rig->onGetS(blk(2));
    rig->onGetX(blk(2));
    rig->onPut(blk(5), false, 64);
    EXPECT_EQ(log.ways.back(), 1u);
    EXPECT_TRUE(rig->contains(blk(1)));

    // Ways 2 and 0 empty (in that order): the lowest index fills first.
    rig->onGetX(blk(3));
    rig->onGetX(blk(1));
    rig->onPut(blk(6), false, 64);
    rig->onPut(blk(7), false, 64);
    EXPECT_EQ(log.ways, (std::vector<std::uint32_t>{ 0, 1, 2, 3, 1, 0, 2 }));
    EXPECT_EQ(rig->stats().counterValue("evictions_sram") +
                  rig->stats().counterValue("evictions_nvm"), 0u);
    rig->setProbe(nullptr);
}

TEST(HybridLlc, FitLruSkipsTooSmallAndDeadEmptyFrames)
{
    Rig rig = makeRig(PolicyKind::BhCp);
    FillLog log;
    rig->setProbe(&log);
    // NVM way 2 keeps 40 live bytes; NVM way 3 is dead.
    for (unsigned b = 0; b < 24; ++b)
        rig.map->killByte(rig.map->geometry().frameIndex(0, 0), b);
    rig.map->killFrame(rig.map->geometry().frameIndex(0, 1));

    rig->onPut(blk(1), false, 44);
    rig->onPut(blk(2), false, 44);
    // Both empty NVM frames are skipped: the LRU SRAM way (block 1) goes.
    rig->onPut(blk(3), false, 44);
    EXPECT_EQ(log.ways, (std::vector<std::uint32_t>{ 0, 1, 0 }));
    EXPECT_FALSE(rig->contains(blk(1)));
    // A 30-byte block fits the degraded frame, which is empty.
    rig->onPut(blk(4), false, 30);
    EXPECT_EQ(log.ways.back(), 2u);
    EXPECT_EQ(rig->stats().counterValue("inserts_nvm"), 1u);
    rig->setProbe(nullptr);
}

TEST(HybridLlc, BlockBypassesWhenNoFrameFits)
{
    // Global Fit-LRU with no SRAM: two NVM frames of 20 live bytes.
    Rig rig = makeRig(PolicyKind::BhCp, 0, 2);
    FillLog log;
    rig->setProbe(&log);
    for (unsigned w = 0; w < 2; ++w)
        for (unsigned b = 0; b < 44; ++b)
            rig.map->killByte(rig.map->geometry().frameIndex(0, w), b);
    rig->onPut(blk(1), true, 30);
    EXPECT_FALSE(rig->contains(blk(1)));
    EXPECT_EQ(rig->stats().counterValue("bypasses"), 1u);
    EXPECT_EQ(rig->stats().counterValue("writebacks_dirty"), 1u);
    EXPECT_EQ(log.bypasses, 1u);
    EXPECT_TRUE(log.ways.empty());
    rig->onPut(blk(2), false, 20);
    EXPECT_EQ(log.ways, (std::vector<std::uint32_t>{ 0 }));
    rig->setProbe(nullptr);
}

TEST(HybridLlc, LHybridMigratesMruLoopBlock)
{
    Rig rig = makeRig(PolicyKind::LHybrid);
    // Two clean blocks fill SRAM; one becomes a loop-block via a hit.
    rig->onPut(blk(1), false, 64);
    rig->onPut(blk(2), false, 64);
    rig->onGetS(blk(2)); // block 2 is now a loop-block (LB)
    EXPECT_EQ(rig->partOf(blk(2)), Part::Sram);
    // SRAM is full; inserting an NLB must migrate the MRU LB to NVM.
    rig->onPut(blk(3), false, 64);
    EXPECT_EQ(rig->partOf(blk(2)), Part::Nvm);
    EXPECT_TRUE(rig->contains(blk(3)));
    EXPECT_EQ(rig->stats().counterValue("migrations_to_nvm"), 1u);
}

TEST(HybridLlc, LHybridEvictsLruWhenNoLoopBlocks)
{
    Rig rig = makeRig(PolicyKind::LHybrid);
    rig->onPut(blk(1), false, 64);
    rig->onPut(blk(2), false, 64);
    rig->onPut(blk(3), false, 64); // no LBs: LRU (block 1) evicted
    EXPECT_FALSE(rig->contains(blk(1)));
    EXPECT_EQ(rig->stats().counterValue("inserts_nvm"), 0u);
}

TEST(HybridLlc, DirtyEvictionWritesBack)
{
    Rig rig = makeRig(PolicyKind::LHybrid);
    rig->onPut(blk(1), true, 64);
    rig->onPut(blk(2), true, 64);
    rig->onPut(blk(3), true, 64); // evicts dirty block 1
    EXPECT_EQ(rig->stats().counterValue("writebacks_dirty"), 1u);
}

TEST(HybridLlc, InPlaceDirtyUpdateRewrites)
{
    Rig rig = makeRig(PolicyKind::Ca);
    rig->onPut(blk(1), false, 30);
    EXPECT_EQ(rig->partOf(blk(1)), Part::Nvm);
    const auto bytes_before = rig->nvmBytesWritten();
    // Dirty Put over the (stale) resident copy: in-place rewrite.
    rig->onPut(blk(1), true, 24);
    EXPECT_EQ(rig->stats().counterValue("inplace_updates"), 1u);
    EXPECT_EQ(rig->nvmBytesWritten(), bytes_before + 24);
}

TEST(HybridLlc, RevalidateDropsBlocksThatNoLongerFit)
{
    Rig rig = makeRig(PolicyKind::Ca);
    rig->onPut(blk(1), false, 44);
    ASSERT_EQ(rig->partOf(blk(1)), Part::Nvm);
    // Age the frame below 44 live bytes.
    const auto frames = rig.map->geometry().numFrames();
    for (std::uint32_t f = 0; f < frames; ++f)
        for (unsigned b = 0; b < 30; ++b)
            rig.map->killByte(f, b);
    rig->revalidateAgainstFaultMap();
    EXPECT_FALSE(rig->contains(blk(1)));
    EXPECT_EQ(rig->stats().counterValue("aged_out"), 1u);
}

TEST(HybridLlc, ResetClearsContentsAndTracker)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onPut(blk(1), false, 30);
    rig->onGetS(blk(1));
    rig->reset();
    EXPECT_FALSE(rig->contains(blk(1)));
    EXPECT_EQ(rig->tracker().classOf(blk(1)), ReuseClass::None);
    EXPECT_EQ(rig->tracker().size(), 0u);
}

TEST(HybridLlc, SramOnlyNeverTouchesNvm)
{
    Rig rig = makeRig(PolicyKind::SramOnly, 4, 0);
    for (unsigned i = 1; i <= 8; ++i) {
        rig->onPut(blk(i), false, 30);
        rig->onGetS(blk(i));
    }
    EXPECT_EQ(rig->nvmBytesWritten(), 0u);
    EXPECT_EQ(rig->stats().counterValue("inserts_nvm"), 0u);
}

TEST(HybridLlc, DuelingEnabledOnlyForCpSd)
{
    EXPECT_NE(makeRig(PolicyKind::CpSd)->dueling(), nullptr);
    EXPECT_EQ(makeRig(PolicyKind::Ca)->dueling(), nullptr);
    EXPECT_EQ(makeRig(PolicyKind::LHybrid)->dueling(), nullptr);
}

TEST(HybridLlc, CpSdLeaderSetsUseTheirCandidate)
{
    Rig rig = makeRig(PolicyKind::CpSd);
    const auto &candidates = hllc::compression::cpthCandidates();
    for (std::size_t c = 0; c < candidates.size(); ++c)
        EXPECT_EQ(rig->cpthForSet(static_cast<std::uint32_t>(c)),
                  candidates[c]);
    // Follower sets track the winner.
    EXPECT_EQ(rig->cpthForSet(20), rig->dueling()->winner());
}

TEST(HybridLlc, HandleDispatchesAndTicksEpochs)
{
    Rig rig = makeRig(PolicyKind::CpSd);
    LlcEvent ev{ blk(1), LlcEventType::GetS, 64, 0 };
    EXPECT_EQ(rig->handle(ev), AccessOutcome::Miss);
    ev.type = LlcEventType::PutClean;
    ev.ecbBytes = 30;
    rig->handle(ev);
    ev.type = LlcEventType::GetS;
    EXPECT_NE(rig->handle(ev), AccessOutcome::Miss);
    // Epoch clock advanced 3 * cyclesPerEvent.
    EXPECT_EQ(rig->demandAccesses(), 2u);
}

TEST(HybridLlc, HitRateArithmetic)
{
    Rig rig = makeRig(PolicyKind::CaRwr);
    rig->onGetS(blk(1));           // miss
    rig->onPut(blk(1), false, 30);
    rig->onGetS(blk(1));           // hit
    rig->onGetS(blk(2));           // miss
    EXPECT_EQ(rig->demandAccesses(), 3u);
    EXPECT_EQ(rig->demandHits(), 1u);
    EXPECT_NEAR(rig->hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(ReuseTracker, LookupAgreesWithClassOfAndAModel)
{
    struct Model
    {
        ReuseClass reuse = ReuseClass::None;
        unsigned hits = 0;
    };
    constexpr std::uint64_t kBlocks = 6000;
    std::unordered_map<Addr, Model> model;
    ReuseTracker tracker;
    const auto agrees = [&](Addr block) {
        const ReuseTracker::Entry e = tracker.lookup(block);
        const auto it = model.find(block);
        const Model m = it == model.end() ? Model{} : it->second;
        return e.reuse == tracker.classOf(block) && e.reuse == m.reuse &&
               e.hits == m.hits;
    };

    Xoshiro256StarStar rng(7);
    for (int step = 0; step < 40000; ++step) {
        const Addr block = rng.nextBounded(kBlocks);
        const auto op = rng.nextBounded(6);
        if (op == 5) {
            tracker.onMemoryFetch(block);
            model.erase(block);
        } else {
            const bool getx = op == 1;
            const bool dirty = op == 2;
            tracker.onLlcHit(block, getx, dirty);
            Model &m = model[block];
            ++m.hits;
            m.reuse = getx || dirty ? ReuseClass::Write : ReuseClass::Read;
        }
        ASSERT_TRUE(agrees(block)) << "block " << block << ", step " << step;
        ASSERT_TRUE(agrees(rng.nextBounded(kBlocks)));
    }
    // The table grew well past its initial 1024 slots.
    ASSERT_GT(tracker.size(), 2048u);
    EXPECT_EQ(tracker.size(), model.size());
    for (Addr block = 0; block < kBlocks; ++block)
        ASSERT_TRUE(agrees(block)) << "block " << block;
}

} // namespace
