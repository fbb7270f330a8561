/**
 * @file
 * Forecasting-procedure tests: aging-step selection, capacity
 * monotonicity, lifetime interpolation and the headline policy ordering
 * on a miniature system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "forecast/forecast.hh"
#include "hierarchy/hierarchy.hh"
#include "workload/mixes.hh"

namespace
{

using namespace hllc;
using namespace hllc::forecast;
using hybrid::HybridLlcConfig;
using hybrid::PolicyKind;

fault::NvmGeometry
geom()
{
    return { 32, 12, 64 };
}

TEST(AgingStep, NoTrafficGivesMaxStep)
{
    const fault::EnduranceModel endurance(
        geom(), { 1e10, 0.2 }, Xoshiro256StarStar(1));
    fault::FaultMap map(geom(), fault::DisableGranularity::Byte);
    const AgingStepConfig config;
    EXPECT_DOUBLE_EQ(
        chooseAgingStep(map, endurance, 1.0, config), config.maxStep);
}

TEST(AgingStep, HeavyTrafficGivesShortStep)
{
    const fault::EnduranceModel endurance(
        geom(), { 1000.0, 0.2 }, Xoshiro256StarStar(1));
    fault::FaultMap map(geom(), fault::DisableGranularity::Byte);
    // Enormous write rate on every frame.
    for (std::uint32_t f = 0; f < geom().numFrames(); ++f)
        map.recordWrite(f, 64 * 100);
    const AgingStepConfig config;
    const Seconds step = chooseAgingStep(map, endurance, 1.0, config);
    EXPECT_LT(step, config.maxStep);
    EXPECT_GE(step, config.minStep);
}

TEST(AgingStep, StepScalesInverselyWithRate)
{
    // Limits sized so both steps fall inside (minStep, maxStep).
    const fault::EnduranceModel endurance(
        geom(), { 1e6, 0.2 }, Xoshiro256StarStar(2));
    AgingStepConfig config;
    config.minStep = 1e-6;

    fault::FaultMap slow(geom(), fault::DisableGranularity::Byte);
    fault::FaultMap fast(geom(), fault::DisableGranularity::Byte);
    for (std::uint32_t f = 0; f < geom().numFrames(); ++f) {
        slow.recordWrite(f, 64);
        fast.recordWrite(f, 64 * 10);
    }
    const Seconds s_slow = chooseAgingStep(slow, endurance, 1.0, config);
    const Seconds s_fast = chooseAgingStep(fast, endurance, 1.0, config);
    EXPECT_NEAR(s_slow / s_fast, 10.0, 1.0);
}

/**
 * The step by full selection: every written live byte's time-to-failure
 * in one vector, then nth_element. chooseAgingStep must return exactly
 * this value.
 */
Seconds
referenceAgingStep(const fault::FaultMap &map,
                   const fault::EnduranceModel &endurance,
                   Seconds window_seconds, const AgingStepConfig &config)
{
    const auto &g = map.geometry();
    std::vector<double> ttf;
    for (std::uint32_t f = 0; f < g.numFrames(); ++f) {
        const double pending = map.pendingWrites(f);
        const unsigned live = map.liveBytes(f);
        if (pending <= 0.0 || live == 0)
            continue;
        const double rate = pending / (live * window_seconds);
        for (unsigned b = 0; b < g.frameBytes; ++b) {
            if (!(map.liveMask(f) & (std::uint64_t{1} << b)))
                continue;
            const double remaining =
                endurance.limit(f, b) - map.writesSoFar(f, b);
            ttf.push_back(remaining <= 0.0 ? 0.0 : remaining / rate);
        }
    }
    double fraction = config.targetKillFraction;
    if (map.granularity() == fault::DisableGranularity::Frame)
        fraction /= g.frameBytes;
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction *
                                    static_cast<double>(g.numBytes())));
    if (k >= ttf.size())
        return config.maxStep;
    std::nth_element(ttf.begin(), ttf.begin() + (k - 1), ttf.end());
    return std::clamp(ttf[k - 1], config.minStep, config.maxStep);
}

TEST(AgingStep, MatchesFullSelectionExactlyAsMapsAge)
{
    // No clamping: the selected time-to-failure itself is compared.
    AgingStepConfig config;
    config.minStep = 0.0;
    config.maxStep = std::numeric_limits<double>::infinity();
    for (const auto granularity : { fault::DisableGranularity::Byte,
                                    fault::DisableGranularity::Frame }) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "frame disabling "
                         << (granularity == fault::DisableGranularity::Frame)
                         << ", seed " << seed);
            const fault::EnduranceModel endurance(
                geom(), { 2000.0, 0.3 }, Xoshiro256StarStar(seed));
            fault::FaultMap map(geom(), granularity);
            Xoshiro256StarStar rng(seed + 100);
            for (int round = 0; round < 6; ++round) {
                // Uneven traffic: some frames idle, others written with
                // random block sizes and counts.
                for (std::uint32_t f = 0; f < geom().numFrames(); ++f) {
                    if (!rng.nextBool(0.7))
                        continue;
                    const auto writes = 1 + rng.nextBounded(20);
                    for (std::uint64_t w = 0; w < writes; ++w)
                        map.recordWrite(
                            f, 2 + static_cast<unsigned>(
                                       rng.nextBounded(63)));
                }
                const Seconds window = 1e-3 * (round + 1);
                const Seconds step =
                    chooseAgingStep(map, endurance, window, config);
                EXPECT_EQ(step, referenceAgingStep(map, endurance, window,
                                                   config));
                EXPECT_LT(step, config.maxStep);
                map.age(endurance, step / window);
            }
            // The rounds killed bytes, so later steps saw holes in the
            // live masks.
            EXPECT_LT(map.effectiveCapacity(), 0.95);
        }
    }
}

TEST(AgingStep, NoMoreWrittenBytesThanKGivesMaxStep)
{
    // Byte disabling over geom(): k = 2% of 24576 bytes = 491.
    const fault::EnduranceModel endurance(
        geom(), { 1e6, 0.2 }, Xoshiro256StarStar(4));
    AgingStepConfig config;
    config.minStep = 0.0;
    fault::FaultMap map(geom(), fault::DisableGranularity::Byte);
    EXPECT_EQ(chooseAgingStep(map, endurance, 1.0, config), config.maxStep);

    // Eight written frames with 21 dead bytes: exactly k live bytes.
    for (std::uint32_t f = 0; f < 8; ++f)
        map.recordWrite(f, 64 * 1000);
    for (unsigned b = 0; b < 21; ++b)
        map.killByte(0, b);
    EXPECT_EQ(chooseAgingStep(map, endurance, 1.0, config), config.maxStep);
    EXPECT_EQ(referenceAgingStep(map, endurance, 1.0, config),
              config.maxStep);

    // One more written live byte: the step is the k-th smallest.
    map.recordWrite(8, 64 * 1000);
    for (unsigned b = 1; b < 64; ++b)
        map.killByte(8, b);
    const Seconds step = chooseAgingStep(map, endurance, 1.0, config);
    EXPECT_LT(step, config.maxStep);
    EXPECT_EQ(step, referenceAgingStep(map, endurance, 1.0, config));
}

TEST(AgingStep, ExhaustedBytesClampToMinStep)
{
    // cv = 10 truncates about half the limits to the 1-write floor. One
    // leveled write per byte leaves those bytes live (a byte dies only
    // above its limit) with nothing left to endure.
    const fault::EnduranceModel endurance(
        geom(), { 100.0, 10.0 }, Xoshiro256StarStar(3));
    fault::FaultMap map(geom(), fault::DisableGranularity::Byte);
    for (std::uint32_t f = 0; f < geom().numFrames(); ++f)
        map.recordWrite(f, 64);
    map.age(endurance, 1.0);
    ASSERT_EQ(map.effectiveCapacity(), 1.0);
    for (std::uint32_t f = 0; f < geom().numFrames(); ++f)
        map.recordWrite(f, 64);
    const AgingStepConfig config;
    const Seconds step = chooseAgingStep(map, endurance, 1.0, config);
    EXPECT_EQ(step, config.minStep);
    EXPECT_EQ(step, referenceAgingStep(map, endurance, 1.0, config));
}

TEST(Lifetime, InterpolatesCrossing)
{
    std::vector<ForecastPoint> series(3);
    series[0].time = 0.0;
    series[0].capacity = 1.0;
    series[1].time = 10.0 * secondsPerMonth;
    series[1].capacity = 0.8;
    series[2].time = 20.0 * secondsPerMonth;
    series[2].capacity = 0.2;
    // 0.5 crossing lies halfway between months 10 and 20.
    EXPECT_NEAR(ForecastEngine::lifetimeMonths(series, 0.5), 15.0, 0.01);
}

TEST(Lifetime, NeverCrossingReturnsHorizon)
{
    std::vector<ForecastPoint> series(2);
    series[1].time = 5.0 * secondsPerMonth;
    series[1].capacity = 0.9;
    EXPECT_NEAR(ForecastEngine::lifetimeMonths(series, 0.5), 5.0, 0.01);
}

/** End-to-end forecast on a miniature system; shared fixture. */
class ForecastEndToEnd : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kSets = 64;

    static const replay::LlcTrace &trace()
    {
        static const replay::LlcTrace t = hierarchy::captureTrace(
            workload::tableVMixes()[0], kSets * 16,
            hierarchy::PrivateCacheConfig{ 1024, 4, 4096, 16 }, 30000,
            33);
        return t;
    }

    static HybridLlcConfig
    llcConfig(PolicyKind policy)
    {
        HybridLlcConfig config;
        config.numSets = kSets;
        config.sramWays = 4;
        config.nvmWays = 12;
        config.policy = policy;
        config.epochCycles = 50'000;
        return config;
    }

    static std::vector<ForecastPoint>
    run(PolicyKind policy)
    {
        const auto config = llcConfig(policy);
        const fault::EnduranceModel endurance(
            { kSets, 12, 64 }, { 1e8, 0.2 }, Xoshiro256StarStar(3));
        ForecastConfig fc;
        fc.maxSteps = 120;
        ForecastEngine engine(endurance, config, { &trace() },
                              hierarchy::TimingParams{}, fc);
        return engine.run();
    }
};

TEST_F(ForecastEndToEnd, CapacityMonotonicallyDecreases)
{
    const auto series = run(PolicyKind::CpSd);
    ASSERT_GE(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series.front().capacity, 1.0);
    for (std::size_t i = 1; i < series.size(); ++i) {
        EXPECT_LE(series[i].capacity, series[i - 1].capacity);
        EXPECT_GE(series[i].time, series[i - 1].time);
    }
    EXPECT_LE(series.back().capacity, 0.5 + 0.05);
}

TEST_F(ForecastEndToEnd, PerformanceDegradesWithCapacity)
{
    const auto series = run(PolicyKind::CpSd);
    ASSERT_GE(series.size(), 3u);
    EXPECT_GT(series.front().meanIpc, 0.0);
    // End-of-life IPC must be below fresh-cache IPC.
    EXPECT_LT(series.back().meanIpc, series.front().meanIpc);
}

TEST_F(ForecastEndToEnd, PolicyLifetimeOrdering)
{
    // The paper's headline ordering: BH wears out far sooner than the
    // NVM-aware policies; LHybrid lasts at least as long as CP_SD.
    const double bh =
        ForecastEngine::lifetimeMonths(run(PolicyKind::Bh), 0.5);
    const double bhcp =
        ForecastEngine::lifetimeMonths(run(PolicyKind::BhCp), 0.5);
    const double cpsd =
        ForecastEngine::lifetimeMonths(run(PolicyKind::CpSd), 0.5);
    const double lhybrid =
        ForecastEngine::lifetimeMonths(run(PolicyKind::LHybrid), 0.5);

    EXPECT_GT(bhcp, bh * 1.5);
    EXPECT_GT(cpsd, bhcp);
    EXPECT_GT(lhybrid, cpsd * 0.8);
    EXPECT_GT(cpsd, bh * 3.0);
}

TEST_F(ForecastEndToEnd, SramOnlyForecastIsASinglePoint)
{
    HybridLlcConfig config = llcConfig(PolicyKind::SramOnly);
    config.sramWays = 16;
    config.nvmWays = 0;
    const fault::EnduranceModel endurance(
        { kSets, 12, 64 }, { 1e8, 0.2 }, Xoshiro256StarStar(3));
    ForecastEngine engine(endurance, config, { &trace() },
                          hierarchy::TimingParams{}, ForecastConfig{});
    const auto series = engine.run();
    ASSERT_EQ(series.size(), 1u);
    EXPECT_DOUBLE_EQ(series.front().capacity, 1.0);
    EXPECT_GT(series.front().meanIpc, 0.0);
}

} // namespace
