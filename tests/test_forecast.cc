/**
 * @file
 * Forecasting-procedure tests: aging-step selection, capacity
 * monotonicity, lifetime interpolation and the headline policy ordering
 * on a miniature system.
 */

#include <gtest/gtest.h>

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
