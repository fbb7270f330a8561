/**
 * @file
 * Experiment/forecast-summary contract tests: deterministic forecasts,
 * series well-formedness, lifetime arithmetic against the scale factor,
 * and endurance-fabric sharing across policies.
 */

#include <gtest/gtest.h>

#include "common/numfmt.hh"
#include "sim/experiment.hh"

namespace
{

using namespace hllc;
using namespace hllc::sim;
using hybrid::PolicyKind;

const Experiment &
experiment()
{
    static const Experiment exp = [] {
        SystemConfig cfg = SystemConfig::tableIV(0.5);
        cfg.refsPerCore = 50'000;
        return Experiment(cfg, 2);
    }();
    return exp;
}

TEST(ExperimentForecast, SummaryWellFormed)
{
    const auto &cfg = experiment().config();
    const auto summary = experiment().runForecast(
        cfg.llcConfig(PolicyKind::CpSd), "CP_SD");

    ASSERT_FALSE(summary.series.empty());
    EXPECT_EQ(summary.label, "CP_SD");
    EXPECT_GT(summary.initialIpc, 0.0);
    EXPECT_DOUBLE_EQ(summary.series.front().capacity, 1.0);
    EXPECT_GT(summary.lifetimeMonths, 0.0);
    EXPECT_LE(summary.lifetimeMonths,
              summary.series.back().months() + 1e-9);
    // Capacity is non-increasing and time non-decreasing.
    for (std::size_t i = 1; i < summary.series.size(); ++i) {
        EXPECT_LE(summary.series[i].capacity,
                  summary.series[i - 1].capacity);
        EXPECT_GE(summary.series[i].time, summary.series[i - 1].time);
    }
}

TEST(ExperimentForecast, Deterministic)
{
    const auto &cfg = experiment().config();
    const auto a = experiment().runForecast(
        cfg.llcConfig(PolicyKind::BhCp), "a");
    const auto b = experiment().runForecast(
        cfg.llcConfig(PolicyKind::BhCp), "b");
    ASSERT_EQ(a.series.size(), b.series.size());
    EXPECT_DOUBLE_EQ(a.lifetimeMonths, b.lifetimeMonths);
    EXPECT_DOUBLE_EQ(a.initialIpc, b.initialIpc);
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.series[i].capacity, b.series[i].capacity);
        EXPECT_DOUBLE_EQ(a.series[i].meanIpc, b.series[i].meanIpc);
    }
}

TEST(ExperimentForecast, SharedEnduranceFabricAcrossPolicies)
{
    // Same geometry => same per-byte limits, the fair-comparison setup.
    const auto &cfg = experiment().config();
    const auto a = experiment().makeEndurance(
        cfg.llcConfig(PolicyKind::Bh));
    const auto b = experiment().makeEndurance(
        cfg.llcConfig(PolicyKind::CpSd));
    for (std::uint32_t f = 0; f < 8; ++f)
        for (unsigned byte = 0; byte < 64; ++byte)
            EXPECT_DOUBLE_EQ(a.limit(f, byte), b.limit(f, byte));
}

/** FNV-1a over "name=value\n" lines: pins every counter at once. */
std::uint64_t
counterDigest(const PhaseSummary &summary)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &[name, value] : summary.counters) {
        for (const char c : name + "=" + formatU64(value) + "\n") {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

TEST(ExperimentPhase, PinnedAggregateAndCounters)
{
    // Recorded before fault maps stopped sampling an endurance fabric
    // (BH, CP_SD) and before the Fit-LRU victim search became one pass
    // (the rest): replay-only phases must not depend on the limits they
    // never read, and each policy's replacement path (global Fit-LRU
    // over degraded frames, LHybrid's MRU migration, TAP's hit count,
    // CP_SD_Th's trade-off rule) must keep its decisions.
    hybrid::PolicyParams th8;
    th8.thPercent = 8.0;
    struct Pin
    {
        PolicyKind policy;
        hybrid::PolicyParams params;
        double capacity;
        std::uint64_t demandHits, demandAccesses, nvmBytesWritten;
        double meanIpc, hitRate, measuredSeconds;
        std::uint64_t counters;
    };
    const Pin pins[] = {
        { PolicyKind::Bh, {}, 1.0, 21561, 36177, 1016384,
          0.55654488299640836, 0.59598640019902149,
          0.00015209514285714285, 6292925075075169362ULL },
        { PolicyKind::Bh, {}, 0.75, 17982, 36177, 1027968,
          0.51228907931998158, 0.49705614064184428,
          0.00016605599999999998, 16661478081618540882ULL },
        { PolicyKind::CpSd, {}, 1.0, 19873, 36177, 330297,
          0.53391126742397255, 0.54932692041905073,
          0.00015703199999999998, 7574167530592955022ULL },
        { PolicyKind::CpSd, {}, 0.75, 17871, 36177, 192780,
          0.50663453871935626, 0.49398789286010447,
          0.00016478142857142858, 18413882033631981398ULL },
        { PolicyKind::BhCp, {}, 1.0, 21561, 36177, 617729,
          0.55654488299640836, 0.59598640019902149,
          0.00015209514285714285, 10583048043300765624ULL },
        { PolicyKind::BhCp, {}, 0.75, 20954, 36177, 297026,
          0.54654791219175447, 0.57920778395112915,
          0.00015370457142857143, 15241092294010278264ULL },
        { PolicyKind::LHybrid, {}, 1.0, 13093, 36177, 76096,
          0.45424361397194196, 0.36191502888575616,
          0.00018279742857142857, 11861192814219513989ULL },
        { PolicyKind::LHybrid, {}, 0.75, 13010, 36177, 76544,
          0.45346851412496181, 0.35962075351742823,
          0.00018312542857142858, 13668763761320954367ULL },
        { PolicyKind::Tap, {}, 1.0, 7033, 36177, 9472,
          0.402051696151767, 0.19440528512590874,
          0.00020641057142857142, 605516588933855174ULL },
        { PolicyKind::Tap, {}, 0.75, 7033, 36177, 9472,
          0.402051696151767, 0.19440528512590874,
          0.00020641057142857142, 605516588933855174ULL },
        { PolicyKind::CpSdTh, th8, 1.0, 19448, 36177, 244367,
          0.52640533574983306, 0.53757912485833537,
          0.00015864542857142857, 3983060658691471943ULL },
        { PolicyKind::CpSdTh, th8, 0.75, 17719, 36177, 171375,
          0.50437796794551082, 0.48978632833015451,
          0.00016533457142857143, 185053342796890110ULL },
    };
    const auto &cfg = experiment().config();
    for (const Pin &pin : pins) {
        const PhaseSummary s = experiment().runPhase(
            cfg.llcConfig(pin.policy, pin.params), "pin", pin.capacity);
        SCOPED_TRACE(testing::Message()
                     << hybrid::policyName(pin.policy) << " Th "
                     << pin.params.thPercent << " @ " << pin.capacity);
        EXPECT_EQ(s.aggregate.demandHits, pin.demandHits);
        EXPECT_EQ(s.aggregate.demandAccesses, pin.demandAccesses);
        EXPECT_EQ(s.aggregate.nvmBytesWritten, pin.nvmBytesWritten);
        EXPECT_DOUBLE_EQ(s.aggregate.meanIpc, pin.meanIpc);
        EXPECT_DOUBLE_EQ(s.aggregate.hitRate, pin.hitRate);
        EXPECT_DOUBLE_EQ(s.aggregate.measuredSeconds, pin.measuredSeconds);
        EXPECT_EQ(counterDigest(s), pin.counters);
    }
}

TEST(ExperimentForecast, FullScaleFactorArithmetic)
{
    EXPECT_DOUBLE_EQ(SystemConfig::tableIV(0.5).fullScaleFactor(), 32.0);
    EXPECT_DOUBLE_EQ(SystemConfig::tableIV(4.0).fullScaleFactor(), 4.0);
}

TEST(ExperimentForecast, CapacityFloorRespected)
{
    const auto &cfg = experiment().config();
    forecast::ForecastConfig fc;
    fc.capacityFloor = 0.8; // stop early
    const auto summary = experiment().runForecast(
        cfg.llcConfig(PolicyKind::Bh), "BH", fc);
    ASSERT_FALSE(summary.series.empty());
    // The last point is at or just below the floor; the one before it
    // (if any) is above.
    EXPECT_LE(summary.series.back().capacity, 0.8 + 0.05);
    if (summary.series.size() >= 2) {
        EXPECT_GT(summary.series[summary.series.size() - 2].capacity,
                  0.8);
    }
}

TEST(ExperimentForecast, FasterWearMeansShorterLife)
{
    // Same policy, 10x lower endurance => ~10x shorter lifetime.
    SystemConfig weak = experiment().config();
    weak.endurance.meanWrites /= 10.0;
    const Experiment weak_exp(weak, 1);
    const Experiment strong_exp(experiment().config(), 1);

    const auto llc =
        experiment().config().llcConfig(PolicyKind::BhCp);
    const double weak_life =
        weak_exp.runForecast(llc, "w").lifetimeMonths;
    const double strong_life =
        strong_exp.runForecast(llc, "s").lifetimeMonths;
    EXPECT_GT(strong_life, 5.0 * weak_life);
}

} // namespace
