/**
 * @file
 * Tests of the benchmark's own logic: percentile refusal, metric names,
 * the paper error, and open-loop lateness accounting.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "report.hh"
#include "stats.hh"

using namespace perfbench;

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond)
{
    std::vector<double> samples(999);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = static_cast<double>(i);
    EXPECT_FALSE(percentile(samples, 99.0)); // only 9 beyond rank 990

    samples.push_back(999.0);
    const auto p99 = percentile(samples, 99.0);
    ASSERT_TRUE(p99);
    EXPECT_EQ(p99->samples, 1000u);
    EXPECT_EQ(p99->value, 989.0); // nearest rank 990 of 0..999
}

TEST(Percentile, MedianNeedsTwentySamples)
{
    std::vector<double> samples(19, 1.0);
    EXPECT_FALSE(percentile(samples, 50.0));
    samples.push_back(3.0);
    const auto p50 = percentile(samples, 50.0);
    ASSERT_TRUE(p50);
    EXPECT_EQ(p50->samples, 20u);
    EXPECT_EQ(p50->value, 1.0);
}

TEST(Percentile, TailFallsBackToTheMaximum)
{
    const std::vector<double> few = { 4.0, 9.0, 1.0 };
    const Percentile tail = tailLatency(few);
    EXPECT_EQ(tail.value, 9.0);
    EXPECT_EQ(tail.samples, 3u);
}

TEST(Median, EvenAndOdd)
{
    EXPECT_EQ(median({ 3.0, 1.0, 2.0 }), 2.0);
    EXPECT_EQ(median({ 4.0, 1.0, 2.0, 3.0 }), 2.5);
}

TEST(MetricNames, CatalogNamesAreValidAndUnique)
{
    std::set<std::string> seen;
    for (const auto *specs : { &endToEndMetrics(), &perLayerMetrics() }) {
        for (const MetricSpec &spec : *specs) {
            EXPECT_TRUE(validMetricName(spec.name)) << spec.name;
            EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
            EXPECT_FALSE(spec.unit.empty()) << spec.name;
        }
    }
    EXPECT_LE(perLayerMetrics().size(), 128u);
}

TEST(MetricNames, RejectsOutsideTheAlphabet)
{
    EXPECT_TRUE(validMetricName("replay.ns_per_event.CP_SD_Th4"));
    EXPECT_TRUE(validMetricName("9lives-ok"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".leading_dot"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(PaperErr, MatchesHandComputedValue)
{
    // Lifetimes x BH: BH_CP 4.8 (exact), LHybrid 9.85 (half), TAP 78
    // (double), CP_SD 16.8 (exact); IPC: LHybrid 0.888 (exact), CP_SD
    // 0.967 * e^0.1. Error = (ln2 + ln2 + 0.1) / 6.
    const std::map<std::string, double> lifetime = {
        { "BH", 1.0 }, { "BH_CP", 4.8 }, { "LHybrid", 9.85 },
        { "TAP", 78.0 }, { "CP_SD", 16.8 },
    };
    const std::map<std::string, double> ipc = {
        { "LHybrid", 0.888 }, { "CP_SD", 0.967 * std::exp(0.1) },
    };
    EXPECT_NEAR(paperErr(lifetime, ipc), (2 * std::log(2.0) + 0.1) / 6.0,
                1e-12);
}

TEST(PaperErr, ZeroOnThePaperAndRefusesMissingValues)
{
    std::map<std::string, double> lifetime = {
        { "BH_CP", 4.8 }, { "LHybrid", 19.7 }, { "TAP", 39.0 },
        { "CP_SD", 16.8 },
    };
    const std::map<std::string, double> ipc = { { "LHybrid", 0.888 },
                                                { "CP_SD", 0.967 } };
    EXPECT_NEAR(paperErr(lifetime, ipc), 0.0, 1e-15);
    lifetime.erase("TAP");
    EXPECT_THROW(paperErr(lifetime, ipc), std::invalid_argument);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime)
{
    // The generator stalled: request 1 was due at 1.0 but sent at 1.5.
    // Its latency includes the stall; its lag shows the lateness.
    const std::vector<OpenLoopTiming> timings = {
        { 0.0, 0.0, 0.004 },
        { 1.0, 1.5, 1.504 },
        { 2.0, 2.0, 0.0 }, // never answered
    };
    const OpenLoopStats stats = openLoopStats(timings);
    ASSERT_EQ(stats.latencyMs.size(), 2u);
    EXPECT_NEAR(stats.latencyMs[0], 4.0, 1e-9);
    EXPECT_NEAR(stats.latencyMs[1], 504.0, 1e-9);
    ASSERT_EQ(stats.genLagMs.size(), 3u);
    EXPECT_NEAR(stats.genLagMs[1], 500.0, 1e-9);
    EXPECT_EQ(stats.unanswered, 1u);
}

TEST(ResultLine, CarriesExactlyTheCatalog)
{
    Values values;
    for (const MetricSpec &spec : endToEndMetrics())
        values[spec.name] = 0.125;
    RunOutcome outcome;
    outcome.attempted = 3;
    const std::string line = resultLine(outcome, endToEndMetrics(), values);
    EXPECT_NE(line.find("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"),
              std::string::npos);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3", 0), 0u);
    values["extra"] = 1.0;
    EXPECT_THROW(resultLine(outcome, endToEndMetrics(), values),
                 std::logic_error);
}
