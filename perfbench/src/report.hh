/**
 * @file
 * Metric catalog and the result line. The catalog is the single list
 * of metric names and units; BENCHMARK.json mirrors it and run.py
 * checks that every printed result carries exactly these names.
 */
#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** Labels of the seven Fig. 10a policies, in the paper's order. */
const std::vector<std::string> &fig10aPolicies();

/** Metrics of an untraced run (every workload reports all of them). */
const std::vector<MetricSpec> &endToEndMetrics();

/** Metrics of a traced run (every workload reports all of them). */
const std::vector<MetricSpec> &perLayerMetrics();

/** Layers whose self time the traced run reports as self_s.<layer>. */
const std::vector<std::string> &tracedLayers();

using Values = std::map<std::string, double>;

struct RunOutcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * The final JSON line: {"correct", "attempted", "failed", "metrics"}
 * with one {"value", "unit"} per spec. Throws std::logic_error when
 * @p values lacks a spec'd metric or holds one the specs do not name.
 */
std::string resultLine(const RunOutcome &outcome,
                       const std::vector<MetricSpec> &specs,
                       const Values &values);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
