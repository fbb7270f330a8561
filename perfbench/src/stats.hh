/**
 * @file
 * The benchmark's own arithmetic: percentiles that refuse to report a
 * tail they cannot see, the paper-fidelity error, open-loop lateness,
 * metric-name validation, and process clocks. Everything here is
 * covered by tests/selftest.cc.
 */
#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Samples a percentile needs beyond it before it may be reported. */
inline constexpr std::size_t minTailSamples = 10;

/** A reported percentile and the number of samples it was taken from. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
};

/**
 * Nearest-rank percentile @p p (0 < p < 100) of @p samples. Returns
 * nothing when fewer than minTailSamples samples lie beyond the rank
 * (p99 needs at least 1000 samples, the median at least 20).
 */
std::optional<Percentile> percentile(std::vector<double> samples, double p);

/** Plain median (mean of the middle pair); 0 for an empty vector. */
double median(std::vector<double> values);

/** Largest value; 0 for an empty vector. */
double maxOf(const std::vector<double> &values);

/**
 * Upper tail of a latency sample: p99 when it has minTailSamples
 * samples beyond it, otherwise the maximum (the slowest operation).
 */
Percentile tailLatency(const std::vector<double> &samples);

/** One Fig. 10a reference value of the paper. */
struct PaperRef
{
    std::string policy;
    enum class Kind
    {
        LifetimeOverBh, //!< lifetime to 50% NVM capacity, x BH
        NormIpc,        //!< initial IPC over the 16-way SRAM bound
    } kind;
    double value;
};

/**
 * The Fig. 10a values EXPERIMENTS.md tabulates: lifetime x BH of BH_CP
 * 4.8, LHybrid 19.7, TAP 39 and CP_SD 16.8; normalised IPC of LHybrid
 * 0.888 and CP_SD 0.967.
 */
const std::vector<PaperRef> &fig10aReferences();

/**
 * Mean |ln(measured / paper)| over fig10aReferences(). @p lifetime_x
 * maps policy label to lifetime over BH, @p norm_ipc to normalised
 * initial IPC. Throws std::invalid_argument on a missing or
 * non-positive value.
 */
double paperErr(const std::map<std::string, double> &lifetime_x,
                const std::map<std::string, double> &norm_ipc);

/** Timestamps (seconds on one clock) of one open-loop request. */
struct OpenLoopTiming
{
    double due = 0.0;   //!< when the schedule said to send it
    double sent = 0.0;  //!< when the generator actually sent it
    double done = 0.0;  //!< when its reply arrived (0 = never)
};

/** Latency and generator lateness derived from open-loop timings. */
struct OpenLoopStats
{
    std::vector<double> latencyMs; //!< done - due, answered requests only
    std::vector<double> genLagMs;  //!< sent - due, every request
    std::size_t unanswered = 0;
};

/**
 * Account each request from when it was due, not from when it was sent:
 * a generator stall delays later sends, and that wait belongs to the
 * requests that suffered it.
 */
OpenLoopStats openLoopStats(const std::vector<OpenLoopTiming> &timings);

/** Metric names: [A-Za-z0-9_.-]+, leading letter or digit, <= 64. */
bool validMetricName(std::string_view name);

/** Monotonic wall clock in seconds. */
double nowSeconds();

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMiB();

/** 64-bit FNV-1a of @p text (result digests). */
std::uint64_t fnv1a(std::string_view text);

/** Exact text of a double (shortest round-trip form). */
std::string exactDouble(double value);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
