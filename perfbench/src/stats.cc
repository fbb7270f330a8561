#include "stats.hh"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench
{

std::optional<Percentile>
percentile(std::vector<double> samples, double p)
{
    if (!(p > 0.0 && p < 100.0))
        throw std::invalid_argument("percentile outside (0, 100)");
    const std::size_t n = samples.size();
    if (n == 0)
        return std::nullopt;
    // Nearest rank: the smallest sample with at least p% of the
    // samples at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (n - (index + 1) < minTailSamples)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    return Percentile{ samples[index], n };
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
maxOf(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

Percentile
tailLatency(const std::vector<double> &samples)
{
    if (const auto p99 = percentile(samples, 99.0))
        return *p99;
    return Percentile{ maxOf(samples), samples.size() };
}

const std::vector<PaperRef> &
fig10aReferences()
{
    using Kind = PaperRef::Kind;
    static const std::vector<PaperRef> refs = {
        { "BH_CP", Kind::LifetimeOverBh, 4.8 },
        { "LHybrid", Kind::LifetimeOverBh, 19.7 },
        { "TAP", Kind::LifetimeOverBh, 39.0 },
        { "CP_SD", Kind::LifetimeOverBh, 16.8 },
        { "LHybrid", Kind::NormIpc, 0.888 },
        { "CP_SD", Kind::NormIpc, 0.967 },
    };
    return refs;
}

double
paperErr(const std::map<std::string, double> &lifetime_x,
         const std::map<std::string, double> &norm_ipc)
{
    double sum = 0.0;
    for (const PaperRef &ref : fig10aReferences()) {
        const auto &table = ref.kind == PaperRef::Kind::LifetimeOverBh
                                ? lifetime_x
                                : norm_ipc;
        const auto it = table.find(ref.policy);
        if (it == table.end() || !(it->second > 0.0))
            throw std::invalid_argument("no positive measurement for " +
                                        ref.policy);
        sum += std::fabs(std::log(it->second / ref.value));
    }
    return sum / static_cast<double>(fig10aReferences().size());
}

OpenLoopStats
openLoopStats(const std::vector<OpenLoopTiming> &timings)
{
    OpenLoopStats stats;
    stats.latencyMs.reserve(timings.size());
    stats.genLagMs.reserve(timings.size());
    for (const OpenLoopTiming &t : timings) {
        stats.genLagMs.push_back((t.sent - t.due) * 1e3);
        if (t.done <= 0.0) {
            ++stats.unanswered;
            continue;
        }
        stats.latencyMs.push_back((t.done - t.due) * 1e3);
    }
    return stats;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
exactDouble(double value)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

} // namespace perfbench
