/**
 * @file
 * hllc_perfbench: end-to-end benchmark of the hllc simulator.
 *
 *   hllc_perfbench --workload campaign|scenarios|serve --seed N
 *                  --seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]
 *
 * --trace 0 runs the workload untraced and reports the end-to-end
 * metrics. --trace 1 is the separate traced run: one traced unit of
 * every workload plus probe calls give the per-layer metrics, and the
 * measured cost of one span times the spans recorded gives the tracing
 * overhead. The last line of standard output is the JSON result; the
 * lines before it are for people.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "report.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

using Runner = std::function<Measured(const Options &, Mode, Tracer &)>;

const std::vector<std::pair<std::string, Runner>> &
workloads()
{
    static const std::vector<std::pair<std::string, Runner>> table = {
        { "campaign", runCampaign },
        { "scenarios", runScenarios },
        { "serve", runServe },
    };
    return table;
}

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "hllc_perfbench: %s\nusage: hllc_perfbench --workload "
                 "campaign|scenarios|serve --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--spans-out FILE]\n",
                 message);
    std::exit(2);
}

double
parseNumber(const char *text, const char *flag)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value) || value < 0)
        usage((std::string("bad value for ") + flag).c_str());
    return value;
}

void
printHost()
{
    std::printf("host: nproc %u | compiler %s | build %s | simd %s\n",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE,
#ifdef HLLC_ENABLE_SIMD
                "sse2"
#else
                "off"
#endif
    );
}

Values
endToEnd(const Measured &m)
{
    std::vector<double> rates;
    for (std::size_t i = 0; i < m.unitWallS.size(); ++i)
        rates.push_back(m.unitEvents[i] / m.unitWallS[i]);
    const std::vector<std::vector<double>> windows =
        m.latencyWindowsMs.empty()
            ? std::vector<std::vector<double>>{ m.opLatencyMs }
            : m.latencyWindowsMs;
    std::printf("setup:");
    for (double s : m.setupS)
        std::printf(" %.4f", s);
    std::printf(" s\nunits:");
    for (double s : m.unitWallS)
        std::printf(" %.4f", s);
    std::printf(" s\n");
    std::vector<double> p50s;
    std::vector<double> tails;
    for (const std::vector<double> &window : windows) {
        const auto p50 = percentile(window, 50.0);
        const Percentile tail = tailLatency(window);
        p50s.push_back(p50 ? p50->value : median(window));
        tails.push_back(tail.value);
        std::printf("latency window: p50 %.4f ms, tail %.4f ms is the %s "
                    "of %zu operations\n",
                    p50s.back(), tail.value,
                    percentile(window, 99.0) ? "p99" : "maximum",
                    tail.samples);
    }
    return {
        { "setup_s", median(m.setupS) },
        { "wall_s", median(m.unitWallS) },
        { "events_per_s", median(rates) },
        { "cpu_s", median(m.unitCpuS) },
        { "peak_rss_mb", m.peakRssMiB },
        { "ok_ratio", 1.0 - static_cast<double>(m.failed) /
                                static_cast<double>(m.attempted) },
        { "paper_err", m.paperErr },
        { "lat_p50_ms", median(p50s) },
        { "lat_p99_ms", median(tails) },
        { "max_rate_rps", m.maxRateRps },
    };
}

void
reportFailures(const std::string &workload, const Measured &m)
{
    for (const std::string &failure : m.failures)
        std::printf("FAILED %s: %s\n", workload.c_str(), failure.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    hllc::setLogLevel(hllc::LogLevel::Warn);
    Options options;
    std::string workload;
    std::string spans_out;
    int trace = -1;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            options.seed = static_cast<std::uint64_t>(
                parseNumber(value, "--seed"));
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds = parseNumber(value, "--seconds");
            have_seconds = true;
        } else if (flag == "--trace") {
            trace = std::strcmp(value, "1") == 0   ? 1
                    : std::strcmp(value, "0") == 0 ? 0
                                                   : -1;
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--spans-out") {
            spans_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    const Runner *runner = nullptr;
    for (const auto &[name, fn] : workloads()) {
        if (name == workload)
            runner = &fn;
    }
    if (runner == nullptr || !have_seed || !have_seconds || trace < 0 ||
        options.workDir.empty() || options.seconds <= 0)
        usage("missing or invalid arguments");

    try {
        printHost();
        RunOutcome outcome;
        Values values;
        if (trace == 0) {
            Tracer off(false);
            const Measured m = (*runner)(options, Mode::Full, off);
            reportFailures(workload, m);
            values = endToEnd(m);
            outcome.attempted = m.attempted;
            outcome.failed = m.failed;
        } else {
            Tracer tracer(true);
            for (const auto &[name, fn] : workloads()) {
                const Measured m = fn(options, Mode::Traced, tracer);
                reportFailures(name, m);
                outcome.attempted += m.attempted;
                outcome.failed += m.failed;
                values.insert(m.layer.begin(), m.layer.end());
            }
            const auto self = tracer.selfSecondsByLayer();
            for (const std::string &layer : tracedLayers()) {
                const auto it = self.find(layer);
                values["self_s." + layer] =
                    it == self.end() ? 0.0 : it->second;
            }
            // A traced unit minus an untraced one would be host noise:
            // units vary by tenths of a second, a span costs well under a
            // microsecond.
            const double span_s = Tracer::spanCostSeconds();
            std::printf("tracing: %zu spans at %.3f us each\n",
                        tracer.size(), span_s * 1e6);
            values["trace.overhead_s"] =
                span_s * static_cast<double>(tracer.size());
            values["trace.spans"] = static_cast<double>(tracer.size());
            if (!spans_out.empty())
                tracer.write(spans_out);
        }
        outcome.correct = outcome.failed == 0;
        const auto &specs = trace == 0 ? endToEndMetrics() : perLayerMetrics();
        for (const auto &[name, value] : values) {
            if (!std::isfinite(value))
                throw std::runtime_error("metric " + name + " is not finite");
        }
        const std::string line = resultLine(outcome, specs, values);
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "hllc_perfbench: %s\n", e.what());
        return 1;
    }
}
