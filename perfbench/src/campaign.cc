/**
 * @file
 * campaign: a reduced bench_fig10a_main. Set-up captures the first two
 * Table V mixes; each measured unit replays the 16-way and 4-way SRAM
 * bounds and forecasts the seven Fig. 10a policies to 50% NVM capacity,
 * one after the other (one grid worker, no stats export, no
 * checkpoint). Every unit captures its mixes afresh, so set-up is
 * sampled across the whole run, and must produce byte-identical results.
 */
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "fault/fault_map.hh"
#include "hybrid/insertion_policy.hh"
#include "replay/replayer.hh"
#include "sim/experiment.hh"
#include "stats.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace hllc;

namespace
{

constexpr std::size_t campaignMixes = 2;
constexpr std::uint64_t campaignRefsPerCore = 100'000;
constexpr std::size_t minUnits = 3;

sim::SystemConfig
campaignConfig(std::uint64_t seed)
{
    sim::SystemConfig config = sim::SystemConfig::tableIV(1.0);
    config.refsPerCore = campaignRefsPerCore;
    config.seed = seed;
    config.jobs = 1;
    return config;
}

} // anonymous namespace

std::vector<sim::StudyEntry>
fig10aEntries(const sim::SystemConfig &config)
{
    using hybrid::PolicyKind;
    hybrid::PolicyParams th4;
    th4.thPercent = 4.0;
    hybrid::PolicyParams th8;
    th8.thPercent = 8.0;
    const std::vector<hybrid::HybridLlcConfig> llcs = {
        config.llcConfig(PolicyKind::Bh),
        config.llcConfig(PolicyKind::BhCp),
        config.llcConfig(PolicyKind::LHybrid),
        config.llcConfig(PolicyKind::Tap),
        config.llcConfig(PolicyKind::CpSd),
        config.llcConfig(PolicyKind::CpSdTh, th4),
        config.llcConfig(PolicyKind::CpSdTh, th8),
    };
    std::vector<sim::StudyEntry> entries;
    for (std::size_t i = 0; i < llcs.size(); ++i)
        entries.push_back({ fig10aPolicies()[i], llcs[i] });
    return entries;
}

namespace
{

std::uint64_t
counterOf(const std::vector<std::pair<std::string, std::uint64_t>> &counters,
          const std::string &name)
{
    for (const auto &[key, value] : counters) {
        if (key == name)
            return value;
    }
    return 0;
}

/** Everything one campaign unit simulated, plus its host timings. */
struct Unit
{
    std::vector<sim::ForecastSummary> cells;
    std::vector<double> cellSeconds;
    sim::PhaseSummary upper;
    sim::PhaseSummary lower;
    double wallS = 0.0;
    double cpuS = 0.0;
    double events = 0.0;
};

Unit
runUnit(const sim::Experiment &experiment,
        const std::vector<sim::StudyEntry> &entries, Tracer &tracer)
{
    const sim::SystemConfig &config = experiment.config();
    std::uint64_t trace_events = 0;
    for (const replay::LlcTrace &trace : experiment.traces())
        trace_events += trace.size();

    forecast::ForecastConfig fc;
    fc.collectSeries = false; // what the bench does without --stats-out

    Unit unit;
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    {
        ScopedSpan span(tracer, "bench.campaign.unit");
        {
            ScopedSpan s(tracer, "sim.runPhase.bounds");
            unit.upper = experiment.runPhase(
                config.llcConfigSramBound(config.sramWays + config.nvmWays),
                "SRAM16");
            unit.lower = experiment.runPhase(
                config.llcConfigSramBound(config.sramWays), "SRAM4");
        }
        for (const sim::StudyEntry &entry : entries) {
            ScopedSpan s(tracer, "forecast.run." + entry.label);
            const double c0 = nowSeconds();
            unit.cells.push_back(
                experiment.runForecast(entry.llc, entry.label, fc));
            unit.cellSeconds.push_back(nowSeconds() - c0);
        }
    }
    unit.wallS = nowSeconds() - t0;
    unit.cpuS = processCpuSeconds() - cpu0;

    double replays = 2.0; // the two bound phases
    for (const sim::ForecastSummary &cell : unit.cells)
        replays += static_cast<double>(
            counterOf(cell.counters, "simulate_phases"));
    unit.events = replays * static_cast<double>(trace_events);
    return unit;
}

/** Canonical text of every simulated result of a unit. */
std::string
digestOf(const Unit &unit)
{
    std::ostringstream text;
    for (const sim::PhaseSummary *phase : { &unit.upper, &unit.lower }) {
        text << phase->label << ' ' << exactDouble(phase->aggregate.meanIpc)
             << ' ' << phase->aggregate.demandHits << ' '
             << phase->aggregate.nvmBytesWritten;
        for (const auto &[name, value] : phase->counters)
            text << ' ' << name << '=' << value;
        text << '\n';
    }
    for (const sim::ForecastSummary &cell : unit.cells) {
        text << cell.label << ' ' << exactDouble(cell.lifetimeMonths) << ' '
             << exactDouble(cell.initialIpc) << ' ' << cell.series.size();
        for (const auto &[name, value] : cell.counters)
            text << ' ' << name << '=' << value;
        text << '\n';
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(text.str())));
    return hex;
}

double
paperErrOf(const Unit &unit)
{
    const double upper = unit.upper.aggregate.meanIpc;
    const double bh = unit.cells.front().lifetimeMonths;
    std::map<std::string, double> lifetime_x;
    std::map<std::string, double> norm_ipc;
    for (const sim::ForecastSummary &cell : unit.cells) {
        lifetime_x[cell.label] = cell.lifetimeMonths / bh;
        norm_ipc[cell.label] = cell.initialIpc / upper;
    }
    return paperErr(lifetime_x, norm_ipc);
}

/**
 * Probe replays for the traced run: each policy over each trace on a
 * fresh LLC with the campaign's endurance fabric, which is what the
 * first simulation phase of every forecast replays.
 */
void
probeReplays(const sim::Experiment &experiment,
             const std::vector<sim::StudyEntry> &entries, Tracer &tracer,
             Values &layer, std::map<std::string, double> &replay_s)
{
    double calls = 0.0;
    double events = 0.0;
    double seconds = 0.0;
    for (const sim::StudyEntry &entry : entries) {
        double policy_s = 0.0;
        double policy_events = 0.0;
        std::uint64_t hits = 0;
        std::uint64_t accesses = 0;
        std::uint64_t nvm_bytes = 0;
        for (const replay::LlcTrace &trace : experiment.traces()) {
            std::unique_ptr<fault::EnduranceModel> endurance;
            {
                ScopedSpan s(tracer, "fault.makeEndurance");
                endurance = std::make_unique<fault::EnduranceModel>(
                    experiment.makeEndurance(entry.llc));
            }
            const auto policy = hybrid::InsertionPolicy::create(
                entry.llc.policy, entry.llc.params);
            fault::FaultMap map(*endurance, policy->granularity());
            hybrid::HybridLlc llc(entry.llc, &map);
            const replay::TraceReplayer replayer(0.2);
            const double t0 = nowSeconds();
            replay::ReplayResult result;
            {
                ScopedSpan s(tracer, "replay.replay");
                result = replayer.replay(trace, llc);
            }
            policy_s += nowSeconds() - t0;
            policy_events += static_cast<double>(trace.size());
            hits += result.demandHits;
            accesses += result.demandAccesses;
            nvm_bytes += result.nvmBytesWritten;
            calls += 1.0;
        }
        replay_s[entry.label] = policy_s;
        layer["replay.ns_per_event." + entry.label] =
            policy_s * 1e9 / policy_events;
        layer["hybrid.hit_rate." + entry.label] =
            accesses == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(accesses);
        layer["hybrid.nvm_bytes_written." + entry.label] =
            static_cast<double>(nvm_bytes);
        events += policy_events;
        seconds += policy_s;
    }
    layer["replay.calls"] = calls;
    layer["replay.events"] = events;
    layer["replay.s"] = seconds;
}

} // anonymous namespace

Measured
runCampaign(const Options &options, Mode mode, Tracer &tracer)
{
    Measured m;
    const sim::SystemConfig config = campaignConfig(options.seed);
    const std::vector<sim::StudyEntry> entries = fig10aEntries(config);

    // Keep the first unit's results; later units keep only a digest,
    // so memory does not grow with the number of units.
    std::unique_ptr<sim::Experiment> experiment;
    Unit first;
    std::vector<std::string> digests;
    const double budget_end = nowSeconds() + options.seconds;
    const std::size_t min_units = mode == Mode::Full ? minUnits : 1;
    while (digests.size() < min_units ||
           (mode == Mode::Full &&
            nowSeconds() + median(m.setupS) + median(m.unitWallS) <=
                budget_end)) {
        experiment.reset();
        {
            ScopedSpan s(tracer, "hierarchy.captureMixes");
            const double t0 = nowSeconds();
            experiment =
                std::make_unique<sim::Experiment>(config, campaignMixes);
            m.setupS.push_back(nowSeconds() - t0);
        }
        Unit unit = runUnit(*experiment, entries, tracer);
        m.unitWallS.push_back(unit.wallS);
        m.unitCpuS.push_back(unit.cpuS);
        m.unitEvents.push_back(unit.events);
        for (double s : unit.cellSeconds)
            m.opLatencyMs.push_back(s * 1e3);
        m.attempted += unit.cells.size();
        digests.push_back(digestOf(unit));
        if (digests.size() == 1)
            first = std::move(unit);
    }
    m.peakRssMiB = peakRssMiB();

    double measured_s = 0.0;
    for (double s : m.unitWallS)
        measured_s += s;
    m.maxRateRps = static_cast<double>(m.opLatencyMs.size()) / measured_s;

    // Gate: every unit simulated exactly the same thing, and so did any
    // earlier run of this seed (traced or not).
    const std::string &digest = digests.front();
    for (std::size_t i = 1; i < digests.size(); ++i) {
        if (digests[i] != digest)
            m.fail("campaign unit " + std::to_string(i) +
                   " results differ from unit 0");
    }
    m.attempted += 1;
    if (!matchesEarlierDigest(options.workDir, options.seed, digest))
        m.fail("campaign results differ from an earlier run of this seed");
    std::printf("campaign digest %s (seed %llu, %zu units)\n",
                digest.c_str(),
                static_cast<unsigned long long>(options.seed),
                digests.size());
    m.paperErr = paperErrOf(first);

    if (mode != Mode::Traced)
        return m;

    // Per-layer numbers. Replay cost inside ForecastEngine::run is not
    // reachable from here: estimate it from the probes and the engine's
    // own phase counts.
    const Unit &unit = first;
    std::uint64_t trace_events = 0;
    for (const replay::LlcTrace &trace : experiment->traces())
        trace_events += trace.size();
    m.layer["hierarchy.capture_s"] = m.setupS.front();
    m.layer["hierarchy.llc_events"] = static_cast<double>(trace_events);

    std::map<std::string, double> replay_s;
    probeReplays(*experiment, entries, tracer, m.layer, replay_s);

    double simulate = 0.0;
    double predict = 0.0;
    double run_s = 0.0;
    double replay_estimate = 0.0;
    for (std::size_t i = 0; i < unit.cells.size(); ++i) {
        const sim::ForecastSummary &cell = unit.cells[i];
        const auto phases = static_cast<double>(
            counterOf(cell.counters, "simulate_phases"));
        simulate += phases;
        predict += static_cast<double>(
            counterOf(cell.counters, "predict_phases"));
        m.layer["forecast.run_s." + cell.label] = unit.cellSeconds[i];
        run_s += unit.cellSeconds[i];
        replay_estimate += phases * replay_s[cell.label];
    }
    m.layer["forecast.simulate_phases"] = simulate;
    m.layer["forecast.predict_phases"] = predict;
    m.layer["forecast.replays"] =
        simulate * static_cast<double>(experiment->traces().size());
    m.layer["forecast.self_s"] = run_s - replay_estimate;
    return m;
}

Fidelity
campaignFidelity(std::uint64_t seed)
{
    const sim::SystemConfig config = campaignConfig(seed);
    const sim::Experiment experiment(config, campaignMixes);
    Tracer off(false);
    const Unit unit = runUnit(experiment, fig10aEntries(config), off);
    return Fidelity{ digestOf(unit), paperErrOf(unit) };
}

bool
matchesEarlierDigest(const std::string &work_dir, std::uint64_t seed,
                     const std::string &digest)
{
    const std::string path =
        work_dir + "/campaign-digest-" + std::to_string(seed) + ".txt";
    std::ifstream in(path);
    std::string earlier;
    if (in >> earlier)
        return earlier == digest;
    std::ofstream(path) << digest << '\n';
    return true;
}

void
Measured::fail(const std::string &message)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(message);
}

} // namespace perfbench
