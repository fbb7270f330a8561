/**
 * @file
 * scenarios: the replay layer under miss- and insert-heavy input. Set-up
 * synthesizes a ChampSim fixture and generates four adversarial scenario
 * traces afresh before every measured unit, so set-up is sampled across
 * the whole run. A unit converts the fixture in memory, round-trips
 * every trace through .hlt, then replays each scenario under every
 * Fig. 10a policy at full and at degraded NVM capacity with
 * Experiment::runPhase. No forecast loop runs.
 */
#include <malloc.h>

#include <map>
#include <memory>

#include "check/oracle.hh"
#include "compression/bdi.hh"
#include "fault/fault_map.hh"
#include "hybrid/insertion_policy.hh"
#include "ingest/byte_source.hh"
#include "ingest/champsim.hh"
#include "ingest/payload_synth.hh"
#include "ingest/scenarios.hh"
#include "sim/experiment.hh"
#include "stats.hh"
#include "workload/block_synth.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace hllc;

namespace
{

constexpr std::uint64_t fixtureRecords = 100'000;
constexpr std::uint64_t scenarioEvents = 150'000;
constexpr double degradedCapacity = 0.75;

const std::vector<std::string> &
scenarioNames()
{
    static const std::vector<std::string> names = {
        "thrash", "entropy-hostile", "phase-shift", "multi-tenant",
    };
    return names;
}

sim::SystemConfig
scenarioConfig(std::uint64_t seed)
{
    sim::SystemConfig config = sim::SystemConfig::tableIV(1.0);
    config.seed = seed;
    config.jobs = 1;
    return config;
}

struct Inputs
{
    std::vector<std::uint8_t> fixture;
    std::unique_ptr<sim::Experiment> experiment; //!< owns the scenarios
    double scenarioSeconds = 0.0;
};

Inputs
buildInputs(std::uint64_t seed, Tracer &tracer)
{
    Inputs in;
    {
        ScopedSpan s(tracer, "ingest.synthesizeFixture");
        in.fixture = ingest::synthesizeChampSimFixture(fixtureRecords, seed);
    }
    std::vector<replay::LlcTrace> traces;
    const double t0 = nowSeconds();
    for (const std::string &name : scenarioNames()) {
        ScopedSpan s(tracer, "ingest.generateScenario");
        ingest::ScenarioOptions options;
        options.events = scenarioEvents;
        options.seed = seed;
        traces.push_back(ingest::generateScenario(name, options));
    }
    in.scenarioSeconds = nowSeconds() - t0;
    in.experiment = std::make_unique<sim::Experiment>(scenarioConfig(seed),
                                                      std::move(traces));
    return in;
}

bool
sameEvents(const replay::LlcTrace &a, const replay::LlcTrace &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const hybrid::LlcEvent &x = a.events()[i];
        const hybrid::LlcEvent &y = b.events()[i];
        if (x.blockNum != y.blockNum || x.type != y.type ||
            x.ecbBytes != y.ecbBytes || x.core != y.core)
            return false;
    }
    return true;
}

/** One evaluation's simulated outcome, checked after the timed phase. */
struct Evaluation
{
    std::size_t scenario = 0;
    std::string policy;
    double capacity = 1.0;
    forecast::PhaseAggregate aggregate;
};

struct UnitTimes
{
    double convertS = 0.0;
    double saveS = 0.0;
    double loadS = 0.0;
};

/** One measured unit; appends to @p m and @p evaluations. */
UnitTimes
runUnit(const Options &options, const Inputs &in, Tracer &tracer,
        Measured &m, std::vector<Evaluation> &evaluations)
{
    const sim::Experiment &experiment = *in.experiment;
    UnitTimes times;
    double events = 0.0;
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    ScopedSpan unit_span(tracer, "bench.scenarios.unit");

    // 1. ChampSim conversion, in memory.
    ingest::ConvertStats stats;
    replay::LlcTrace converted;
    {
        ingest::MemorySource source(in.fixture);
        ingest::ConvertOptions convert;
        convert.seed = options.seed;
        const double c0 = nowSeconds();
        {
            ScopedSpan s(tracer, "ingest.convertChampSim");
            converted = ingest::convertChampSim(source, convert, &stats);
        }
        times.convertS = nowSeconds() - c0;
    }
    ++m.attempted;
    if (stats.records != fixtureRecords ||
        stats.records != stats.loads + stats.rfos + stats.prefetches +
                             stats.writebacks ||
        stats.events != converted.size() ||
        stats.events + stats.dropped != stats.records)
        m.fail("ConvertStats do not match the fixture's " +
               std::to_string(fixtureRecords) + " records");
    events += static_cast<double>(stats.records);

    // 2. .hlt round trips of the converted and the scenario traces.
    std::vector<const replay::LlcTrace *> round_trip = { &converted };
    for (const replay::LlcTrace &trace : experiment.traces())
        round_trip.push_back(&trace);
    for (std::size_t i = 0; i < round_trip.size(); ++i) {
        const std::string path =
            options.workDir + "/roundtrip-" + std::to_string(i) + ".hlt";
        const double s0 = nowSeconds();
        {
            ScopedSpan s(tracer, "replay.LlcTrace.save");
            round_trip[i]->save(path);
        }
        const double s1 = nowSeconds();
        replay::LlcTrace loaded;
        {
            ScopedSpan s(tracer, "replay.LlcTrace.load");
            loaded = replay::LlcTrace::load(path);
        }
        times.saveS += s1 - s0;
        times.loadS += nowSeconds() - s1;
        ++m.attempted;
        if (!sameEvents(*round_trip[i], loaded))
            m.fail("trace " + std::to_string(i) +
                   " changed in its .hlt round trip");
    }

    // 3. Single-phase replays: scenario x policy x capacity.
    for (std::size_t sc = 0; sc < experiment.traces().size(); ++sc) {
        const replay::LlcTrace &trace = experiment.traces()[sc];
        for (const sim::StudyEntry &entry :
             fig10aEntries(experiment.config())) {
            for (const double capacity : { 1.0, degradedCapacity }) {
                const double e0 = nowSeconds();
                sim::PhaseSummary summary;
                {
                    ScopedSpan s(tracer, "sim.runPhase");
                    summary = experiment.runPhase(entry.llc, entry.label,
                                                  capacity, { &trace });
                }
                m.opLatencyMs.push_back((nowSeconds() - e0) * 1e3);
                evaluations.push_back(
                    { sc, entry.label, capacity, summary.aggregate });
                events += static_cast<double>(trace.size());
                ++m.attempted;
            }
        }
    }
    m.unitWallS.push_back(nowSeconds() - t0);
    m.unitCpuS.push_back(processCpuSeconds() - cpu0);
    m.unitEvents.push_back(events);
    return times;
}

/** BDI over the entropy-hostile payloads: every block incompressible. */
void
probeCompression(const Options &options, const replay::LlcTrace &trace,
                 Tracer &tracer, Measured &m)
{
    const ingest::PayloadSynth synth(
        workload::ContentMix::fromClassFractions(0.0, 0.0), options.seed);
    std::map<Addr, std::uint8_t> recorded;
    for (const hybrid::LlcEvent &event : trace.events())
        recorded.emplace(event.blockNum, event.ecbBytes);
    std::vector<BlockData> blocks;
    blocks.reserve(recorded.size());
    for (const auto &[block, ecb] : recorded)
        blocks.push_back(
            workload::synthesizeBlock(synth.targetCeOf(block), block + 1));

    std::vector<unsigned> ecbs(blocks.size());
    const double t0 = nowSeconds();
    {
        ScopedSpan s(tracer, "compression.BdiCompressor.compress");
        for (std::size_t i = 0; i < blocks.size(); ++i)
            ecbs[i] = compression::BdiCompressor::compress(blocks[i]).ecbBytes;
    }
    const double seconds = nowSeconds() - t0;
    std::size_t i = 0;
    ++m.attempted;
    for (const auto &[block, ecb] : recorded) {
        if (ecbs[i++] != ecb) {
            m.fail("BDI size of an entropy-hostile block differs from "
                   "the trace's ECB size");
            break;
        }
    }
    m.layer["compression.blocks"] = static_cast<double>(blocks.size());
    m.layer["compression.ns_per_block"] =
        seconds * 1e9 / static_cast<double>(blocks.size());
}

/** Endurance sampling and uniform degradation, as runPhase does them. */
void
probeFault(const sim::Experiment &experiment, Tracer &tracer, Measured &m)
{
    const hybrid::HybridLlcConfig llc =
        fig10aEntries(experiment.config()).at(4).llc; // CP_SD
    const double t0 = nowSeconds();
    std::unique_ptr<fault::EnduranceModel> endurance;
    {
        ScopedSpan s(tracer, "fault.makeEndurance");
        endurance = std::make_unique<fault::EnduranceModel>(
            experiment.makeEndurance(llc));
    }
    const double t1 = nowSeconds();
    const auto policy =
        hybrid::InsertionPolicy::create(llc.policy, llc.params);
    fault::FaultMap map(*endurance, policy->granularity());
    const double t2 = nowSeconds();
    {
        ScopedSpan s(tracer, "fault.degradeUniform");
        sim::degradeUniform(map, degradedCapacity,
                            experiment.config().seed ^ 0xdeadULL);
    }
    m.layer["fault.endurance_ms"] = (t1 - t0) * 1e3;
    m.layer["fault.degrade_ms"] = (nowSeconds() - t2) * 1e3;
}

} // anonymous namespace

Measured
runScenarios(const Options &options, Mode mode, Tracer &tracer)
{
    Measured m;
    Inputs in;
    std::vector<Evaluation> evaluations;
    std::vector<UnitTimes> times;
    const double budget_end = nowSeconds() + options.seconds;
    do {
        // Hand the last unit's inputs back to the system, so peak RSS
        // shows one set of inputs, not how the heap fragmented.
        in = Inputs{};
        malloc_trim(0);
        const double t0 = nowSeconds();
        in = buildInputs(options.seed, tracer);
        m.setupS.push_back(nowSeconds() - t0);
        times.push_back(runUnit(options, in, tracer, m, evaluations));
    } while (mode == Mode::Full &&
             nowSeconds() + median(m.setupS) + median(m.unitWallS) <=
                 budget_end);
    m.peakRssMiB = peakRssMiB();

    double measured_s = 0.0;
    for (double s : m.unitWallS)
        measured_s += s;
    m.maxRateRps = static_cast<double>(m.opLatencyMs.size()) / measured_s;

    // Gates, after the timed phase: no replay beats Belady/OPT on its
    // trace, and every unit simulated the same thing.
    const sim::Experiment &experiment = *in.experiment;
    const sim::SystemConfig &config = experiment.config();
    std::vector<std::uint64_t> opt;
    for (const replay::LlcTrace &trace : experiment.traces()) {
        ScopedSpan s(tracer, "check.beladyHits");
        opt.push_back(check::beladyHits(trace, config.llcSets,
                                        config.sramWays + config.nvmWays)
                          .total);
    }
    const std::size_t per_unit = evaluations.size() / times.size();
    for (std::size_t i = 0; i < evaluations.size(); ++i) {
        const Evaluation &e = evaluations[i];
        if (e.aggregate.demandHits > opt[e.scenario])
            m.fail(scenarioNames()[e.scenario] + " under " + e.policy +
                   " scores more demand hits than Belady/OPT");
        const Evaluation &first = evaluations[i % per_unit];
        if (e.aggregate.demandHits != first.aggregate.demandHits ||
            e.aggregate.nvmBytesWritten != first.aggregate.nvmBytesWritten)
            m.fail(scenarioNames()[e.scenario] + " under " + e.policy +
                   " differs between units");
    }

    if (mode == Mode::Full) {
        const Fidelity fidelity = campaignFidelity(options.seed);
        m.paperErr = fidelity.paperErr;
        ++m.attempted;
        if (!matchesEarlierDigest(options.workDir, options.seed,
                                  fidelity.digest))
            m.fail("fidelity campaign differs from an earlier run");
    }
    if (mode != Mode::Traced)
        return m;

    const UnitTimes &t = times.front();
    m.layer["replay.trace_save_ms"] = t.saveS * 1e3;
    m.layer["replay.trace_load_ms"] = t.loadS * 1e3;
    m.layer["ingest.records"] = static_cast<double>(fixtureRecords);
    m.layer["ingest.convert_ms"] = t.convertS * 1e3;
    m.layer["ingest.ns_per_record"] =
        t.convertS * 1e9 / static_cast<double>(fixtureRecords);
    m.layer["ingest.scenario_ms"] = in.scenarioSeconds * 1e3;
    probeCompression(options, experiment.traces()[1], tracer, m);
    probeFault(experiment, tracer, m);
    return m;
}

} // namespace perfbench
