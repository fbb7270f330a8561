#include "report.hh"

#include <stdexcept>

#include "stats.hh"

namespace perfbench
{

const std::vector<std::string> &
fig10aPolicies()
{
    static const std::vector<std::string> policies = {
        "BH", "BH_CP", "LHybrid", "TAP", "CP_SD", "CP_SD_Th4", "CP_SD_Th8",
    };
    return policies;
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        { "setup_s", "s" },
        { "wall_s", "s" },
        { "events_per_s", "ev/s" },
        { "cpu_s", "s" },
        { "peak_rss_mb", "MiB" },
        { "ok_ratio", "ratio" },
        { "paper_err", "ratio" },
        { "lat_p50_ms", "ms" },
        { "lat_p99_ms", "ms" },
        { "max_rate_rps", "req/s" },
    };
    return specs;
}

const std::vector<std::string> &
tracedLayers()
{
    static const std::vector<std::string> layers = {
        "bench", "hierarchy", "sim",   "forecast", "replay",
        "fault", "compression", "ingest", "check",  "serve",
    };
    return layers;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            { "hierarchy.capture_s", "s" },
            { "hierarchy.llc_events", "count" },
            { "replay.calls", "count" },
            { "replay.events", "count" },
            { "replay.s", "s" },
        };
        for (const std::string &p : fig10aPolicies())
            s.push_back({ "replay.ns_per_event." + p, "ns" });
        s.push_back({ "replay.trace_save_ms", "ms" });
        s.push_back({ "replay.trace_load_ms", "ms" });
        for (const std::string &p : fig10aPolicies())
            s.push_back({ "hybrid.hit_rate." + p, "ratio" });
        for (const std::string &p : fig10aPolicies())
            s.push_back({ "hybrid.nvm_bytes_written." + p, "bytes" });
        s.push_back({ "compression.blocks", "count" });
        s.push_back({ "compression.ns_per_block", "ns" });
        s.push_back({ "fault.endurance_ms", "ms" });
        s.push_back({ "fault.degrade_ms", "ms" });
        for (const std::string &p : fig10aPolicies())
            s.push_back({ "forecast.run_s." + p, "s" });
        s.push_back({ "forecast.simulate_phases", "count" });
        s.push_back({ "forecast.predict_phases", "count" });
        s.push_back({ "forecast.replays", "count" });
        s.push_back({ "forecast.self_s", "s" });
        s.push_back({ "ingest.records", "count" });
        s.push_back({ "ingest.convert_ms", "ms" });
        s.push_back({ "ingest.ns_per_record", "ns" });
        s.push_back({ "ingest.scenario_ms", "ms" });
        s.push_back({ "serve.eval_ms", "ms" });
        s.push_back({ "serve.rig_ms", "ms" });
        s.push_back({ "serve.replay_ms", "ms" });
        s.push_back({ "serve.parse_us", "us" });
        s.push_back({ "serve.encode_us", "us" });
        s.push_back({ "serve.wait_ms", "ms" });
        s.push_back({ "serve.gen_lag_ms", "ms" });
        s.push_back({ "serve.backlog_max", "count" });
        s.push_back({ "serve.frames_accepted", "count" });
        s.push_back({ "serve.overloaded", "count" });
        s.push_back({ "serve.errors", "count" });
        for (const std::string &layer : tracedLayers())
            s.push_back({ "self_s." + layer, "s" });
        s.push_back({ "trace.overhead_s", "s" });
        s.push_back({ "trace.spans", "count" });
        return s;
    }();
    return specs;
}

std::string
resultLine(const RunOutcome &outcome, const std::vector<MetricSpec> &specs,
           const Values &values)
{
    if (values.size() != specs.size())
        throw std::logic_error("result carries " +
                               std::to_string(values.size()) +
                               " metrics, the catalog names " +
                               std::to_string(specs.size()));
    std::string line = "{\"correct\": ";
    line += outcome.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(outcome.attempted);
    line += ", \"failed\": " + std::to_string(outcome.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &spec : specs) {
        const auto it = values.find(spec.name);
        if (it == values.end())
            throw std::logic_error("metric " + spec.name + " not measured");
        line += first ? "" : ", ";
        first = false;
        line += "\"" + spec.name + "\": {\"value\": " +
                exactDouble(it->second) + ", \"unit\": \"" + spec.unit +
                "\"}";
    }
    line += "}}";
    return line;
}

} // namespace perfbench
