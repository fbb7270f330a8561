/**
 * @file
 * serve: an in-process serve::Server (2 shards, Unix socket) driven by
 * one open-loop generator thread over two connections, with the
 * hllc_loadgen Replay/Batch/Ping mix (80/15/5) and small Replay traces
 * that set-up has already put in the server's trace cache.
 *
 * The measured phase is a few windows at the fixed offered rate (the
 * latency percentiles) and a bisection over offered rates (the highest
 * rate whose p99 meets the latency limit without a growing backlog).
 * Every reply is compared afterwards with a direct Evaluator::evaluate
 * of the same request.
 */
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "check/rig.hh"
#include "common/rng.hh"
#include "hierarchy/hierarchy.hh"
#include "replay/replayer.hh"
#include "serve/eval.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/socket.hh"
#include "sim/config.hh"
#include "stats.hh"
#include "workload/mixes.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace hllc;

namespace
{

constexpr unsigned shards = 2;
constexpr std::size_t connections = 2;
/** Fixed offered rate of the latency windows, below saturation. */
constexpr double offeredRate = 150.0;
/** The p99 a rate must meet to count towards max_rate_rps. */
constexpr double p99LimitMs = 100.0;
/** Server starts of a full run; setup_s is their median. */
constexpr std::size_t setupRepeats = 5;
constexpr std::uint64_t replayRefs = 2'000;
constexpr std::uint8_t replayMixes = 4;
constexpr std::uint64_t replaySeeds = 4;
constexpr std::size_t fixedWindows = 3;
constexpr std::size_t searchProbes = 4;
/** Samples a probe needs for its p99 to have ten beyond it. */
constexpr double probeSamples = 1'100.0;
constexpr double replyTimeoutS = 10.0;
/** Requests the traced run evaluates directly for serve.eval_ms. */
constexpr std::size_t probeEvaluations = 200;

const char *const replayPolicies[] = { "CP_SD", "BH", "CA_RWR", "TAP",
                                       "LHybrid" };

/** Replay trace seed @p which (< replaySeeds) of a benchmark seed. */
std::uint64_t
traceSeed(std::uint64_t seed, std::uint64_t which)
{
    return replaySeeds * seed + 1 + which;
}

/** A Replay request that loads trace (@p mix, seed @p which). */
serve::Request
warmRequest(std::uint64_t seed, std::uint8_t mix, std::uint64_t which)
{
    serve::Request request;
    request.type = serve::RequestType::Replay;
    request.id = 1 + (mix - 1) * replaySeeds + which;
    request.replay.mix = mix;
    request.replay.refsPerCore = replayRefs;
    request.replay.seed = traceSeed(seed, which);
    request.replay.policy = "BH";
    return request;
}

/** Request @p seq of the stream: the hllc_loadgen mix. */
serve::Request
makeRequest(std::uint64_t seed, std::uint64_t seq)
{
    Xoshiro256StarStar rng = childStream(seed, 0x5e7e, seq);
    serve::Request request;
    request.id = seq + 1;
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 80) {
        request.type = serve::RequestType::Replay;
        request.replay.mix =
            static_cast<std::uint8_t>(1 + rng.next() % replayMixes);
        request.replay.refsPerCore = replayRefs;
        request.replay.seed = traceSeed(seed, rng.next() % replaySeeds);
        request.replay.policy = replayPolicies[rng.next() % 5];
    } else if (roll < 95) {
        request.type = serve::RequestType::Batch;
        request.batch.policy = rng.next() % 2 == 0 ? "CP_SD" : "BH_CP";
        request.batch.seed = rng.next();
        const std::size_t count = 64 + rng.next() % 448;
        for (std::size_t i = 0; i < count; ++i) {
            hybrid::LlcEvent event;
            event.blockNum = rng.next() % 4096;
            const std::uint64_t t = rng.next() % 10;
            event.type = t < 6 ? hybrid::LlcEventType::GetS
                       : t < 9 ? hybrid::LlcEventType::GetX
                               : hybrid::LlcEventType::PutDirty;
            event.ecbBytes = static_cast<std::uint8_t>(2 + rng.next() % 63);
            event.core = static_cast<CoreId>(rng.next() % 4);
            request.batch.events.push_back(event);
        }
    } else {
        request.type = serve::RequestType::Ping;
    }
    return request;
}

serve::ServerConfig
serverConfig(const std::string &socket_path)
{
    serve::ServerConfig config;
    config.endpoint.unixPath = socket_path;
    config.shards = shards;
    config.limits.maxRefsPerCore = replayRefs;
    config.limits.traceCacheEntries = replayMixes * replaySeeds;
    return config;
}

/** One request's fate. */
struct Slot
{
    OpenLoopTiming timing;
    serve::Status status = serve::Status::Ok;
    serve::EvalResult result;
    bool answered = false;
};

/**
 * One open-loop window at one offered rate: requests firstSeq.. of the
 * stream. The requests themselves are held only while the window runs
 * (makeRequest regenerates them), so memory does not grow with the
 * number of windows.
 */
struct Window
{
    double rate = 0.0;
    std::uint64_t firstSeq = 0;
    std::vector<serve::Request> requests;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<Slot> slots;
    std::uint64_t events = 0; //!< LLC events replayed, warm-up included
    double wallS = 0.0;
    double cpuS = 0.0;
    std::size_t backlogMax = 0;
};

/** LLC events a request replays, warm-up included. */
std::uint64_t
eventsOf(const serve::Request &request, const Slot &slot)
{
    if (request.type == serve::RequestType::Batch)
        return request.batch.events.size();
    if (request.type == serve::RequestType::Replay)
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(slot.result.measuredEvents) /
                         0.8));
    return 0;
}

/**
 * Client side of the load: two connections, one receiver thread each,
 * and an open-loop generator thread per window.
 */
class Load
{
  public:
    explicit Load(const std::string &socket_path)
    {
        serve::Endpoint endpoint;
        endpoint.unixPath = socket_path;
        for (std::size_t c = 0; c < connections; ++c) {
            fds_.push_back(serve::connectTo(endpoint));
            serve::setRecvTimeoutMs(fds_.back().get(), 50);
        }
        for (std::size_t c = 0; c < connections; ++c)
            receivers_.emplace_back([this, c] { receive(c); });
    }

    ~Load()
    {
        stop_ = true;
        for (std::thread &t : receivers_)
            t.join();
    }

    Load(const Load &) = delete;
    Load &operator=(const Load &) = delete;

    /** Offer @p window's requests at its rate; wait for every reply. */
    void
    run(Window &window, Tracer &tracer)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            window_ = &window;
            idBase_ = window.requests.front().id;
            answered_ = 0;
            retries_.clear();
        }
        const double cpu0 = processCpuSeconds();
        std::thread generator([&] { generate(window); });
        generator.join();
        window.cpuS = processCpuSeconds() - cpu0;
        std::lock_guard<std::mutex> lock(mutex_);
        double last = window.slots.front().timing.due;
        for (std::size_t i = 0; i < window.slots.size(); ++i) {
            const Slot &slot = window.slots[i];
            last = std::max(last, slot.timing.done);
            if (slot.answered)
                tracer.recordLatency("serve.request", slot.timing.due,
                                     slot.timing.done,
                                     window.requests[i].id);
        }
        window.wallS = last - window.slots.front().timing.due;
        window_ = nullptr;
        for (std::size_t i = 0; i < window.slots.size(); ++i)
            window.events += eventsOf(window.requests[i], window.slots[i]);
        window.requests = {};
        window.frames = {};
    }

  private:
    void
    generate(Window &window)
    {
        const std::size_t n = window.requests.size();
        const double t0 = nowSeconds() + 0.01;
        for (std::size_t i = 0; i < n; ++i)
            window.slots[i].timing.due =
                t0 + static_cast<double>(i) / window.rate;
        const double deadline =
            window.slots.back().timing.due + replyTimeoutS;
        std::size_t next = 0;
        std::size_t sent = 0;
        for (;;) {
            std::vector<std::size_t> retry;
            std::size_t answered;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                retry.swap(retries_);
                answered = answered_;
            }
            for (const std::size_t i : retry)
                send(window, i);
            const double now = nowSeconds();
            if (next < n) {
                if (now >= window.slots[next].timing.due) {
                    window.slots[next].timing.sent = now;
                    send(window, next);
                    ++next;
                    ++sent;
                    window.backlogMax =
                        std::max(window.backlogMax, sent - answered);
                    continue;
                }
                sleepFor(std::min(window.slots[next].timing.due - now,
                                  0.001));
                continue;
            }
            if (answered == n || now > deadline)
                return;
            sleepFor(0.001);
        }
    }

    void
    send(const Window &window, std::size_t i)
    {
        const std::vector<std::uint8_t> &frame = window.frames[i];
        serve::sendAll(fds_[i % connections].get(), frame.data(),
                       frame.size());
    }

    static void
    sleepFor(double seconds)
    {
        if (seconds > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
    }

    void
    receive(std::size_t c)
    {
        std::vector<std::uint8_t> payload;
        while (!stop_) {
            serve::RecvStatus status;
            try {
                status = serve::recvFrame(fds_[c].get(), payload,
                                          serve::defaultMaxFrameBytes);
            } catch (const std::exception &) {
                return; // the window accounting reports the loss
            }
            if (status == serve::RecvStatus::Eof)
                return;
            if (status != serve::RecvStatus::Frame)
                continue;
            const double now = nowSeconds();
            serve::Response response;
            try {
                response = serve::parseResponse(payload.data(),
                                                payload.size());
            } catch (const std::exception &) {
                continue;
            }
            std::lock_guard<std::mutex> lock(mutex_);
            if (window_ == nullptr || response.id < idBase_ ||
                response.id - idBase_ >= window_->slots.size())
                continue;
            const std::size_t i = response.id - idBase_;
            Slot &slot = window_->slots[i];
            if (response.status == serve::Status::Overloaded) {
                retries_.push_back(i);
                continue;
            }
            if (slot.answered)
                continue;
            slot.answered = true;
            slot.timing.done = now;
            slot.status = response.status;
            slot.result = response.result;
            ++answered_;
        }
    }

    std::vector<serve::Fd> fds_;
    std::vector<std::thread> receivers_;
    std::atomic<bool> stop_{ false };
    std::mutex mutex_;
    Window *window_ = nullptr;
    std::uint64_t idBase_ = 0;
    std::size_t answered_ = 0;
    std::vector<std::size_t> retries_;
};

/** Build a window of @p duration seconds at @p rate (untimed). */
Window
makeWindow(std::uint64_t seed, std::uint64_t &next_seq, double rate,
           double duration)
{
    Window window;
    window.rate = rate;
    window.firstSeq = next_seq;
    const auto n = static_cast<std::size_t>(std::llround(rate * duration));
    for (std::size_t i = 0; i < n; ++i) {
        window.requests.push_back(makeRequest(seed, next_seq++));
        window.frames.push_back(
            serve::frame(serve::encodeRequest(window.requests.back())));
    }
    window.slots.resize(n);
    return window;
}

/** The probe's verdict: p99 within the limit, no backlog, no loss. */
bool
meetsLimit(const Window &window)
{
    std::vector<OpenLoopTiming> timings;
    for (const Slot &slot : window.slots)
        timings.push_back(slot.timing);
    const OpenLoopStats stats = openLoopStats(timings);
    if (stats.unanswered > 0)
        return false;
    const auto p99 = percentile(stats.latencyMs, 99.0);
    if (!p99 || p99->value > p99LimitMs)
        return false;
    // A growing backlog shows as late requests at the end of the window.
    const std::size_t tail = stats.latencyMs.size() / 10;
    const std::vector<double> last(stats.latencyMs.end() -
                                       static_cast<std::ptrdiff_t>(tail),
                                   stats.latencyMs.end());
    return median(last) <= p99LimitMs;
}

bool
sameResult(const serve::EvalResult &a, const serve::EvalResult &b)
{
    return a.measuredEvents == b.measuredEvents &&
           a.demandAccesses == b.demandAccesses &&
           a.demandHits == b.demandHits && a.nvmWrites == b.nvmWrites &&
           a.nvmBytesWritten == b.nvmBytesWritten &&
           a.hitRate == b.hitRate && a.policyName == b.policyName;
}

/** Gate: every reply equals a direct Evaluator::evaluate. */
void
checkReplies(std::uint64_t seed, const std::vector<Window> &windows,
             Measured &m)
{
    serve::Evaluator evaluator(sim::SystemConfig::tableIV(),
                               serverConfig("").limits);
    std::vector<std::pair<std::uint64_t, const Slot *>> work;
    for (const Window &window : windows) {
        for (std::size_t i = 0; i < window.slots.size(); ++i)
            work.emplace_back(window.firstSeq + i, &window.slots[i]);
    }
    std::map<std::vector<std::uint8_t>, serve::EvalResult> replay_cache;
    std::mutex mutex;
    std::vector<std::string> failures;
    std::atomic<std::size_t> cursor{ 0 };
    const auto worker = [&] {
        for (;;) {
            const std::size_t k = cursor++;
            if (k >= work.size())
                return;
            const serve::Request request = makeRequest(seed, work[k].first);
            const Slot &slot = *work[k].second;
            std::string problem;
            if (!slot.answered) {
                problem = "request " + std::to_string(request.id) +
                          " never answered";
            } else if (slot.status != serve::Status::Ok) {
                problem = "request " + std::to_string(request.id) +
                          " got an error reply";
            } else if (request.type != serve::RequestType::Ping) {
                serve::Request keyed = request;
                keyed.id = 0;
                const std::vector<std::uint8_t> key =
                    serve::encodeRequest(keyed);
                std::optional<serve::EvalResult> expected;
                if (request.type == serve::RequestType::Replay) {
                    std::lock_guard<std::mutex> lock(mutex);
                    const auto it = replay_cache.find(key);
                    if (it != replay_cache.end())
                        expected = it->second;
                }
                if (!expected) {
                    expected = evaluator.evaluate(request);
                    if (request.type == serve::RequestType::Replay) {
                        std::lock_guard<std::mutex> lock(mutex);
                        replay_cache.emplace(key, *expected);
                    }
                }
                if (!sameResult(*expected, slot.result))
                    problem = "reply to request " +
                              std::to_string(request.id) +
                              " differs from Evaluator::evaluate";
            }
            if (!problem.empty()) {
                std::lock_guard<std::mutex> lock(mutex);
                failures.push_back(problem);
            }
        }
    };
    const unsigned threads = std::max(
        1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    m.attempted += work.size();
    for (const std::string &failure : failures)
        m.fail(failure);
}

/** A started server whose trace cache holds every Replay trace. */
struct Daemon
{
    std::string socketPath;
    std::unique_ptr<serve::Server> server;

    ~Daemon()
    {
        if (server)
            server->drain();
        if (!socketPath.empty())
            ::unlink(socketPath.c_str());
    }
};

std::unique_ptr<Daemon>
startDaemon(const Options &options, std::size_t index, Tracer &tracer,
            Measured &m)
{
    auto daemon = std::make_unique<Daemon>();
    daemon->socketPath = options.workDir + "/serve-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(index) + ".sock";
    {
        ScopedSpan s(tracer, "serve.Server.start");
        daemon->server = std::make_unique<serve::Server>(
            serverConfig(daemon->socketPath));
        daemon->server->start();
    }
    ScopedSpan s(tracer, "serve.warmTraceCache");
    serve::Endpoint endpoint;
    endpoint.unixPath = daemon->socketPath;
    const serve::Fd fd = serve::connectTo(endpoint);
    for (std::uint8_t mix = 1; mix <= replayMixes; ++mix) {
        for (std::uint64_t which = 0; which < replaySeeds; ++which) {
            const auto frame = serve::frame(serve::encodeRequest(
                warmRequest(options.seed, mix, which)));
            serve::sendAll(fd.get(), frame.data(), frame.size());
            std::vector<std::uint8_t> payload;
            ++m.attempted;
            if (serve::recvFrame(fd.get(), payload,
                                 serve::defaultMaxFrameBytes) !=
                    serve::RecvStatus::Frame ||
                serve::parseResponse(payload.data(), payload.size())
                        .status != serve::Status::Ok)
                m.fail("trace-cache warm-up request failed");
        }
    }
    return daemon;
}

/** Serve-stage costs measured by direct calls (traced run only). */
void
probeStages(const Options &options, const Window &window, Tracer &tracer,
            Measured &m)
{
    serve::Evaluator evaluator(sim::SystemConfig::tableIV(),
                               serverConfig("").limits);
    const sim::SystemConfig config = sim::SystemConfig::tableIV();

    // Replay traces as the server's cache holds them; the probe
    // evaluator's cache is warmed the way set-up warms the server's.
    std::vector<replay::LlcTrace> traces;
    for (std::uint8_t mix = 1; mix <= replayMixes; ++mix) {
        for (std::uint64_t which = 0; which < replaySeeds; ++which) {
            ScopedSpan s(tracer, "hierarchy.captureTrace");
            traces.push_back(hierarchy::captureTrace(
                workload::tableVMixes()[mix - 1], config.llcBlocks(),
                config.privateCaches, replayRefs,
                traceSeed(options.seed, which), config.scheme));
            evaluator.evaluate(warmRequest(options.seed, mix, which));
        }
    }
    std::vector<serve::Request> requests;
    for (std::size_t i = 0; i < window.slots.size(); ++i)
        requests.push_back(makeRequest(options.seed, window.firstSeq + i));

    double eval_s = 0.0;
    double parse_s = 0.0;
    double encode_s = 0.0;
    std::size_t evals = 0;
    for (const serve::Request &request : requests) {
        const std::vector<std::uint8_t> frame =
            serve::frame(serve::encodeRequest(request));
        const double p0 = nowSeconds();
        {
            ScopedSpan s(tracer, "serve.parseRequest", request.id);
            serve::parseRequest(frame.data() + 4, frame.size() - 4,
                                evaluator.limits().maxBatchEvents);
        }
        parse_s += nowSeconds() - p0;
        serve::Response response;
        response.id = request.id;
        response.type = request.type;
        if (request.type != serve::RequestType::Ping &&
            evals < probeEvaluations) {
            const double e0 = nowSeconds();
            ScopedSpan s(tracer, "serve.Evaluator.evaluate", request.id);
            response.result = evaluator.evaluate(request);
            eval_s += nowSeconds() - e0;
            ++evals;
        }
        const double c0 = nowSeconds();
        {
            ScopedSpan s(tracer, "serve.encodeResponse", request.id);
            serve::encodeResponse(response);
        }
        encode_s += nowSeconds() - c0;
    }
    const auto n = static_cast<double>(requests.size());
    m.layer["serve.eval_ms"] = eval_s * 1e3 / static_cast<double>(evals);
    m.layer["serve.parse_us"] = parse_s * 1e6 / n;
    m.layer["serve.encode_us"] = encode_s * 1e6 / n;

    // Rig construction per request shape, and the replay it serves.
    double rig_s = 0.0;
    double replay_s = 0.0;
    std::size_t rigs = 0;
    std::size_t replays = 0;
    for (const char *name : replayPolicies) {
        const auto kind = serve::policyFromName(name);
        const hybrid::HybridLlcConfig llc = config.llcConfig(*kind);
        for (const replay::LlcTrace &trace : traces) {
            const double r0 = nowSeconds();
            check::FastRig rig;
            {
                ScopedSpan s(tracer, "check.makeFastRig");
                rig = check::makeFastRig(llc);
            }
            const double r1 = nowSeconds();
            {
                ScopedSpan s(tracer, "replay.replay");
                replay::TraceReplayer(0.2).replay(trace, *rig.llc);
            }
            rig_s += r1 - r0;
            replay_s += nowSeconds() - r1;
            ++rigs;
            ++replays;
        }
    }
    m.layer["serve.rig_ms"] = rig_s * 1e3 / static_cast<double>(rigs);
    m.layer["serve.replay_ms"] =
        replay_s * 1e3 / static_cast<double>(replays);
}

} // anonymous namespace

Measured
runServe(const Options &options, Mode mode, Tracer &tracer)
{
    Measured m;
    std::unique_ptr<Daemon> daemon;
    const std::size_t setups = mode == Mode::Full ? setupRepeats : 1;
    for (std::size_t i = 0; i < setups; ++i) {
        daemon.reset();
        const double t0 = nowSeconds();
        daemon = startDaemon(options, i, tracer, m);
        m.setupS.push_back(nowSeconds() - t0);
    }

    std::vector<Window> windows;
    std::uint64_t next_seq = 0;
    {
        Load load(daemon->socketPath);
        const double fixed_s =
            mode == Mode::Full
                ? std::max(0.65 * options.seconds / fixedWindows,
                           probeSamples / offeredRate)
                : probeSamples / 2 / offeredRate;
        const std::size_t fixed = mode == Mode::Full ? fixedWindows : 1;
        for (std::size_t w = 0; w < fixed; ++w) {
            windows.push_back(makeWindow(options.seed, next_seq,
                                         offeredRate, fixed_s));
            load.run(windows.back(), tracer);
        }
        if (mode == Mode::Full) {
            // Bisect the offered rate over [0.5, 1.3] x the shards'
            // capacity as the fixed-rate median latency suggests; each
            // probe carries enough requests for a p99.
            std::vector<double> fixed_ms;
            for (const Window &window : windows) {
                for (const Slot &slot : window.slots)
                    fixed_ms.push_back(
                        (slot.timing.done - slot.timing.due) * 1e3);
            }
            const double capacity = shards * 1e3 / median(fixed_ms);
            double lo = 0.5 * capacity;
            double hi = 1.3 * capacity;
            // A failing rate gets a second probe: one host stall near
            // capacity should not decide the verdict on its own.
            for (std::size_t p = 0; p < searchProbes; ++p) {
                const double rate = 0.5 * (lo + hi);
                const double duration =
                    std::max(0.35 * options.seconds / (2 * searchProbes),
                             probeSamples / rate);
                bool meets = false;
                for (int attempt = 0; attempt < 2 && !meets; ++attempt) {
                    windows.push_back(
                        makeWindow(options.seed, next_seq, rate, duration));
                    load.run(windows.back(), tracer);
                    meets = meetsLimit(windows.back());
                }
                (meets ? lo : hi) = rate;
            }
            m.maxRateRps = lo;
        }
    }
    m.peakRssMiB = peakRssMiB();
    const serve::ServerStats stats = daemon->server->stats();

    std::vector<OpenLoopTiming> timings;
    for (std::size_t w = 0; w < windows.size(); ++w) {
        const Window &window = windows[w];
        if (mode == Mode::Full && w >= fixedWindows)
            continue; // search probes feed max_rate_rps only
        std::vector<OpenLoopTiming> window_timings;
        for (const Slot &slot : window.slots)
            window_timings.push_back(slot.timing);
        m.latencyWindowsMs.push_back(
            openLoopStats(window_timings).latencyMs);
        timings.insert(timings.end(), window_timings.begin(),
                       window_timings.end());
        m.unitWallS.push_back(window.wallS);
        m.unitCpuS.push_back(window.cpuS);
        m.unitEvents.push_back(static_cast<double>(window.events));
    }
    const OpenLoopStats open_loop = openLoopStats(timings);
    m.opLatencyMs = open_loop.latencyMs;
    if (mode == Mode::Traced)
        m.maxRateRps = offeredRate;

    checkReplies(options.seed, windows, m);
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

    const Window &window = windows.front();
    probeStages(options, window, tracer, m);
    m.layer["serve.wait_ms"] =
        median(open_loop.latencyMs) - m.layer["serve.eval_ms"];
    m.layer["serve.gen_lag_ms"] = tailLatency(open_loop.genLagMs).value;
    m.layer["serve.backlog_max"] = static_cast<double>(window.backlogMax);
    m.layer["serve.frames_accepted"] =
        static_cast<double>(stats.framesAccepted);
    m.layer["serve.overloaded"] = static_cast<double>(stats.overloaded);
    m.layer["serve.errors"] = static_cast<double>(stats.requestsError);
    return m;
}

} // namespace perfbench
