/**
 * @file
 * hllc-serve: run the sharded policy-evaluation daemon.
 *
 * Usage:
 *   hllc_serve [--socket <path> | --port <n>] [--shards N]
 *              [--queue-depth N] [--stats-out <f>.json]
 *              [--stats-interval-ms N] [--max-refs N]
 *              [--max-batch-events N]
 *
 * Binds the endpoint (an explicit --port of 0 picks an ephemeral port,
 * printed on the "listening" line so a harness can parse it), serves
 * hllc-req-v1 requests until SIGINT/SIGTERM, then drains: accepted
 * requests are finished and answered, the final hllc-stats-v1 export is
 * written atomically, and the process exits 0.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/argparse.hh"
#include "common/error.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "serve/server.hh"

using namespace hllc;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket <path> | --port <n>] [--shards N]\n"
        "          [--queue-depth N] [--stats-out <file>.json]\n"
        "          [--stats-interval-ms N]\n"
        "          [--max-refs N] [--max-batch-events N]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig config;
    bool endpoint_set = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        auto want = [&](const char *name) {
            if (std::strcmp(arg, name) != 0)
                return false;
            if (value == nullptr)
                fatal("%s needs a value", name);
            ++i;
            return true;
        };
        if (want("--socket")) {
            config.endpoint.unixPath = value;
            endpoint_set = true;
        } else if (want("--port")) {
            const auto port = parseUnsigned(value, 0, 65535);
            if (!port)
                fatal("bad --port '%s'", value);
            config.endpoint.tcpPort =
                static_cast<std::uint16_t>(*port);
            endpoint_set = true;
        } else if (want("--shards")) {
            const auto n = parseUnsigned(value, 1, 256);
            if (!n)
                fatal("bad --shards '%s' (expected 1..256)", value);
            config.shards = *n;
        } else if (want("--queue-depth")) {
            const auto n = parseUnsigned(value, 1, 1u << 20);
            if (!n)
                fatal("bad --queue-depth '%s'", value);
            config.queueDepth = *n;
        } else if (want("--stats-out")) {
            config.statsOut = value;
        } else if (want("--stats-interval-ms")) {
            const auto n = parseU64(value, 10, 3'600'000);
            if (!n)
                fatal("bad --stats-interval-ms '%s'", value);
            config.statsIntervalMs = *n;
        } else if (want("--max-refs")) {
            const auto n = parseU64(value, 1);
            if (!n)
                fatal("bad --max-refs '%s'", value);
            config.limits.maxRefsPerCore = *n;
        } else if (want("--max-batch-events")) {
            const auto n = parseUnsigned(value, 1, 1u << 24);
            if (!n)
                fatal("bad --max-batch-events '%s'", value);
            config.limits.maxBatchEvents = *n;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                         arg);
            return usage(argv[0]);
        }
    }
    if (!endpoint_set)
        return usage(argv[0]);

    installInterruptHandlers();

    serve::Server server(config);
    try {
        server.start();
    } catch (const IoError &e) {
        fatal("%s", e.what());
    }

    if (!config.endpoint.unixPath.empty()) {
        std::printf("hllc-serve: listening on unix:%s (%u shards)\n",
                    config.endpoint.unixPath.c_str(), config.shards);
    } else {
        std::printf("hllc-serve: listening on tcp:127.0.0.1:%u "
                    "(%u shards)\n",
                    server.tcpPort(), config.shards);
    }
    std::fflush(stdout); // harnesses parse this line before connecting

    server.serve();

    const serve::ServerStats stats = server.stats();
    std::printf("hllc-serve: drained: %s frames accepted, %s replies "
                "sent, %s reply failures, %s overloaded, %s refused\n",
                formatU64(stats.framesAccepted).c_str(),
                formatU64(stats.repliesSent).c_str(),
                formatU64(stats.replyFailures).c_str(),
                formatU64(stats.overloaded).c_str(),
                formatU64(stats.refused).c_str());
    if (stats.framesAccepted != stats.repliesSent + stats.replyFailures) {
        // The drain guarantee is the point of the daemon: make a
        // violation loud enough for CI to catch.
        std::fprintf(stderr,
                     "hllc-serve: DRAIN ACCOUNTING VIOLATION: "
                     "accepted %s != replied %s + failed %s\n",
                     formatU64(stats.framesAccepted).c_str(),
                     formatU64(stats.repliesSent).c_str(),
                     formatU64(stats.replyFailures).c_str());
        return 1;
    }
    return 0;
}
