/**
 * @file
 * hllc-serve: the sharded policy-evaluation daemon.
 *
 * Topology (one process):
 *
 *   one I/O thread: poll() over the listener, every connection and a
 *   wake pipe. It accepts (serve.accept), reads frames through one
 *   FrameReader per connection, parses them (serve.decode), answers
 *   Ping, Stats and errors inline, and takes an interval sample
 *   whenever statsIntervalMs is due.
 *        │ Replay / Batch: shard = id % N  (serve.dispatch)
 *        │ bounded queue; full ⇒ OVERLOADED reply, never unbounded
 *        ▼ growth
 *   N shard workers on one ThreadPool: pop one request, evaluate,
 *   reply (serve.reply)
 *
 * Replies to one connection are serialised by a per-connection write
 * lock, so frames never interleave. A reply write that makes no
 * progress for a fixed bound marks its peer dead, so a client that
 * stops reading cannot hold the I/O thread or a shard. The accounting
 * invariant the drain guarantee rests on: every *accepted* frame
 * (fully read off a socket) produces exactly one reply attempt —
 * framesAccepted == repliesSent + replyFailures once quiescent.
 *
 * Drain (SIGTERM via common/interrupt, or drain()):
 *  1. A final non-blocking sweep accepts every pending connection and
 *     reads every complete frame already buffered, so frames that
 *     arrived before the drain are accepted and answered.
 *  2. The listener closes.
 *  3. The shards run dry: every accepted frame gets its reply.
 *  4. Each connection is half-closed (shutdown(SHUT_WR)); its input is
 *     read and discarded until EOF or a fixed linger bound. Complete
 *     frames discarded here are counted as `refused`.
 *  5. Close; the final hllc-stats-v1 export is written through the
 *     atomic-write checkpoint path.
 * A connection dropped after a framing error, or after its peer's EOF,
 * gets the same lingering close once its in-flight replies are out, so
 * a reply is never lost to the RST a close with unread input sends.
 */

#ifndef HLLC_SERVE_SERVER_HH
#define HLLC_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "serve/eval.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"

namespace hllc::serve
{

struct ServerConfig
{
    Endpoint endpoint;
    unsigned shards = 4;
    std::size_t queueDepth = 64;   //!< per-shard pending-request bound
    std::uint32_t maxFrameBytes = defaultMaxFrameBytes;
    EvalLimits limits;
    std::string statsOut;          //!< final hllc-stats-v1 export path
    std::uint64_t statsIntervalMs = 1000; //!< interval-series cadence
};

/** Monotonic counters (snapshot via Server::stats()). */
template <typename Count>
struct BasicServerStats
{
    Count connectionsAccepted{};
    Count acceptInjectedDrops{}; //!< serve.accept chaos
    Count framesAccepted{};      //!< fully read off a socket
    Count requestsOk{};
    Count requestsError{};       //!< decode or eval errors
    Count overloaded{};          //!< backpressure replies
    Count repliesSent{};
    Count replyFailures{};       //!< dead peer / serve.reply
    Count eventsProcessed{};     //!< measured events evaluated
    Count statsRequests{};
    Count refused{};             //!< frames discarded by the drain
};
using ServerStats = BasicServerStats<std::uint64_t>;

class Server
{
  public:
    explicit Server(const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, then spawn the I/O thread and the shard workers. */
    void start();

    /** The resolved TCP port (ephemeral binds); 0 for Unix sockets. */
    std::uint16_t tcpPort() const;

    /**
     * Block until an interrupt (SIGINT/SIGTERM via common/interrupt)
     * arrives, then drain and return. The daemon main is
     * `installInterruptHandlers(); server.start(); server.serve();`.
     */
    void serve();

    /**
     * Drain to completion (the five steps above), then write the final
     * stats export. Idempotent; implied by serve() and the destructor.
     */
    void drain();

    ServerStats stats() const;

    /** The hllc-stats-v1 document (counters + interval series). */
    std::string statsJson() const;

  private:
    struct Connection;
    struct Shard;
    struct WorkItem;
    using Clock = std::chrono::steady_clock;
    using ConnectionPtr = std::shared_ptr<Connection>;

    void ioLoop();
    void pollOnce(Clock::time_point until);
    void acceptPending();
    void readConnection(const ConnectionPtr &conn, std::size_t budget);
    void framingError(const ConnectionPtr &conn, const std::string &what);
    void reapClosing();
    void wakeIo();
    void shardLoop(Shard &shard);
    void handleFrame(const ConnectionPtr &conn,
                     const std::vector<std::uint8_t> &payload);
    void sendReply(const ConnectionPtr &conn, const Response &response);
    void sampleInterval();

    ServerConfig config_;
    Evaluator evaluator_;

    std::atomic<bool> started_{ false };
    /** Set when drain() begins; the I/O thread then returns. */
    std::atomic<bool> drained_{ false };
    /** Set once no frame can be dispatched: shards may run dry and exit. */
    std::atomic<bool> shardsMayExit_{ false };

    /**
     * Owned by the I/O thread while it runs, then by drain(), which
     * joins it before touching them.
     */
    std::unique_ptr<Listener> listener_;
    std::vector<ConnectionPtr> connections_;
    Fd wakeRead_;  //!< the I/O thread polls this end
    Fd wakeWrite_; //!< drain() and shards write a byte here
    std::thread ioThread_;

    std::unique_ptr<ThreadPool> shardPool_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Atomic cells, so every thread can bump them. */
    BasicServerStats<std::atomic<std::uint64_t>> counters_;

    mutable Mutex seriesMutex_;
    metrics::MetricRegistry series_ HLLC_GUARDED_BY(seriesMutex_);
    std::uint64_t intervalIndex_ HLLC_GUARDED_BY(seriesMutex_) = 0;
};

} // namespace hllc::serve

#endif // HLLC_SERVE_SERVER_HH
