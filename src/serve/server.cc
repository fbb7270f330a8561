#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"

namespace hllc::serve
{

namespace
{

constexpr std::uint64_t interruptPollMs = 100; //!< serve()'s cadence
constexpr std::uint64_t shardPollMs = 50; //!< idle shard re-check
/** Bytes read off one connection per wake: no peer starves the rest. */
constexpr std::size_t readBudget = 64 * 1024;
/** How long a half-closed connection's input is drained before close. */
constexpr auto lingerBound = std::chrono::milliseconds(500);
/** A reply write stalled this long marks its peer dead. */
constexpr std::uint64_t sendStallMs = 5'000;

Response
errorResponse(std::uint64_t id, const std::string &message)
{
    Response response;
    response.status = Status::Error;
    response.id = id;
    response.message = message;
    return response;
}

/**
 * Best-effort request id of a payload that failed full parsing, so an
 * error reply can still name the request it answers. Returns 0 when
 * even the header is unreadable.
 */
std::uint64_t
peekRequestId(const std::vector<std::uint8_t> &payload)
{
    try {
        serial::Decoder dec(payload.data(), payload.size());
        if (dec.u32() != requestMagic)
            return 0;
        if (dec.u8() != protocolVersion)
            return 0;
        dec.u8(); // type (any value; the id follows regardless)
        return dec.u64();
    } catch (const IoError &) {
        return 0;
    }
}

} // anonymous namespace

/**
 * One accepted socket: the lock serialising reply frames onto it, and
 * the frame reader and close state only the I/O owner touches.
 */
struct Server::Connection
{
    Connection(Fd fd, std::uint32_t max_frame_bytes)
        : fd(std::move(fd)), reader(max_frame_bytes)
    {
    }

    Fd fd;
    Mutex writeMutex;
    /** Set on the first failed write; later replies are not attempted. */
    std::atomic<bool> dead{ false };
    /** Requests queued on or running in a shard. */
    std::atomic<std::uint32_t> inFlight{ 0 };
    /** No further frame is dispatched; close once inFlight is 0. */
    std::atomic<bool> closing{ false };

    FrameReader reader;
    bool synced = true;     //!< false once framing is lost
    bool eof = false;       //!< input ended (EOF or a socket error)
    bool halfClosed = false;
    Clock::time_point lingerUntil;
};

/** A parsed evaluation request waiting on a shard queue. */
struct Server::WorkItem
{
    std::shared_ptr<Connection> conn;
    Request request;
};

/** One shard: a bounded FIFO drained by one ThreadPool worker. */
struct Server::Shard
{
    explicit Shard(std::uint32_t index) : index(index) {}

    const std::uint32_t index;
    Mutex mutex;
    CondVar wake;
    std::deque<WorkItem> queue HLLC_GUARDED_BY(mutex);

    /** Enqueue unless the @p depth bound is hit. */
    bool
    tryPush(WorkItem item, std::size_t depth)
    {
        {
            MutexLock lock(mutex);
            if (queue.size() >= depth)
                return false;
            queue.push_back(std::move(item));
        }
        wake.notifyOne();
        return true;
    }

    std::size_t
    depthNow()
    {
        MutexLock lock(mutex);
        return queue.size();
    }
};

Server::Server(const ServerConfig &config)
    : config_(config),
      evaluator_(sim::SystemConfig::tableIV(), config.limits)
{
    if (config_.shards == 0)
        config_.shards = 1;
    if (config_.queueDepth == 0)
        config_.queueDepth = 1;
}

Server::~Server()
{
    drain();
}

void
Server::start()
{
    if (started_.exchange(true))
        throw IoError("Server::start() called twice");

    listener_ = std::make_unique<Listener>(config_.endpoint);
    int wake[2];
    if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0)
        throw IoError(std::string("pipe2: ") + std::strerror(errno));
    wakeRead_ = Fd(wake[0]);
    wakeWrite_ = Fd(wake[1]);

    shards_.reserve(config_.shards);
    for (std::uint32_t i = 0; i < config_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>(i));

    // One pool worker per shard: the pool owns the threads, the shard
    // loops own the queues. drain() leans on ThreadPool::stop()'s
    // all-accepted-tasks-run guarantee.
    shardPool_ = std::make_unique<ThreadPool>(config_.shards);
    for (auto &shard : shards_) {
        Shard *raw = shard.get();
        shardPool_->submit([this, raw] { shardLoop(*raw); });
    }

    ioThread_ = std::thread([this] { ioLoop(); });
}

std::uint16_t
Server::tcpPort() const
{
    return listener_ ? listener_->port() : 0;
}

void
Server::serve()
{
    while (!drained_.load() && !interruptRequested())
        interruptibleSleepMs(interruptPollMs);
    drain();
}

void
Server::drain()
{
    if (!started_.load(std::memory_order_acquire) ||
        drained_.exchange(true)) {
        return;
    }

    // Stop the I/O thread; from here on this thread owns the sockets.
    if (wakeWrite_.valid())
        wakeIo();
    if (ioThread_.joinable())
        ioThread_.join();

    // 1. Final sweep: every connection already in the listen backlog is
    //    accepted, and every byte already buffered is read, so frames
    //    that arrived before the drain are accepted and answered.
    if (listener_)
        acceptPending();
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        int buffered = 0;
        if (::ioctl(connections_[i]->fd.get(), FIONREAD, &buffered) == 0)
            readConnection(connections_[i],
                           static_cast<std::size_t>(buffered));
    }

    // 2. No new connections.
    listener_.reset();

    // 3. Shards run their queues dry. ThreadPool::stop() returns only
    //    after every shard loop finished, i.e. every accepted request
    //    was evaluated and its reply attempted.
    shardsMayExit_.store(true, std::memory_order_release);
    for (auto &shard : shards_)
        shard->wake.notifyAll();
    if (shardPool_)
        shardPool_->stop();

    // 4. Lingering close: half-close every connection, then discard its
    //    input (complete frames count as refused) until EOF or the
    //    linger bound.
    for (const ConnectionPtr &conn : connections_)
        conn->closing.store(true);
    reapClosing();
    while (!connections_.empty())
        pollOnce(Clock::time_point::max());

    // 5. Closed. The series end at the totals; the final stats export
    //    goes through the atomic checkpoint write path.
    sampleInterval();
    if (!config_.statsOut.empty()) {
        const std::string json = statsJson();
        serial::writeFileAtomic(config_.statsOut, json.data(),
                                json.size());
    }
}

void
Server::ioLoop()
{
    const auto interval = std::chrono::milliseconds(config_.statsIntervalMs);
    Clock::time_point nextSample = Clock::now() + interval;
    while (!drained_.load()) {
        pollOnce(nextSample);
        const Clock::time_point now = Clock::now();
        if (now >= nextSample) {
            sampleInterval();
            nextSample = now + interval;
        }
    }
}

void
Server::pollOnce(Clock::time_point until)
{
    std::vector<pollfd> fds;
    fds.reserve(2 + connections_.size());
    fds.push_back({ wakeRead_.get(), POLLIN, 0 });
    fds.push_back({ listener_ ? listener_->fd() : -1, POLLIN, 0 });
    for (const ConnectionPtr &conn : connections_) {
        // A negative fd is skipped by poll(): nothing is left to read.
        fds.push_back({ conn->eof ? -1 : conn->fd.get(), POLLIN, 0 });
        if (conn->halfClosed)
            until = std::min(until, conn->lingerUntil);
    }

    int timeout = -1;
    if (until != Clock::time_point::max()) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            until - Clock::now());
        timeout = static_cast<int>(std::clamp<std::int64_t>(
            left.count(), 0, INT_MAX));
    }
    if (::poll(fds.data(), fds.size(), timeout) < 0) {
        if (errno != EINTR)
            warn("hllc-serve: poll failed: %s", std::strerror(errno));
        return;
    }

    if (fds[0].revents != 0) {
        std::uint8_t sink[64];
        while (::read(wakeRead_.get(), sink, sizeof sink) > 0) {
        }
    }
    // Connections accepted below are read on the next round.
    const std::size_t polled = fds.size() - 2;
    if (fds[1].revents != 0)
        acceptPending();
    for (std::size_t i = 0; i < polled; ++i) {
        if (fds[2 + i].revents != 0)
            readConnection(connections_[i], readBudget);
    }
    reapClosing();
}

void
Server::acceptPending()
{
    while (std::optional<Fd> accepted = listener_->accept()) {
        if (failpoint::shouldFail("serve.accept")) {
            // Injected accept failure: the connection is dropped before
            // any frame could be read, so nothing is "accepted work".
            counters_.acceptInjectedDrops.fetch_add(1);
            continue;
        }
        try {
            setSendTimeoutMs(accepted->get(), sendStallMs);
        } catch (const IoError &) {
            continue; // the peer is already gone
        }
        counters_.connectionsAccepted.fetch_add(1);
        connections_.push_back(std::make_shared<Connection>(
            std::move(*accepted), config_.maxFrameBytes));
    }
}

void
Server::readConnection(const ConnectionPtr &conn, std::size_t budget)
{
    Connection &c = *conn;
    std::uint8_t discard[4096];
    while (!c.eof && budget > 0) {
        std::uint8_t *into = c.synced ? c.reader.next() : discard;
        const std::size_t want = std::min(
            budget, c.synced ? c.reader.want() : sizeof discard);
        const ssize_t n = ::recv(c.fd.get(), into, want, MSG_DONTWAIT);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n <= 0) {
            // Input ended. Only an EOF inside a frame gets an error
            // reply; after a socket error there is no one to answer.
            if (n == 0 && c.synced && c.reader.midFrame())
                framingError(conn, "connection closed mid-frame");
            c.eof = true;
            c.closing.store(true);
            return;
        }
        budget -= static_cast<std::size_t>(n);
        if (!c.synced)
            continue;
        bool complete = false;
        try {
            complete = c.reader.commit(static_cast<std::size_t>(n));
        } catch (const IoError &e) {
            framingError(conn, e.what());
            continue;
        }
        if (!complete)
            continue;
        if (c.closing.load()) {
            counters_.refused.fetch_add(1);
            continue;
        }
        counters_.framesAccepted.fetch_add(1);
        handleFrame(conn, c.reader.payload());
    }
}

void
Server::framingError(const ConnectionPtr &conn, const std::string &what)
{
    // Zero/oversized length or a mid-frame EOF: the stream cannot be
    // resynchronised, so answer once and close the connection. The
    // frame consumed a slot: account it so accepted == replied stays
    // checkable. A closing connection is past answering.
    conn->synced = false;
    if (conn->closing.exchange(true))
        return;
    counters_.framesAccepted.fetch_add(1);
    counters_.requestsError.fetch_add(1);
    sendReply(conn, errorResponse(0, what));
}

void
Server::reapClosing()
{
    const Clock::time_point now = Clock::now();
    std::erase_if(connections_, [&](const ConnectionPtr &conn) {
        Connection &c = *conn;
        if (!c.closing.load())
            return false;
        if (!c.halfClosed) {
            // The shard sending the last in-flight reply wakes the loop.
            if (c.inFlight.load() != 0)
                return false;
            if (c.eof)
                return true; // input fully read: the close sends FIN
            c.fd.shutdownWrite();
            c.halfClosed = true;
            c.lingerUntil = now + lingerBound;
            return false;
        }
        return c.eof || now >= c.lingerUntil;
    });
}

void
Server::wakeIo()
{
    const std::uint8_t byte = 1;
    // hllc-lint: allow(failpoint-coverage) the write only fails when
    // the pipe is full, and a full pipe already holds a pending wake.
    [[maybe_unused]] const ssize_t n = ::write(wakeWrite_.get(), &byte, 1);
}

void
Server::handleFrame(const ConnectionPtr &conn,
                    const std::vector<std::uint8_t> &payload)
{
    Request request;
    try {
        HLLC_FAILPOINT("serve.decode");
        request = parseRequest(payload.data(), payload.size(),
                               config_.limits.maxBatchEvents);
    } catch (const IoError &e) {
        counters_.requestsError.fetch_add(1);
        sendReply(conn, errorResponse(peekRequestId(payload), e.what()));
        return;
    }

    if (request.type == RequestType::Ping ||
        request.type == RequestType::Stats) {
        counters_.requestsOk.fetch_add(1);
        Response response;
        response.status = Status::Ok;
        response.id = request.id;
        response.type = request.type;
        if (request.type == RequestType::Stats) {
            counters_.statsRequests.fetch_add(1);
            response.statsJson = statsJson();
        }
        sendReply(conn, response);
        return;
    }

    Shard &shard = *shards_[request.id % shards_.size()];
    const bool injected = failpoint::shouldFail("serve.dispatch");
    conn->inFlight.fetch_add(1);
    if (injected ||
        !shard.tryPush(WorkItem{ conn, std::move(request) },
                       config_.queueDepth)) {
        conn->inFlight.fetch_sub(1);
        counters_.overloaded.fetch_add(1);
        Response response;
        response.status = Status::Overloaded;
        response.id = peekRequestId(payload);
        response.shard = shard.index;
        response.queueDepth = config_.queueDepth;
        sendReply(conn, response);
    }
}

void
Server::shardLoop(Shard &shard)
{
    for (;;) {
        WorkItem item;
        {
            MutexLock lock(shard.mutex);
            while (shard.queue.empty()) {
                if (shardsMayExit_.load(std::memory_order_acquire))
                    return;
                shard.wake.waitFor(shard.mutex, shardPollMs);
            }
            item = std::move(shard.queue.front());
            shard.queue.pop_front();
        }

        Response response;
        response.id = item.request.id;
        response.type = item.request.type;
        try {
            response.result = evaluator_.evaluate(item.request);
            response.status = Status::Ok;
            counters_.requestsOk.fetch_add(1);
            counters_.eventsProcessed.fetch_add(
                response.result.measuredEvents);
        } catch (const std::exception &e) {
            response.status = Status::Error;
            response.message = e.what();
            counters_.requestsError.fetch_add(1);
        }
        sendReply(item.conn, response);
        if (item.conn->inFlight.fetch_sub(1) == 1 &&
            item.conn->closing.load())
            wakeIo();
    }
}

void
Server::sendReply(const ConnectionPtr &conn, const Response &response)
{
    const std::vector<std::uint8_t> framed =
        frame(encodeResponse(response));
    MutexLock lock(conn->writeMutex);
    if (conn->dead.load(std::memory_order_acquire)) {
        counters_.replyFailures.fetch_add(1);
        return;
    }
    try {
        if (failpoint::shouldFail("serve.reply"))
            throw IoError("injected fault at failpoint 'serve.reply'");
        sendAll(conn->fd.get(), framed.data(), framed.size());
        counters_.repliesSent.fetch_add(1);
    } catch (const IoError &) {
        // The peer is gone (or chaos says so): later replies on this
        // connection would block or fail too — mark it dead once.
        conn->dead.store(true, std::memory_order_release);
        counters_.replyFailures.fetch_add(1);
    }
}

void
Server::sampleInterval()
{
    std::uint64_t depth = 0;
    for (auto &shard : shards_)
        depth += shard->depthNow();

    const ServerStats s = stats();
    MutexLock lock(seriesMutex_);
    const std::pair<const char *, std::uint64_t> samples[] = {
        { "interval", intervalIndex_++ },
        { "requests_ok", s.requestsOk },
        { "requests_error", s.requestsError },
        { "overloaded", s.overloaded },
        { "events_processed", s.eventsProcessed },
        { "replies_sent", s.repliesSent },
        { "queue_depth", depth },
    };
    for (const auto &[name, value] : samples)
        series_.series(name).append(static_cast<double>(value));
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.connectionsAccepted = counters_.connectionsAccepted.load();
    s.acceptInjectedDrops = counters_.acceptInjectedDrops.load();
    s.framesAccepted = counters_.framesAccepted.load();
    s.requestsOk = counters_.requestsOk.load();
    s.requestsError = counters_.requestsError.load();
    s.overloaded = counters_.overloaded.load();
    s.repliesSent = counters_.repliesSent.load();
    s.replyFailures = counters_.replyFailures.load();
    s.eventsProcessed = counters_.eventsProcessed.load();
    s.statsRequests = counters_.statsRequests.load();
    s.refused = counters_.refused.load();
    return s;
}

std::string
Server::statsJson() const
{
    const ServerStats s = stats();
    metrics::CellExport cell;
    cell.label = "serve";
    cell.counters = {
        { "connections_accepted", s.connectionsAccepted },
        { "accept_injected_drops", s.acceptInjectedDrops },
        { "frames_accepted", s.framesAccepted },
        { "requests_ok", s.requestsOk },
        { "requests_error", s.requestsError },
        { "overloaded", s.overloaded },
        { "replies_sent", s.repliesSent },
        { "reply_failures", s.replyFailures },
        { "events_processed", s.eventsProcessed },
        { "stats_requests", s.statsRequests },
        { "refused", s.refused },
    };

    MutexLock lock(seriesMutex_);
    cell.metrics = &series_;
    return metrics::statsToJson({ cell }, "hllc-serve");
}

} // namespace hllc::serve
