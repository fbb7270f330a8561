/**
 * @file
 * Minimal RAII POSIX socket layer for the serving daemon, its load
 * generator and the tests: a non-blocking listener (Unix path or
 * loopback TCP, ephemeral ports resolved), blocking connects, and frame
 * send/receive over the u32-length-prefix transport of
 * serve/protocol.hh (recvFrame() reads through its FrameReader). Sends use
 * MSG_NOSIGNAL, so a vanished peer surfaces as IoError, never SIGPIPE.
 * All failures throw hllc::IoError.
 */

#ifndef HLLC_SERVE_SOCKET_HH
#define HLLC_SERVE_SOCKET_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"

namespace hllc::serve
{

/** Move-only owning file descriptor. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { close(); }

    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &operator=(Fd &&other) noexcept;
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    /** Close now (idempotent); also called by the destructor. */
    void close();
    /** Half-close: send FIN, keep the read side open. */
    void shutdownWrite();

  private:
    int fd_ = -1;
};

/** Where a daemon listens: a Unix path, or loopback TCP. */
struct Endpoint
{
    std::string unixPath;    //!< non-empty selects AF_UNIX
    std::uint16_t tcpPort = 0; //!< AF_INET 127.0.0.1; 0 = ephemeral
};

class Listener
{
  public:
    /**
     * Bind and listen on @p endpoint. A Unix path is unlink()ed first
     * (a daemon restart must not fail on the previous socket file).
     * Throws IoError on any syscall failure.
     */
    explicit Listener(const Endpoint &endpoint);
    /** Stop accepting: closes the socket and unlinks a Unix path. */
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Accept one pending connection without blocking, or return nothing
     * (none pending, or the peer vanished first). The accepted socket
     * is blocking: replies use sendAll.
     */
    std::optional<Fd> accept();

    /** The listening descriptor, for poll(). */
    int fd() const { return fd_.get(); }

    /** The bound TCP port (resolved when 0 was requested); 0 for Unix. */
    std::uint16_t port() const { return port_; }

  private:
    Fd fd_;
    std::string unixPath_;
    std::uint16_t port_ = 0;
};

/** Connect to @p endpoint (blocking). Throws IoError on failure. */
Fd connectTo(const Endpoint &endpoint);

/** Set the kernel receive timeout of @p fd (recvFrame's Timeout). */
void setRecvTimeoutMs(int fd, std::uint64_t timeout_ms);

/** Set the kernel send timeout of @p fd (sendAll throws past it). */
void setSendTimeoutMs(int fd, std::uint64_t timeout_ms);

/** Send all of @p data (+MSG_NOSIGNAL); throws IoError on failure. */
void sendAll(int fd, const void *data, std::size_t size);

/** Outcome of one recvFrame() call. */
enum class RecvStatus
{
    Frame,   //!< a complete payload landed in the output buffer
    Eof,     //!< clean end-of-stream at a frame boundary
    Timeout, //!< the kernel receive timeout elapsed before any byte
};

/**
 * Read one frame into @p payload (FrameReader's rules). Returns Timeout
 * only before the first byte; then the frame is read to completion,
 * tolerating @p mid_frame_grace_ms of cumulative stall (wall time in
 * receives that timed out). A mid-frame EOF, a longer stall or a socket
 * error throws IoError.
 */
RecvStatus recvFrame(int fd, std::vector<std::uint8_t> &payload,
                     std::uint32_t max_frame_bytes,
                     std::uint64_t mid_frame_grace_ms = 10'000);

} // namespace hllc::serve

#endif // HLLC_SERVE_SOCKET_HH
