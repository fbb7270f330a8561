#include "serve/socket.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/numfmt.hh"
#include "serve/protocol.hh"

namespace hllc::serve
{

namespace
{

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw IoError(what + ": " + std::strerror(errno));
}

/** The sockaddr of an Endpoint, and its name for error messages. */
struct Address
{
    sockaddr_storage storage{};
    socklen_t length = 0;
    std::string name;

    const sockaddr *get() const
    {
        return reinterpret_cast<const sockaddr *>(&storage);
    }
};

Address
resolve(const Endpoint &endpoint)
{
    Address addr;
    if (!endpoint.unixPath.empty()) {
        auto *un = reinterpret_cast<sockaddr_un *>(&addr.storage);
        if (endpoint.unixPath.size() >= sizeof(un->sun_path))
            throw IoError("unix socket path too long: " +
                          endpoint.unixPath);
        un->sun_family = AF_UNIX;
        std::memcpy(un->sun_path, endpoint.unixPath.c_str(),
                    endpoint.unixPath.size() + 1);
        addr.length = sizeof(sockaddr_un);
        addr.name = "'" + endpoint.unixPath + "'";
        return addr;
    }
    auto *in = reinterpret_cast<sockaddr_in *>(&addr.storage);
    in->sin_family = AF_INET;
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in->sin_port = htons(endpoint.tcpPort);
    addr.length = sizeof(sockaddr_in);
    addr.name = "127.0.0.1:" + formatU64(endpoint.tcpPort);
    return addr;
}

Fd
openSocket(const Address &addr, int flags)
{
    Fd fd(::socket(addr.storage.ss_family, SOCK_STREAM | SOCK_CLOEXEC |
                                               flags,
                   0));
    if (!fd.valid())
        throwErrno("socket");
    return fd;
}

/** Set the SO_RCVTIMEO / SO_SNDTIMEO @p option of @p fd. */
void
setTimeoutMs(int fd, int option, std::uint64_t timeout_ms)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
    if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0)
        throwErrno("setsockopt(timeout)");
}

} // anonymous namespace

Fd &
Fd::operator=(Fd &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Fd::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Fd::shutdownWrite()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

Listener::Listener(const Endpoint &endpoint)
{
    const Address addr = resolve(endpoint);
    Fd fd = openSocket(addr, SOCK_NONBLOCK);
    if (!endpoint.unixPath.empty()) {
        // A stale socket file from a previous daemon must not block the
        // restart; bind() would fail with EADDRINUSE on it.
        ::unlink(endpoint.unixPath.c_str());
    } else {
        const int one = 1;
        ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
    }
    if (::bind(fd.get(), addr.get(), addr.length) != 0)
        throwErrno("bind(" + addr.name + ")");
    unixPath_ = endpoint.unixPath;
    if (::listen(fd.get(), 128) != 0)
        throwErrno("listen(" + addr.name + ")");
    if (unixPath_.empty()) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd.get(), reinterpret_cast<sockaddr *>(&bound),
                          &len) != 0) {
            throwErrno("getsockname");
        }
        port_ = ntohs(bound.sin_port);
    }
    fd_ = std::move(fd);
}

Listener::~Listener()
{
    fd_.close();
    if (!unixPath_.empty())
        ::unlink(unixPath_.c_str());
}

std::optional<Fd>
Listener::accept()
{
    for (;;) {
        Fd conn(::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC));
        if (conn.valid())
            return conn;
        if (errno != EINTR)
            return std::nullopt;
    }
}

Fd
connectTo(const Endpoint &endpoint)
{
    const Address addr = resolve(endpoint);
    Fd fd = openSocket(addr, 0);
    if (::connect(fd.get(), addr.get(), addr.length) != 0)
        throwErrno("connect(" + addr.name + ")");
    return fd;
}

void
setRecvTimeoutMs(int fd, std::uint64_t timeout_ms)
{
    setTimeoutMs(fd, SO_RCVTIMEO, timeout_ms);
}

void
setSendTimeoutMs(int fd, std::uint64_t timeout_ms)
{
    setTimeoutMs(fd, SO_SNDTIMEO, timeout_ms);
}

void
sendAll(int fd, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("send");
        }
        sent += static_cast<std::size_t>(n);
    }
}

RecvStatus
recvFrame(int fd, std::vector<std::uint8_t> &payload,
          std::uint32_t max_frame_bytes, std::uint64_t mid_frame_grace_ms)
{
    using Clock = std::chrono::steady_clock;
    FrameReader reader(max_frame_bytes);
    Clock::duration stalled{};
    for (;;) {
        const Clock::time_point before = Clock::now();
        const ssize_t n = ::recv(fd, reader.next(), reader.want(), 0);
        if (n > 0) {
            if (reader.commit(static_cast<std::size_t>(n))) {
                payload.swap(reader.payload());
                return RecvStatus::Frame;
            }
            continue;
        }
        if (n == 0) {
            if (!reader.midFrame())
                return RecvStatus::Eof;
            throw IoError("connection closed mid-frame");
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            throwErrno("recv");
        if (!reader.midFrame())
            return RecvStatus::Timeout;
        stalled += Clock::now() - before;
        if (stalled >= std::chrono::milliseconds(mid_frame_grace_ms))
            throw IoError("peer stalled mid-frame");
    }
}

} // namespace hllc::serve
