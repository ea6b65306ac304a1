#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dcdb {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw NetError(what + ": " + std::strerror(errno));
}

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

std::uint16_t bound_port(int fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        throw_errno("getsockname");
    return ntohs(addr.sin_port);
}

}  // namespace

void Fd::reset() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

TcpStream::TcpStream(Fd fd) : fd_(std::move(fd)) {}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port,
                             int timeout_ms) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw_errno("socket");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1)
        throw NetError("invalid address: " + host);

    // Non-blocking connect with poll-based timeout.
    const int flags = fcntl(fd.get(), F_GETFL, 0);
    fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) throw_errno("connect");
    if (rc != 0) {
        pollfd pfd{fd.get(), POLLOUT, 0};
        rc = ::poll(&pfd, 1, timeout_ms);
        if (rc == 0) throw NetError("connect timeout to " + host);
        if (rc < 0) throw_errno("poll");
        int err = 0;
        socklen_t len = sizeof err;
        getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0)
            throw NetError("connect failed: " +
                           std::string(std::strerror(err)));
    }
    fcntl(fd.get(), F_SETFL, flags);  // back to blocking
    return TcpStream(std::move(fd));
}

void TcpStream::write_all(std::span<const std::uint8_t> data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd_.get(), data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("send");
        }
        off += static_cast<std::size_t>(n);
    }
}

void TcpStream::write_all(const std::string& data) {
    write_all(std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                        data.size()));
}

std::size_t TcpStream::read_some(std::span<std::uint8_t> buf) {
    while (true) {
        const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw NetError("recv timeout");
            throw_errno("recv");
        }
        return static_cast<std::size_t>(n);
    }
}

bool TcpStream::read_exact(std::span<std::uint8_t> buf) {
    std::size_t off = 0;
    while (off < buf.size()) {
        const std::size_t n = read_some(buf.subspan(off));
        if (n == 0) {
            if (off == 0) return false;
            throw NetError("unexpected EOF mid-message");
        }
        off += n;
    }
    return true;
}

void TcpStream::set_recv_timeout_ms(int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void TcpStream::set_nodelay(bool on) {
    const int v = on ? 1 : 0;
    setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof v);
}

void TcpStream::shutdown_both() {
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

TcpListener::TcpListener(std::uint16_t port) {
    fd_ = Fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd_.valid()) throw_errno("socket");
    const int one = 1;
    setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in addr = loopback_addr(port);
    if (bind(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
        throw_errno("bind");
    if (listen(fd_.get(), 128) != 0) throw_errno("listen");
    port_ = bound_port(fd_.get());
}

std::optional<TcpStream> TcpListener::accept() {
    while (true) {
        const int fd = ::accept(fd_.get(), nullptr, nullptr);
        if (fd >= 0) return TcpStream(Fd(fd));
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EBADF ||
            errno == EINVAL)
            return std::nullopt;  // timeout or listener closed
        throw_errno("accept");
    }
}

void TcpListener::set_accept_timeout_ms(int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void TcpListener::shutdown() {
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

void TcpListener::close() {
    shutdown();
    fd_.reset();
}

bool TcpListener::closed() const { return !fd_.valid(); }

UdpSocket::UdpSocket(std::uint16_t port) {
    fd_ = Fd(::socket(AF_INET, SOCK_DGRAM, 0));
    if (!fd_.valid()) throw_errno("socket");
    const sockaddr_in addr = loopback_addr(port);
    if (bind(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
        throw_errno("bind");
    port_ = bound_port(fd_.get());
}

void UdpSocket::send_to(std::span<const std::uint8_t> data,
                        std::uint16_t port) {
    const sockaddr_in addr = loopback_addr(port);
    const ssize_t n =
        ::sendto(fd_.get(), data.data(), data.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (n < 0) throw_errno("sendto");
}

std::optional<std::uint16_t> UdpSocket::recv_from(
    std::vector<std::uint8_t>& out, int timeout_ms) {
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc == 0) return std::nullopt;
    if (rc < 0) {
        if (errno == EINTR) return std::nullopt;
        throw_errno("poll");
    }
    out.resize(65536);
    sockaddr_in from{};
    socklen_t fromlen = sizeof from;
    const ssize_t n =
        ::recvfrom(fd_.get(), out.data(), out.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), &fromlen);
    if (n < 0) throw_errno("recvfrom");
    out.resize(static_cast<std::size_t>(n));
    return ntohs(from.sin_port);
}

void UdpSocket::close() { fd_.reset(); }

}  // namespace dcdb
