// RAII POSIX sockets: TCP streams/listeners and UDP datagram sockets.
//
// All DCDB transports (MQTT, HTTP REST, simulated SNMP agents) run on top
// of these. Blocking I/O with per-operation timeouts keeps component code
// simple; the scale of a single Pusher or Collect Agent (dozens to a few
// hundred connections) does not require a reactor.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dcdb {

/// RAII file descriptor.
class Fd {
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }
    Fd(Fd&& other) noexcept : fd_(other.release()) {}
    Fd& operator=(Fd&& other) noexcept {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    int release() {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }
    void reset();

  private:
    int fd_{-1};
};

/// Connected TCP stream with blocking I/O and optional timeouts.
class TcpStream {
  public:
    TcpStream() = default;
    explicit TcpStream(Fd fd);

    /// Connect to host:port (numeric IPv4 or "localhost").
    static TcpStream connect(const std::string& host, std::uint16_t port,
                             int timeout_ms = 5000);

    bool valid() const { return fd_.valid(); }

    /// Write the entire buffer; throws NetError on failure.
    void write_all(std::span<const std::uint8_t> data);
    void write_all(const std::string& data);

    /// Read up to `buf.size()` bytes. Returns 0 on orderly shutdown.
    std::size_t read_some(std::span<std::uint8_t> buf);

    /// Read exactly `buf.size()` bytes; false on clean EOF at offset 0,
    /// throws on mid-message EOF or error.
    bool read_exact(std::span<std::uint8_t> buf);

    /// Per-operation receive timeout (0 = block forever).
    void set_recv_timeout_ms(int ms);
    void set_nodelay(bool on);
    void shutdown_both();
    void close() { fd_.reset(); }

    int native() const { return fd_.get(); }

  private:
    Fd fd_;
};

/// Listening TCP socket bound to 127.0.0.1.
class TcpListener {
  public:
    /// Bind to the given port; 0 picks an ephemeral port.
    explicit TcpListener(std::uint16_t port = 0);

    std::uint16_t port() const { return port_; }

    /// Accept one connection; nullopt on timeout (if set) or if closed.
    std::optional<TcpStream> accept();

    /// Make accept() return nullopt after `ms` with no connection.
    void set_accept_timeout_ms(int ms);

    /// Unblock pending/future accept() calls, keeping the descriptor:
    /// close it only once no thread can be inside accept().
    void shutdown();
    /// shutdown(), then close the descriptor.
    void close();
    bool closed() const;

  private:
    Fd fd_;
    std::uint16_t port_{0};
};

/// UDP socket bound to 127.0.0.1 (used by the SNMP substrate).
class UdpSocket {
  public:
    explicit UdpSocket(std::uint16_t port = 0);

    std::uint16_t port() const { return port_; }

    void send_to(std::span<const std::uint8_t> data, std::uint16_t port);

    /// Receive one datagram; returns sender port, or nullopt on timeout.
    std::optional<std::uint16_t> recv_from(std::vector<std::uint8_t>& out,
                                           int timeout_ms);

    void close();

  private:
    Fd fd_;
    std::uint16_t port_{0};
};

}  // namespace dcdb
