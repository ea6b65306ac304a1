// Byte-stream transports for MQTT sessions.
//
// Two implementations: real TCP (the deployment path) and an in-process
// pipe pair. The in-proc transport lets benches run 50+ concurrent
// "hosts" against one Collect Agent without exhausting sockets, and makes
// protocol tests deterministic; it exercises the identical codec and
// broker logic because framing happens above this interface.
//
// Both implementations honor the process-wide FaultInjector (points
// kMqttSend / kMqttRecv, see common/fault.hpp): injected errors fail one
// send/recv with a NetError, injected drops kill the connection — this is
// how the delivery-reliability tests simulate flaky networks and broker
// crashes deterministically.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>

#include "common/mutex.hpp"
#include "mqtt/packet.hpp"
#include "net/socket.hpp"

namespace dcdb::mqtt {

class Transport {
  public:
    virtual ~Transport() = default;

    /// Send the whole buffer (blocking). Throws NetError on failure.
    virtual void send(std::span<const std::uint8_t> data) = 0;

    /// Receive up to buf.size() bytes; returns 0 on EOF/close.
    virtual std::size_t recv(std::span<std::uint8_t> buf) = 0;

    /// Unblock any pending recv and fail future operations.
    virtual void close() = 0;
};

class TcpTransport final : public Transport {
  public:
    explicit TcpTransport(TcpStream stream);

    void send(std::span<const std::uint8_t> data) override;
    std::size_t recv(std::span<std::uint8_t> buf) override;
    void close() override;

  private:
    // stream_ is full-duplex: sends are serialized by send_mutex_ (many
    // publisher threads share one connection), recv is single-consumer
    // (the session/reader thread) and never takes the mutex — so stream_
    // cannot be DCDB_GUARDED_BY(send_mutex_).
    TcpStream stream_;
    Mutex send_mutex_;  // dcdblint: no-guard (guards send-half of stream_)
};

/// Create a cross-wired pair of in-process transports: bytes sent on one
/// end are received on the other.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_inproc_pair();

/// Largest remaining length (the bytes after the fixed header) that
/// PacketStream::read_packet accepts. A PUBLISH must fit its topic,
/// packet id and payload in it.
inline constexpr std::uint32_t kMaxRemainingLength = 64u << 20;

/// Framed MQTT packet stream over a Transport. Reading is single-consumer;
/// writes are internally serialized so multiple threads may send.
class PacketStream {
  public:
    explicit PacketStream(std::unique_ptr<Transport> transport)
        : transport_(std::move(transport)) {}

    /// Read the next packet; nullopt on orderly EOF. Throws ProtocolError
    /// on malformed frames and NetError on transport failure.
    std::optional<Packet> read_packet();

    void write_packet(const Packet& p);

    void close() { transport_->close(); }

  private:
    bool fill();
    bool take_byte(std::uint8_t& out);

    std::unique_ptr<Transport> transport_;
    std::deque<std::uint8_t> buf_;  // reader-side only (single consumer)
    // Serializes whole frames onto the (external) transport; the guarded
    // resource is the transport's send half, not an annotatable member.
    Mutex write_mutex_;  // dcdblint: no-guard
};

}  // namespace dcdb::mqtt
