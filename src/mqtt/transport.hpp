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
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

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
///
/// Both directions reuse one contiguous buffer each. The reader pulls
/// bytes in bulk and parses frames in place; its buffer grows only as
/// bytes arrive, never to a length a header merely declares. The writer
/// builds each frame in its scratch and hands it to the transport with
/// exactly one Transport::send, so a frame is never interleaved with
/// another thread's and arrives whole at a wrapping transport.
class PacketStream {
  public:
    explicit PacketStream(std::unique_ptr<Transport> transport)
        : transport_(std::move(transport)) {}

    /// Read the next packet into `out`; false on orderly EOF (before a
    /// packet's first byte). A PUBLISH read into an `out` that already
    /// holds one reuses its topic and payload storage, so a session
    /// loop that keeps one Packet allocates nothing per message. Throws
    /// ProtocolError on malformed frames and NetError on transport
    /// failure.
    bool read_packet(Packet& out);

    void write_packet(const Packet& p) DCDB_EXCLUDES(write_mutex_);

    /// Frame a PUBLISH from its parts and send it; the payload is copied
    /// once, into the frame.
    void write_publish(std::string_view topic,
                       std::span<const std::uint8_t> payload,
                       std::uint8_t qos, std::uint16_t packet_id)
        DCDB_EXCLUDES(write_mutex_);

    void close() { transport_->close(); }

  private:
    /// Make at least `n` unread bytes available in rbuf_; false when the
    /// transport reaches EOF first.
    bool fill_to(std::size_t n);
    /// Send the frame built in wbuf_, then give back a scratch that a
    /// one-off large frame grew.
    void send_frame() DCDB_REQUIRES(write_mutex_);

    std::unique_ptr<Transport> transport_;
    // Reader side only (single consumer): the unread bytes are
    // rbuf_[rpos_, rend_).
    std::vector<std::uint8_t> rbuf_;
    std::size_t rpos_{0};
    std::size_t rend_{0};
    // Serializes whole frames onto the transport's send half and guards
    // the frame scratch they are built in.
    Mutex write_mutex_;
    std::vector<std::uint8_t> wbuf_ DCDB_GUARDED_BY(write_mutex_);
};

}  // namespace dcdb::mqtt
