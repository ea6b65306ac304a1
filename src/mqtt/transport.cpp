#include "mqtt/transport.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/fault.hpp"

namespace dcdb::mqtt {

namespace {

// Fault-injection hooks shared by both transport implementations. The
// mapping from action to byte-stream semantics: an injected error fails
// the one operation (callers see a transient NetError and may retry on a
// live connection); a drop closes the transport first, so the whole
// connection dies as it would under a broker crash or network partition.
void apply_send_fault(Transport& transport) {
    const FaultAction fault =
        FaultInjector::instance().apply(FaultPoint::kMqttSend);
    if (fault == FaultAction::kError)
        throw NetError("injected mqtt send fault");
    if (fault == FaultAction::kDrop) {
        transport.close();
        throw NetError("injected mqtt connection drop");
    }
}

/// Returns true when the recv should report EOF (connection dropped).
bool apply_recv_fault(Transport& transport) {
    const FaultAction fault =
        FaultInjector::instance().apply(FaultPoint::kMqttRecv);
    if (fault == FaultAction::kError)
        throw NetError("injected mqtt recv fault");
    if (fault == FaultAction::kDrop) transport.close();
    return fault == FaultAction::kDrop;
}

}  // namespace

TcpTransport::TcpTransport(TcpStream stream) : stream_(std::move(stream)) {
    stream_.set_nodelay(true);
}

void TcpTransport::send(std::span<const std::uint8_t> data) {
    apply_send_fault(*this);
    MutexLock lock(send_mutex_);
    stream_.write_all(data);
}

std::size_t TcpTransport::recv(std::span<std::uint8_t> buf) {
    if (apply_recv_fault(*this)) return 0;
    return stream_.read_some(buf);
}

void TcpTransport::close() {
    stream_.shutdown_both();
}

namespace {

/// One direction of an in-proc connection: a contiguous buffer whose
/// unread bytes are data[head, data.size()). Bytes move by memcpy, and a
/// warm pipe allocates nothing.
struct Pipe {
    Mutex mutex;
    CondVar cv;
    std::vector<std::uint8_t> data DCDB_GUARDED_BY(mutex);
    std::size_t head DCDB_GUARDED_BY(mutex){0};
    bool closed DCDB_GUARDED_BY(mutex){false};

    void push(std::span<const std::uint8_t> bytes) DCDB_EXCLUDES(mutex) {
        {
            MutexLock lock(mutex);
            if (closed) throw NetError("in-proc pipe closed");
            // Reclaim the consumed prefix before the buffer would grow.
            if (head != 0 && data.size() + bytes.size() > data.capacity()) {
                data.erase(data.begin(),
                           data.begin() + static_cast<std::ptrdiff_t>(head));
                head = 0;
            }
            data.insert(data.end(), bytes.begin(), bytes.end());
        }
        cv.notify_one();
    }

    std::size_t pop(std::span<std::uint8_t> out) DCDB_EXCLUDES(mutex) {
        MutexLock lock(mutex);
        while (head == data.size() && !closed) cv.wait(mutex);
        // Zero once closed and drained.
        const std::size_t n = std::min(out.size(), data.size() - head);
        if (n != 0) std::memcpy(out.data(), data.data() + head, n);
        head += n;
        if (head == data.size()) {  // drained: the next push starts at 0
            data.clear();
            head = 0;
            trim_scratch(data);
        }
        return n;
    }

    void close() DCDB_EXCLUDES(mutex) {
        {
            MutexLock lock(mutex);
            closed = true;
        }
        cv.notify_all();
    }
};

class InProcTransport final : public Transport {
  public:
    InProcTransport(std::shared_ptr<Pipe> tx, std::shared_ptr<Pipe> rx)
        : tx_(std::move(tx)), rx_(std::move(rx)) {}

    ~InProcTransport() override { close(); }

    void send(std::span<const std::uint8_t> data) override {
        apply_send_fault(*this);
        tx_->push(data);
    }
    std::size_t recv(std::span<std::uint8_t> buf) override {
        if (apply_recv_fault(*this)) return 0;
        return rx_->pop(buf);
    }
    void close() override {
        tx_->close();
        rx_->close();
    }

  private:
    std::shared_ptr<Pipe> tx_;
    std::shared_ptr<Pipe> rx_;
};

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_inproc_pair() {
    auto a_to_b = std::make_shared<Pipe>();
    auto b_to_a = std::make_shared<Pipe>();
    return {std::make_unique<InProcTransport>(a_to_b, b_to_a),
            std::make_unique<InProcTransport>(b_to_a, a_to_b)};
}

namespace {

/// The read buffer starts at this size and doubles only when it is full
/// of received bytes.
constexpr std::size_t kReadChunk = 16u << 10;

}  // namespace

bool PacketStream::fill_to(std::size_t n) {
    while (rend_ - rpos_ < n) {
        if (rend_ == rbuf_.size()) {
            // Full: slide the unread bytes to the front, or else double.
            // Growth follows the bytes that arrived, never a length a
            // header declared, so a stalled peer pins no memory.
            if (rpos_ != 0) {
                std::memmove(rbuf_.data(), rbuf_.data() + rpos_,
                             rend_ - rpos_);
                rend_ -= rpos_;
                rpos_ = 0;
            } else {
                // Past the scratch bound, stop at the frame's end rather
                // than doubling beyond it.
                rbuf_.resize(std::max(
                    kReadChunk, std::min(2 * rbuf_.size(),
                                         std::max(n, kScratchKeepBytes))));
            }
            continue;
        }
        const std::size_t got =
            transport_->recv(std::span(rbuf_).subspan(rend_));
        if (got == 0) return false;
        rend_ += got;
    }
    return true;
}

bool PacketStream::read_packet(Packet& out) {
    if (!fill_to(1)) return false;

    // Remaining length: up to 4 bytes, 7 bits each (MQTT 3.1.1 §2.2.3).
    std::size_t header = 1;
    std::uint32_t remaining = 0;
    for (int shift = 0;; shift += 7) {
        if (shift > 21) throw ProtocolError("remaining length too long");
        if (!fill_to(header + 1))
            throw ProtocolError("EOF in remaining length");
        const std::uint8_t b = rbuf_[rpos_ + header++];
        remaining |= static_cast<std::uint32_t>(b & 0x7F) << shift;
        if (!(b & 0x80)) break;
    }
    if (remaining > kMaxRemainingLength)
        throw ProtocolError("packet too large");
    if (!fill_to(header + remaining)) throw ProtocolError("EOF in packet body");

    // A small publish after a one-off large one gives that storage back.
    if (remaining <= kScratchKeepBytes) {
        if (auto* pub = std::get_if<Publish>(&out)) trim_scratch(pub->payload);
    }
    decode(rbuf_[rpos_],
           std::span<const std::uint8_t>(rbuf_).subspan(rpos_ + header,
                                                        remaining),
           out);
    rpos_ += header + remaining;
    if (rpos_ == rend_) {  // drained: the next frame starts at the front
        rpos_ = rend_ = 0;
        trim_scratch(rbuf_);
    }
    return true;
}

void PacketStream::send_frame() {
    transport_->send(wbuf_);
    trim_scratch(wbuf_);
}

void PacketStream::write_packet(const Packet& p) {
    MutexLock lock(write_mutex_);
    encode(p, wbuf_);
    send_frame();
}

void PacketStream::write_publish(std::string_view topic,
                                 std::span<const std::uint8_t> payload,
                                 std::uint8_t qos, std::uint16_t packet_id) {
    MutexLock lock(write_mutex_);
    encode_publish(topic, payload, qos, packet_id, wbuf_);
    send_frame();
}

}  // namespace dcdb::mqtt
