#include "mqtt/transport.hpp"

#include <chrono>
#include <thread>
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
    auto& injector = FaultInjector::instance();
    switch (injector.roll(FaultPoint::kMqttSend)) {
        case FaultAction::kNone:
            return;
        case FaultAction::kError:
            throw NetError("injected mqtt send fault");
        case FaultAction::kDrop:
            transport.close();
            throw NetError("injected mqtt connection drop");
        case FaultAction::kDelay:
            // dcdblint: allow-sleep (fault injection simulates a slow link)
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                injector.delay_ns(FaultPoint::kMqttSend)));
            return;
    }
}

/// Returns true when the recv should report EOF (connection dropped).
bool apply_recv_fault(Transport& transport) {
    auto& injector = FaultInjector::instance();
    switch (injector.roll(FaultPoint::kMqttRecv)) {
        case FaultAction::kNone:
            return false;
        case FaultAction::kError:
            throw NetError("injected mqtt recv fault");
        case FaultAction::kDrop:
            transport.close();
            return true;
        case FaultAction::kDelay:
            // dcdblint: allow-sleep (fault injection simulates a slow link)
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                injector.delay_ns(FaultPoint::kMqttRecv)));
            return false;
    }
    return false;
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

/// One direction of an in-proc connection.
struct Pipe {
    Mutex mutex;
    CondVar cv;
    std::deque<std::uint8_t> data DCDB_GUARDED_BY(mutex);
    bool closed DCDB_GUARDED_BY(mutex){false};

    void push(std::span<const std::uint8_t> bytes) DCDB_EXCLUDES(mutex) {
        {
            MutexLock lock(mutex);
            if (closed) throw NetError("in-proc pipe closed");
            data.insert(data.end(), bytes.begin(), bytes.end());
        }
        cv.notify_one();
    }

    std::size_t pop(std::span<std::uint8_t> out) DCDB_EXCLUDES(mutex) {
        MutexLock lock(mutex);
        while (data.empty() && !closed) cv.wait(mutex);
        if (data.empty()) return 0;  // closed and drained
        const std::size_t n = std::min(out.size(), data.size());
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = data.front();
            data.pop_front();
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

bool PacketStream::fill() {
    std::uint8_t tmp[8192];
    const std::size_t n = transport_->recv(tmp);
    if (n == 0) return false;
    buf_.insert(buf_.end(), tmp, tmp + n);
    return true;
}

bool PacketStream::take_byte(std::uint8_t& out) {
    while (buf_.empty()) {
        if (!fill()) return false;
    }
    out = buf_.front();
    buf_.pop_front();
    return true;
}

std::optional<Packet> PacketStream::read_packet() {
    std::uint8_t first = 0;
    if (!take_byte(first)) return std::nullopt;

    // Remaining length: up to 4 bytes, 7 bits each (MQTT 3.1.1 §2.2.3).
    std::uint32_t remaining = 0;
    int shift = 0;
    while (true) {
        std::uint8_t b = 0;
        if (!take_byte(b)) throw ProtocolError("EOF in remaining length");
        remaining |= static_cast<std::uint32_t>(b & 0x7F) << shift;
        if (!(b & 0x80)) break;
        shift += 7;
        if (shift > 21) throw ProtocolError("remaining length too long");
    }
    if (remaining > kMaxRemainingLength)
        throw ProtocolError("packet too large");

    std::vector<std::uint8_t> body(remaining);
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (!take_byte(body[i])) throw ProtocolError("EOF in packet body");
    }
    return decode(first, body);
}

void PacketStream::write_packet(const Packet& p) {
    const auto bytes = encode(p);
    MutexLock lock(write_mutex_);
    transport_->send(bytes);
}

}  // namespace dcdb::mqtt
