#include "mqtt/packet.hpp"

#include <cstring>

#include "mqtt/topic.hpp"

namespace dcdb::mqtt {

namespace {

constexpr std::uint8_t kConnectFlagCleanSession = 0x02;

/// Largest remaining length the 4-byte MQTT varint can express.
constexpr std::size_t kMaxFrameRemaining = 0x0FFFFFFF;

/// Wire size of an MQTT UTF-8 string (u16 length + bytes).
std::size_t str_bytes(std::string_view s) {
    if (s.size() > 0xFFFF) throw ProtocolError("string too long");
    return 2 + s.size();
}

/// Writes one frame into a reused buffer: the fixed header comes from
/// the remaining length the caller computed, and the body is then stored
/// in place. The caller writes exactly `remaining` body bytes.
class FrameWriter {
  public:
    FrameWriter(std::vector<std::uint8_t>& out, std::uint8_t first_byte,
                std::size_t remaining) {
        if (remaining > kMaxFrameRemaining)
            throw ProtocolError("packet too large to frame");
        std::size_t length_bytes = 1;
        for (std::size_t v = remaining >> 7; v != 0; v >>= 7) ++length_bytes;
        // No clear(): resize only zero-fills growth, and every byte of
        // the frame is overwritten below.
        out.resize(1 + length_bytes + remaining);
        p_ = out.data();
        *p_++ = first_byte;
        std::size_t v = remaining;
        do {  // remaining length: 7 bits per byte (MQTT 3.1.1 §2.2.3)
            std::uint8_t b = v & 0x7F;
            v >>= 7;
            if (v != 0) b |= 0x80;
            *p_++ = b;
        } while (v != 0);
    }

    void u8(std::uint8_t v) { *p_++ = v; }
    void u16be(std::uint16_t v) {
        store_be16(p_, v);
        p_ += 2;
    }
    void bytes(const void* data, std::size_t n) {
        if (n != 0) std::memcpy(p_, data, n);
        p_ += n;
    }
    /// Length already checked by str_bytes() when sizing the frame.
    void mqtt_str(std::string_view s) {
        u16be(static_cast<std::uint16_t>(s.size()));
        bytes(s.data(), s.size());
    }

  private:
    std::uint8_t* p_{nullptr};
};

}  // namespace

PacketType packet_type(const Packet& p) {
    struct Visitor {
        PacketType operator()(const Connect&) { return PacketType::kConnect; }
        PacketType operator()(const Connack&) { return PacketType::kConnack; }
        PacketType operator()(const Publish&) { return PacketType::kPublish; }
        PacketType operator()(const Puback&) { return PacketType::kPuback; }
        PacketType operator()(const Subscribe&) {
            return PacketType::kSubscribe;
        }
        PacketType operator()(const Suback&) { return PacketType::kSuback; }
        PacketType operator()(const Unsubscribe&) {
            return PacketType::kUnsubscribe;
        }
        PacketType operator()(const Unsuback&) {
            return PacketType::kUnsuback;
        }
        PacketType operator()(const Pingreq&) { return PacketType::kPingreq; }
        PacketType operator()(const Pingresp&) {
            return PacketType::kPingresp;
        }
        PacketType operator()(const Disconnect&) {
            return PacketType::kDisconnect;
        }
    };
    return std::visit(Visitor{}, p);
}

void encode_publish(std::string_view topic,
                    std::span<const std::uint8_t> payload, std::uint8_t qos,
                    std::uint16_t packet_id, std::vector<std::uint8_t>& out,
                    bool dup, bool retain) {
    if (qos > 2) throw ProtocolError("invalid qos");
    const std::uint8_t flags = static_cast<std::uint8_t>(
        (dup ? 0x08 : 0) | (qos << 1) | (retain ? 1 : 0));
    FrameWriter w(out, 0x30 | flags,
                  str_bytes(topic) + (qos > 0 ? 2 : 0) + payload.size());
    w.mqtt_str(topic);
    if (qos > 0) w.u16be(packet_id);
    w.bytes(payload.data(), payload.size());
}

void encode(const Packet& p, std::vector<std::uint8_t>& out) {
    struct Visitor {
        std::vector<std::uint8_t>& out;

        void operator()(const Connect& c) {
            FrameWriter w(out, 0x10,
                          str_bytes("MQTT") + 1 + 1 + 2 +
                              str_bytes(c.client_id));
            w.mqtt_str("MQTT");
            w.u8(4);  // protocol level 3.1.1
            w.u8(c.clean_session ? kConnectFlagCleanSession : 0);
            w.u16be(c.keepalive_s);
            w.mqtt_str(c.client_id);
        }
        void operator()(const Connack& c) {
            FrameWriter w(out, 0x20, 2);
            w.u8(c.session_present ? 1 : 0);
            w.u8(c.return_code);
        }
        void operator()(const Publish& p) {
            encode_publish(p.topic, p.payload, p.qos, p.packet_id, out,
                           p.dup, p.retain);
        }
        void operator()(const Puback& a) {
            FrameWriter w(out, 0x40, 2);
            w.u16be(a.packet_id);
        }
        void operator()(const Subscribe& s) {
            std::size_t remaining = 2;
            for (const auto& [filter, qos] : s.filters)
                remaining += str_bytes(filter) + 1;
            FrameWriter w(out, 0x82, remaining);  // reserved flags 0010
            w.u16be(s.packet_id);
            for (const auto& [filter, qos] : s.filters) {
                w.mqtt_str(filter);
                w.u8(qos);
            }
        }
        void operator()(const Suback& s) {
            FrameWriter w(out, 0x90, 2 + s.return_codes.size());
            w.u16be(s.packet_id);
            w.bytes(s.return_codes.data(), s.return_codes.size());
        }
        void operator()(const Unsubscribe& u) {
            std::size_t remaining = 2;
            for (const auto& filter : u.filters) remaining += str_bytes(filter);
            FrameWriter w(out, 0xA2, remaining);
            w.u16be(u.packet_id);
            for (const auto& filter : u.filters) w.mqtt_str(filter);
        }
        void operator()(const Unsuback& u) {
            FrameWriter w(out, 0xB0, 2);
            w.u16be(u.packet_id);
        }
        // Fixed header only.
        void operator()(const Pingreq&) { FrameWriter(out, 0xC0, 0); }
        void operator()(const Pingresp&) { FrameWriter(out, 0xD0, 0); }
        void operator()(const Disconnect&) { FrameWriter(out, 0xE0, 0); }
    };
    std::visit(Visitor{out}, p);
}

std::vector<std::uint8_t> encode(const Packet& p) {
    std::vector<std::uint8_t> out;
    encode(p, out);
    return out;
}

void decode(std::uint8_t first_byte, std::span<const std::uint8_t> body,
            Packet& out) {
    const auto type = static_cast<PacketType>(first_byte >> 4);
    const std::uint8_t flags = first_byte & 0x0F;
    ByteReader r(body);

    switch (type) {
        case PacketType::kConnect: {
            const std::string proto = r.mqtt_str();
            if (proto != "MQTT" && proto != "MQIsdp")
                throw ProtocolError("bad protocol name: " + proto);
            const std::uint8_t level = r.u8();
            if (level != 4 && level != 3)
                throw ProtocolError("unsupported protocol level");
            const std::uint8_t connect_flags = r.u8();
            Connect c;
            c.clean_session = connect_flags & kConnectFlagCleanSession;
            c.keepalive_s = r.u16be();
            c.client_id = r.mqtt_str();
            out = std::move(c);
            return;
        }
        case PacketType::kConnack: {
            Connack c;
            c.session_present = r.u8() & 1;
            c.return_code = r.u8();
            out = c;
            return;
        }
        case PacketType::kPublish: {
            Publish* p = std::get_if<Publish>(&out);
            if (p == nullptr) p = &out.emplace<Publish>();
            p->dup = flags & 0x08;
            p->qos = (flags >> 1) & 0x03;
            p->retain = flags & 0x01;
            if (p->qos > 2) throw ProtocolError("invalid qos in publish");
            const auto topic = r.bytes(r.u16be());
            p->topic.assign(reinterpret_cast<const char*>(topic.data()),
                            topic.size());
            if (!topic_valid(p->topic))
                throw ProtocolError("invalid publish topic: " + p->topic);
            p->packet_id = p->qos > 0 ? r.u16be() : 0;
            const auto rest = r.bytes(r.remaining());
            p->payload.assign(rest.begin(), rest.end());
            return;
        }
        case PacketType::kPuback:
            out = Puback{r.u16be()};
            return;
        case PacketType::kSubscribe: {
            if (flags != 0x02)
                throw ProtocolError("bad subscribe flags");
            Subscribe s;
            s.packet_id = r.u16be();
            while (!r.empty()) {
                std::string filter = r.mqtt_str();
                const std::uint8_t qos = r.u8();
                if (!filter_valid(filter))
                    throw ProtocolError("invalid filter: " + filter);
                s.filters.emplace_back(std::move(filter), qos);
            }
            if (s.filters.empty())
                throw ProtocolError("subscribe without filters");
            out = std::move(s);
            return;
        }
        case PacketType::kSuback: {
            Suback s;
            s.packet_id = r.u16be();
            while (!r.empty()) s.return_codes.push_back(r.u8());
            out = std::move(s);
            return;
        }
        case PacketType::kUnsubscribe: {
            if (flags != 0x02) throw ProtocolError("bad unsubscribe flags");
            Unsubscribe u;
            u.packet_id = r.u16be();
            while (!r.empty()) u.filters.push_back(r.mqtt_str());
            out = std::move(u);
            return;
        }
        case PacketType::kUnsuback:
            out = Unsuback{r.u16be()};
            return;
        case PacketType::kPingreq:
            out = Pingreq{};
            return;
        case PacketType::kPingresp:
            out = Pingresp{};
            return;
        case PacketType::kDisconnect:
            out = Disconnect{};
            return;
        default:
            throw ProtocolError("unknown packet type " +
                                std::to_string(first_byte >> 4));
    }
}

Packet decode(std::uint8_t first_byte, std::span<const std::uint8_t> body) {
    Packet out;
    decode(first_byte, body, out);
    return out;
}

}  // namespace dcdb::mqtt
