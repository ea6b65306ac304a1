// MQTT 3.1.1 control-packet codec.
//
// DCDB transmits every sensor reading as an MQTT PUBLISH from a Pusher to
// its Collect Agent (paper, Section 3.1). This is a from-scratch
// implementation of the wire format defined in the OASIS MQTT 3.1.1
// standard: fixed header (packet type + flags), variable-length
// "remaining length", and the per-type variable headers and payloads for
// the subset DCDB needs (CONNECT/CONNACK, PUBLISH/PUBACK,
// SUBSCRIBE/SUBACK, UNSUBSCRIBE/UNSUBACK, PINGREQ/PINGRESP, DISCONNECT).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytebuf.hpp"

namespace dcdb::mqtt {

enum class PacketType : std::uint8_t {
    kConnect = 1,
    kConnack = 2,
    kPublish = 3,
    kPuback = 4,
    kSubscribe = 8,
    kSuback = 9,
    kUnsubscribe = 10,
    kUnsuback = 11,
    kPingreq = 12,
    kPingresp = 13,
    kDisconnect = 14,
};

struct Connect {
    std::string client_id;
    std::uint16_t keepalive_s{60};
    bool clean_session{true};
};

struct Connack {
    std::uint8_t return_code{0};  // 0 = accepted
    bool session_present{false};
};

struct Publish {
    std::string topic;
    std::vector<std::uint8_t> payload;
    std::uint16_t packet_id{0};  // only meaningful for qos > 0
    std::uint8_t qos{0};
    bool retain{false};
    bool dup{false};
};

struct Puback {
    std::uint16_t packet_id{0};
};

struct Subscribe {
    std::uint16_t packet_id{0};
    std::vector<std::pair<std::string, std::uint8_t>> filters;  // filter, qos
};

struct Suback {
    std::uint16_t packet_id{0};
    std::vector<std::uint8_t> return_codes;  // 0x00/0x01/0x02 or 0x80
};

struct Unsubscribe {
    std::uint16_t packet_id{0};
    std::vector<std::string> filters;
};

struct Unsuback {
    std::uint16_t packet_id{0};
};

struct Pingreq {};
struct Pingresp {};
struct Disconnect {};

using Packet = std::variant<Connect, Connack, Publish, Puback, Subscribe,
                            Suback, Unsubscribe, Unsuback, Pingreq, Pingresp,
                            Disconnect>;

PacketType packet_type(const Packet& p);

/// Encode a packet to its full wire representation (fixed header
/// included) into `out`, replacing its contents. Every frame is sized
/// first and then filled in place, so a reused `out` allocates nothing
/// once it has grown to the largest frame.
void encode(const Packet& p, std::vector<std::uint8_t>& out);

/// Frame a PUBLISH straight from its parts into `out`, replacing its
/// contents: the payload is copied once, into the frame. Produces the
/// same bytes as encoding the equivalent Publish.
void encode_publish(std::string_view topic,
                    std::span<const std::uint8_t> payload, std::uint8_t qos,
                    std::uint16_t packet_id, std::vector<std::uint8_t>& out,
                    bool dup = false, bool retain = false);

/// As above, into a fresh buffer.
std::vector<std::uint8_t> encode(const Packet& p);

/// Decode one packet from `first_byte` (the fixed-header byte already read
/// off the wire) and `body` (exactly remaining-length bytes) into `out`.
/// A PUBLISH decoded into an `out` that already holds a Publish reuses
/// its topic and payload storage. Throws ProtocolError on violations.
void decode(std::uint8_t first_byte, std::span<const std::uint8_t> body,
            Packet& out);

/// As above, into a fresh packet.
Packet decode(std::uint8_t first_byte, std::span<const std::uint8_t> body);

}  // namespace dcdb::mqtt
