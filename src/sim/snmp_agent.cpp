#include "sim/snmp_agent.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"

namespace dcdb::sim {

namespace {

// ----------------------------------------------------------- BER encode

constexpr std::uint8_t kTagInteger = 0x02;
constexpr std::uint8_t kTagOctetString = 0x04;
constexpr std::uint8_t kTagNull = 0x05;
constexpr std::uint8_t kTagOid = 0x06;
constexpr std::uint8_t kTagSequence = 0x30;

void ber_length(std::vector<std::uint8_t>& out, std::size_t len) {
    if (len < 0x80) {
        out.push_back(static_cast<std::uint8_t>(len));
        return;
    }
    std::vector<std::uint8_t> bytes;
    while (len > 0) {
        bytes.push_back(static_cast<std::uint8_t>(len & 0xFF));
        len >>= 8;
    }
    out.push_back(static_cast<std::uint8_t>(0x80 | bytes.size()));
    out.insert(out.end(), bytes.rbegin(), bytes.rend());
}

void ber_tlv(std::vector<std::uint8_t>& out, std::uint8_t tag,
             const std::vector<std::uint8_t>& content) {
    out.push_back(tag);
    ber_length(out, content.size());
    out.insert(out.end(), content.begin(), content.end());
}

std::vector<std::uint8_t> ber_integer(std::int64_t v) {
    // Two's-complement big-endian with minimal length.
    std::vector<std::uint8_t> bytes;
    bool more = true;
    while (more) {
        const auto b = static_cast<std::uint8_t>(v & 0xFF);
        v >>= 8;
        bytes.push_back(b);
        more = !((v == 0 && !(b & 0x80)) || (v == -1 && (b & 0x80)));
    }
    return {bytes.rbegin(), bytes.rend()};
}

std::vector<std::uint8_t> ber_oid(const Oid& oid) {
    if (oid.size() < 2) throw ProtocolError("OID needs >= 2 arcs");
    std::vector<std::uint8_t> out;
    out.push_back(static_cast<std::uint8_t>(oid[0] * 40 + oid[1]));
    for (std::size_t i = 2; i < oid.size(); ++i) {
        std::uint32_t arc = oid[i];
        std::vector<std::uint8_t> enc;
        enc.push_back(static_cast<std::uint8_t>(arc & 0x7F));
        arc >>= 7;
        while (arc > 0) {
            enc.push_back(static_cast<std::uint8_t>(0x80 | (arc & 0x7F)));
            arc >>= 7;
        }
        out.insert(out.end(), enc.rbegin(), enc.rend());
    }
    return out;
}

// ----------------------------------------------------------- BER decode

class BerReader {
  public:
    explicit BerReader(std::span<const std::uint8_t> data) : data_(data) {}

    bool empty() const { return pos_ >= data_.size(); }

    std::uint8_t peek_tag() const {
        need(1);
        return data_[pos_];
    }

    /// Read tag + length; returns a reader over the content.
    BerReader open(std::uint8_t expected_tag) {
        const std::uint8_t tag = read_u8();
        if (tag != expected_tag)
            throw ProtocolError("BER: expected tag " +
                                std::to_string(expected_tag) + ", got " +
                                std::to_string(tag));
        const std::size_t len = read_length();
        need(len);
        BerReader content(data_.subspan(pos_, len));
        pos_ += len;
        return content;
    }

    std::int64_t read_integer() {
        BerReader content = open(kTagInteger);
        if (content.data_.empty() || content.data_.size() > 8)
            throw ProtocolError("BER: bad integer length");
        std::int64_t v = (content.data_[0] & 0x80) ? -1 : 0;
        for (const auto b : content.data_) v = (v << 8) | b;
        return v;
    }

    std::string read_octet_string() {
        BerReader content = open(kTagOctetString);
        return {reinterpret_cast<const char*>(content.data_.data()),
                content.data_.size()};
    }

    Oid read_oid() {
        BerReader content = open(kTagOid);
        if (content.data_.empty()) throw ProtocolError("BER: empty OID");
        Oid oid;
        oid.push_back(content.data_[0] / 40);
        oid.push_back(content.data_[0] % 40);
        std::uint32_t arc = 0;
        for (std::size_t i = 1; i < content.data_.size(); ++i) {
            arc = (arc << 7) | (content.data_[i] & 0x7F);
            if (!(content.data_[i] & 0x80)) {
                oid.push_back(arc);
                arc = 0;
            }
        }
        return oid;
    }

    void read_null() { open(kTagNull); }

  private:
    void need(std::size_t n) const {
        if (pos_ + n > data_.size())
            throw ProtocolError("BER: truncated message");
    }
    std::uint8_t read_u8() {
        need(1);
        return data_[pos_++];
    }
    std::size_t read_length() {
        const std::uint8_t first = read_u8();
        if (!(first & 0x80)) return first;
        const std::size_t n = first & 0x7F;
        if (n == 0 || n > 4) throw ProtocolError("BER: bad length form");
        std::size_t len = 0;
        for (std::size_t i = 0; i < n; ++i) len = (len << 8) | read_u8();
        return len;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
};

std::vector<std::uint8_t> encode_varbinds(
    const std::vector<SnmpVarBind>& varbinds) {
    std::vector<std::uint8_t> list;
    for (const auto& vb : varbinds) {
        std::vector<std::uint8_t> entry;
        ber_tlv(entry, kTagOid, ber_oid(vb.oid));
        if (vb.is_null)
            ber_tlv(entry, kTagNull, {});
        else
            ber_tlv(entry, kTagInteger, ber_integer(vb.value));
        ber_tlv(list, kTagSequence, entry);
    }
    std::vector<std::uint8_t> out;
    ber_tlv(out, kTagSequence, list);
    return out;
}

}  // namespace

Oid parse_oid(const std::string& dotted) {
    Oid oid;
    for (const auto& part : split_nonempty(dotted, '.')) {
        const auto v = parse_u64(part);
        if (!v) throw Error("bad OID: " + dotted);
        oid.push_back(static_cast<std::uint32_t>(*v));
    }
    if (oid.size() < 2) throw Error("OID needs >= 2 arcs: " + dotted);
    return oid;
}

std::string oid_to_string(const Oid& oid) {
    std::string out;
    for (std::size_t i = 0; i < oid.size(); ++i) {
        if (i) out.push_back('.');
        out += std::to_string(oid[i]);
    }
    return out;
}

std::vector<std::uint8_t> snmp_encode(const SnmpMessage& msg) {
    std::vector<std::uint8_t> pdu;
    ber_tlv(pdu, kTagInteger, ber_integer(msg.request_id));
    ber_tlv(pdu, kTagInteger, ber_integer(msg.error_status));
    ber_tlv(pdu, kTagInteger, ber_integer(msg.error_index));
    {
        const auto vbs = encode_varbinds(msg.varbinds);
        pdu.insert(pdu.end(), vbs.begin(), vbs.end());
    }

    std::vector<std::uint8_t> body;
    ber_tlv(body, kTagInteger, ber_integer(msg.version));
    ber_tlv(body, kTagOctetString,
            std::vector<std::uint8_t>(msg.community.begin(),
                                      msg.community.end()));
    ber_tlv(body, msg.pdu_type, pdu);

    std::vector<std::uint8_t> out;
    ber_tlv(out, kTagSequence, body);
    return out;
}

SnmpMessage snmp_decode(std::span<const std::uint8_t> data) {
    BerReader top(data);
    BerReader body = top.open(kTagSequence);

    SnmpMessage msg;
    msg.version = body.read_integer();
    msg.community = body.read_octet_string();
    msg.pdu_type = body.peek_tag();
    if (msg.pdu_type != 0xA0 && msg.pdu_type != 0xA2)
        throw ProtocolError("unsupported SNMP PDU type " +
                            std::to_string(msg.pdu_type));
    BerReader pdu = body.open(msg.pdu_type);
    msg.request_id = pdu.read_integer();
    msg.error_status = pdu.read_integer();
    msg.error_index = pdu.read_integer();

    BerReader list = pdu.open(kTagSequence);
    while (!list.empty()) {
        BerReader entry = list.open(kTagSequence);
        SnmpVarBind vb;
        vb.oid = entry.read_oid();
        if (entry.peek_tag() == kTagNull) {
            entry.read_null();
            vb.is_null = true;
        } else {
            vb.value = entry.read_integer();
            vb.is_null = false;
        }
        msg.varbinds.push_back(std::move(vb));
    }
    return msg;
}

SnmpAgentSim::SnmpAgentSim(std::string community)
    : community_(std::move(community)), socket_(0) {
    thread_ = std::thread([this] { serve_loop(); });
}

SnmpAgentSim::~SnmpAgentSim() { stop(); }

void SnmpAgentSim::stop() {
    if (stopping_.exchange(true)) return;
    if (thread_.joinable()) thread_.join();
    socket_.close();
}

void SnmpAgentSim::register_oid(const std::string& dotted,
                                std::function<std::int64_t()> getter) {
    std::scoped_lock lock(mutex_);
    registry_[parse_oid(dotted)] = std::move(getter);
}

void SnmpAgentSim::serve_loop() {
    std::vector<std::uint8_t> buf;
    while (!stopping_.load(std::memory_order_relaxed)) {
        const auto from = socket_.recv_from(buf, 100);
        if (!from) continue;
        try {
            SnmpMessage req = snmp_decode(buf);
            SnmpMessage resp = req;
            resp.pdu_type = 0xA2;  // Response
            if (req.community != community_) {
                resp.error_status = 16;  // authorizationError
            } else {
                std::scoped_lock lock(mutex_);
                for (std::size_t i = 0; i < resp.varbinds.size(); ++i) {
                    auto& vb = resp.varbinds[i];
                    const auto it = registry_.find(vb.oid);
                    if (it == registry_.end()) {
                        resp.error_status = 2;  // noSuchName
                        resp.error_index = static_cast<std::int64_t>(i + 1);
                        break;
                    }
                    vb.value = it->second();
                    vb.is_null = false;
                }
            }
            const auto out = snmp_encode(resp);
            // Count before replying: a client that got its answer must
            // already see the request in requests_served().
            served_.fetch_add(1, std::memory_order_relaxed);
            socket_.send_to(out, *from);
        } catch (const std::exception& e) {
            DCDB_DEBUG("snmp-sim") << "dropped malformed request: "
                                   << e.what();
        }
    }
}

std::optional<std::vector<std::int64_t>> snmp_get(
    std::uint16_t agent_port, const std::string& community,
    const std::vector<std::string>& oids, int timeout_ms) {
    // dcdblint: allow-atomic(protocol request-id sequence, not a stat)
    static std::atomic<std::int64_t> request_seq{1};

    SnmpMessage req;
    req.community = community;
    req.pdu_type = 0xA0;
    req.request_id = request_seq.fetch_add(1);
    for (const auto& dotted : oids) {
        SnmpVarBind vb;
        vb.oid = parse_oid(dotted);
        req.varbinds.push_back(std::move(vb));
    }

    UdpSocket sock(0);
    sock.send_to(snmp_encode(req), agent_port);

    std::vector<std::uint8_t> buf;
    const auto from = sock.recv_from(buf, timeout_ms);
    if (!from) return std::nullopt;
    try {
        const SnmpMessage resp = snmp_decode(buf);
        if (resp.request_id != req.request_id || resp.error_status != 0)
            return std::nullopt;
        std::vector<std::int64_t> values;
        values.reserve(resp.varbinds.size());
        for (const auto& vb : resp.varbinds) {
            if (vb.is_null) return std::nullopt;
            values.push_back(vb.value);
        }
        return values;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

}  // namespace dcdb::sim
