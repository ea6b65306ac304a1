// Byte-buffer reader/writer for wire codecs (MQTT, SNMP-BER, IPMI, store
// files). Big-endian ("network order") primitives as required by MQTT.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace dcdb {

// Direct big-endian stores for encoders that size their output first and
// then fill it in place (one pass, no per-byte push_back).
inline void store_be16(std::uint8_t* p, std::uint16_t v) {
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
    if constexpr (std::endian::native == std::endian::little)
        v = __builtin_bswap32(v);
    std::memcpy(p, &v, sizeof v);
}
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little)
        v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof v);
}
inline std::uint64_t load_be64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::little)
        v = __builtin_bswap64(v);
    return v;
}

/// Scratch buffers reused across messages keep up to this much capacity.
/// One grown past it by a one-off large message (a preload burst, a
/// backlog drain) is given back after use, so the peak is not pinned for
/// the life of a session.
inline constexpr std::size_t kScratchKeepBytes = 256u << 10;

template <typename T>
void trim_scratch(std::vector<T>& buf) {
    if (buf.capacity() * sizeof(T) > kScratchKeepBytes)
        std::vector<T>().swap(buf);
}

class ByteWriter {
  public:
    ByteWriter() = default;
    explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16be(std::uint16_t v) {
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
        buf_.push_back(static_cast<std::uint8_t>(v));
    }
    void u32be(std::uint32_t v) {
        for (int shift = 24; shift >= 0; shift -= 8)
            buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
    void u64be(std::uint64_t v) {
        for (int shift = 56; shift >= 0; shift -= 8)
            buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
    void i64be(std::int64_t v) { u64be(static_cast<std::uint64_t>(v)); }
    void bytes(std::span<const std::uint8_t> data) {
        buf_.insert(buf_.end(), data.begin(), data.end());
    }
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const std::uint8_t*>(data);
        buf_.insert(buf_.end(), p, p + n);
    }
    void str(std::string_view s) { bytes(s.data(), s.size()); }
    /// MQTT UTF-8 string: 2-byte big-endian length + bytes.
    void mqtt_str(std::string_view s) {
        if (s.size() > 0xFFFF) throw ProtocolError("string too long");
        u16be(static_cast<std::uint16_t>(s.size()));
        str(s);
    }
    /// MQTT variable-length "remaining length" (7 bits per byte).
    void varint(std::uint32_t v) {
        do {
            std::uint8_t b = v & 0x7F;
            v >>= 7;
            if (v) b |= 0x80;
            buf_.push_back(b);
        } while (v);
    }

    const std::vector<std::uint8_t>& data() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

class ByteReader {
  public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::size_t remaining() const { return data_.size() - pos_; }
    bool empty() const { return remaining() == 0; }
    std::size_t pos() const { return pos_; }

    std::uint8_t u8() {
        need(1);
        return data_[pos_++];
    }
    std::uint16_t u16be() {
        need(2);
        const std::uint16_t v = static_cast<std::uint16_t>(
            (data_[pos_] << 8) | data_[pos_ + 1]);
        pos_ += 2;
        return v;
    }
    std::uint32_t u32be() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_++];
        return v;
    }
    std::uint64_t u64be() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_++];
        return v;
    }
    std::int64_t i64be() { return static_cast<std::int64_t>(u64be()); }
    std::span<const std::uint8_t> bytes(std::size_t n) {
        need(n);
        auto out = data_.subspan(pos_, n);
        pos_ += n;
        return out;
    }
    std::string str(std::size_t n) {
        auto b = bytes(n);
        return std::string(reinterpret_cast<const char*>(b.data()), b.size());
    }
    std::string mqtt_str() { return str(u16be()); }
    std::uint32_t varint() {
        std::uint32_t v = 0;
        int shift = 0;
        while (true) {
            const std::uint8_t b = u8();
            v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
            if (!(b & 0x80)) return v;
            shift += 7;
            if (shift > 21) throw ProtocolError("varint too long");
        }
    }

  private:
    void need(std::size_t n) const {
        if (remaining() < n) throw ProtocolError("buffer underrun");
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
};

}  // namespace dcdb
