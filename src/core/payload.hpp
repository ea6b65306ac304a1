// MQTT payload formats for sensor readings.
//
// v0 (the original DCDB wire format): one PUBLISH per sensor carrying a
// flat array of (timestamp, value) records, 16 bytes big-endian each.
//
// v1 (batch format): one PUBLISH per *read group*, coalescing every
// sensor the group drained into length-prefixed per-sensor sections:
//
//   [header]   u8 magic 0xDB, u8 version 1, u16 section count
//   [section]  u16 topic length, topic bytes,
//              u32 reading count, count x 16-byte v0 records
//   [trailer]  OPTIONAL 19-byte trace-context trailer (telemetry/
//              trace.hpp): u8 magic 0xDC, u8 version, u64 trace id,
//              u64 origin ns, u8 flags. Version-negotiated by length:
//              a decoder only accepts the trailer when every declared
//              section decoded completely AND exactly 19 matching bytes
//              remain, so v0 peers and trailer-unaware v1 decoders see
//              at worst 19 torn trailing bytes — never a bogus reading
//              (19 is not a multiple of the 16-byte record size) and
//              never a lost one.
//
// A v0 payload can never alias the v1 header: its first byte is the
// most-significant byte of a nanosecond timestamp, and 0xDB there means
// a date past the year 2400. Decoders therefore dispatch on the magic
// and old single-sensor payloads keep decoding unchanged.
//
// Decoding is zero-copy: the *View types below are spans into the
// payload buffer and materialize Reading values on access, so the
// collect agent's hot path performs no per-reading allocation. The view
// decoders also never throw on a torn tail — they expose the valid
// record-aligned prefix plus the count of torn trailing bytes, letting
// the caller salvage everything that survived (a single corrupt trailing
// record must not discard a whole batch).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytebuf.hpp"
#include "common/types.hpp"
#include "telemetry/trace.hpp"

namespace dcdb {

inline constexpr std::size_t kReadingWireBytes = 16;
inline constexpr std::uint8_t kBatchPayloadMagic = 0xDB;
inline constexpr std::uint8_t kBatchPayloadVersion = 1;
inline constexpr std::size_t kBatchHeaderBytes = 4;

/// Serialize readings into a v0 MQTT payload.
std::vector<std::uint8_t> encode_readings(std::span<const Reading> readings);

inline std::vector<std::uint8_t> encode_readings(
    std::initializer_list<Reading> readings) {
    return encode_readings(
        std::span<const Reading>(readings.begin(), readings.size()));
}

/// Parse a v0 MQTT payload back into readings. Throws ProtocolError if
/// the payload size is not a multiple of the record size.
std::vector<Reading> decode_readings(std::span<const std::uint8_t> payload);

/// Zero-copy window over a run of 16-byte v0 reading records.
/// Materializes each Reading on access; owns nothing.
class ReadingsView {
  public:
    ReadingsView() = default;
    ReadingsView(std::span<const std::uint8_t> records, std::size_t count)
        : records_(records), count_(count) {}

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    Reading operator[](std::size_t i) const {
        const std::uint8_t* p = records_.data() + i * kReadingWireBytes;
        return Reading{load_be64(p), static_cast<Value>(load_be64(p + 8))};
    }

  private:
    std::span<const std::uint8_t> records_;
    std::size_t count_{0};
};

/// Non-throwing v0 decode: the valid 16-byte-aligned prefix as a view,
/// plus how many torn trailing bytes were cut off.
struct SalvagedReadings {
    ReadingsView readings;
    std::size_t torn_bytes{0};
};
SalvagedReadings decode_readings_view(
    std::span<const std::uint8_t> payload) noexcept;

/// One sensor's slice of a v1 batch payload (span-backed, zero-copy).
struct SensorSectionView {
    std::string_view topic;
    ReadingsView readings;
};

/// Decoded v1 batch payload. `sections` holds complete sections;
/// `torn_bytes` counts trailing bytes lost to truncation mid-section
/// (the record-aligned prefix of a torn section is salvaged into its
/// own final section). The view borrows the payload buffer; it must not
/// outlive it.
struct BatchPayloadView {
    std::vector<SensorSectionView> sections;
    std::size_t total_readings{0};
    std::size_t torn_bytes{0};
    /// Trace context from the optional trailer; invalid (trace_id 0)
    /// when the payload carries none. Never populated from a torn
    /// payload — a salvaged batch must not claim another batch's trace.
    telemetry::trace::TraceContext trace;
};

/// True when `payload` carries the v1 batch header.
bool is_batch_payload(std::span<const std::uint8_t> payload) noexcept;

/// One sensor's contribution to an outgoing batch.
struct SensorBatch {
    std::string_view topic;
    std::span<const Reading> readings;
};

/// Serialize a v1 multi-sensor batch payload into `out`, replacing its
/// contents, plus the trace-context trailer when `trace` is valid. One
/// pass sizes the payload and a second stores it in place, so a reused
/// `out` allocates nothing once it has grown. Throws ProtocolError when
/// a topic exceeds 64 KiB or more than 65535 sections are given.
void encode_batch(std::span<const SensorBatch> batches,
                  const telemetry::trace::TraceContext& trace,
                  std::vector<std::uint8_t>& out);

/// As above, into a fresh buffer (an invalid `trace` adds no trailer).
std::vector<std::uint8_t> encode_batch(
    std::span<const SensorBatch> batches,
    const telemetry::trace::TraceContext& trace = {});

/// Decode a v1 batch payload into `out` (reusing its section storage —
/// steady-state decoding allocates nothing). Throws ProtocolError when
/// the header is malformed; a payload truncated mid-section does NOT
/// throw: complete sections plus the salvageable prefix of the torn one
/// are returned and the remainder is reported via `out.torn_bytes`.
void decode_batch(std::span<const std::uint8_t> payload,
                  BatchPayloadView& out);

}  // namespace dcdb
