#include "core/payload.hpp"

#include <algorithm>
#include <cstring>

#include "common/bytebuf.hpp"

namespace dcdb {

std::vector<std::uint8_t> encode_readings(std::span<const Reading> readings) {
    ByteWriter w(readings.size() * kReadingWireBytes);
    for (const auto& r : readings) {
        w.u64be(r.ts);
        w.i64be(r.value);
    }
    return w.take();
}

std::vector<Reading> decode_readings(std::span<const std::uint8_t> payload) {
    if (payload.size() % kReadingWireBytes != 0)
        throw ProtocolError("reading payload size not a multiple of 16");
    std::vector<Reading> out;
    out.reserve(payload.size() / kReadingWireBytes);
    ByteReader r(payload);
    while (!r.empty()) {
        Reading reading;
        reading.ts = r.u64be();
        reading.value = r.i64be();
        out.push_back(reading);
    }
    return out;
}

SalvagedReadings decode_readings_view(
    std::span<const std::uint8_t> payload) noexcept {
    SalvagedReadings out;
    const std::size_t count = payload.size() / kReadingWireBytes;
    out.readings = ReadingsView(
        payload.first(count * kReadingWireBytes), count);
    out.torn_bytes = payload.size() - count * kReadingWireBytes;
    return out;
}

bool is_batch_payload(std::span<const std::uint8_t> payload) noexcept {
    return payload.size() >= kBatchHeaderBytes &&
           payload[0] == kBatchPayloadMagic &&
           payload[1] == kBatchPayloadVersion;
}

void encode_batch(std::span<const SensorBatch> batches,
                  const telemetry::trace::TraceContext& trace,
                  std::vector<std::uint8_t>& out) {
    if (batches.size() > 0xFFFF)
        throw ProtocolError("batch payload: too many sections");
    std::size_t size = kBatchHeaderBytes;
    for (const auto& b : batches) {
        if (b.topic.size() > 0xFFFF) throw ProtocolError("string too long");
        size += 2 + b.topic.size() + 4 + b.readings.size() * kReadingWireBytes;
    }
    if (trace.valid()) size += telemetry::trace::kTrailerBytes;

    // No clear(): resize only zero-fills growth, and every byte below is
    // overwritten.
    out.resize(size);
    std::uint8_t* p = out.data();
    *p++ = kBatchPayloadMagic;
    *p++ = kBatchPayloadVersion;
    store_be16(p, static_cast<std::uint16_t>(batches.size()));
    p += 2;
    for (const auto& b : batches) {
        store_be16(p, static_cast<std::uint16_t>(b.topic.size()));
        if (!b.topic.empty())
            std::memcpy(p + 2, b.topic.data(), b.topic.size());
        p += 2 + b.topic.size();
        store_be32(p, static_cast<std::uint32_t>(b.readings.size()));
        p += 4;
        for (const auto& r : b.readings) {
            store_be64(p, r.ts);
            store_be64(p + 8, static_cast<std::uint64_t>(r.value));
            p += kReadingWireBytes;
        }
    }
    if (trace.valid()) telemetry::trace::store_trailer(p, trace);
}

std::vector<std::uint8_t> encode_batch(
    std::span<const SensorBatch> batches,
    const telemetry::trace::TraceContext& trace) {
    std::vector<std::uint8_t> payload;
    encode_batch(batches, trace, payload);
    return payload;
}

void decode_batch(std::span<const std::uint8_t> payload,
                  BatchPayloadView& out) {
    out.sections.clear();
    out.total_readings = 0;
    out.torn_bytes = 0;
    out.trace = {};
    if (!is_batch_payload(payload))
        throw ProtocolError("not a v1 batch payload");
    const std::uint16_t n_sections =
        static_cast<std::uint16_t>((payload[2] << 8) | payload[3]);

    std::size_t pos = kBatchHeaderBytes;
    bool complete = true;
    for (std::uint16_t s = 0; s < n_sections; ++s) {
        // Section header: u16 topic length + topic + u32 reading count.
        // A payload cut anywhere in here loses only the unreadable tail.
        if (payload.size() - pos < 2) {
            complete = false;
            break;
        }
        const std::size_t topic_len =
            static_cast<std::size_t>((payload[pos] << 8) | payload[pos + 1]);
        if (payload.size() - pos < 2 + topic_len + 4) {
            complete = false;
            break;
        }
        const std::string_view topic(
            reinterpret_cast<const char*>(payload.data() + pos + 2),
            topic_len);
        pos += 2 + topic_len;
        std::uint32_t count = 0;
        for (int b = 0; b < 4; ++b) count = (count << 8) | payload[pos + b];
        pos += 4;

        const std::size_t declared = count * kReadingWireBytes;
        const std::size_t avail = payload.size() - pos;
        const std::size_t take = std::min<std::size_t>(declared, avail);
        const std::size_t whole = take / kReadingWireBytes;
        if (whole > 0 || take == declared) {
            SensorSectionView section;
            section.topic = topic;
            section.readings = ReadingsView(
                payload.subspan(pos, whole * kReadingWireBytes), whole);
            out.total_readings += whole;
            out.sections.push_back(section);
        }
        if (take < declared) {  // truncated mid-section: stop here
            pos += whole * kReadingWireBytes;
            complete = false;
            break;
        }
        pos += declared;
    }
    // Trace trailer: accepted only from an intact payload with exactly
    // the trailer bytes left over. A torn payload never reaches here
    // with complete == true, so salvaged rows can never be attributed
    // to a trace whose trailer happens to survive in the garbage tail.
    if (complete && payload.size() - pos == telemetry::trace::kTrailerBytes) {
        const auto ctx = telemetry::trace::decode_trailer(
            payload.subspan(pos, telemetry::trace::kTrailerBytes));
        if (ctx.valid()) {
            out.trace = ctx;
            pos += telemetry::trace::kTrailerBytes;
        }
    }
    out.torn_bytes = payload.size() - pos;
}

}  // namespace dcdb
