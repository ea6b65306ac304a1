// Partition keys for the wide-column store.
//
// Mirrors Cassandra's data model as used by DCDB (paper, Section 4.3): the
// partition key is the sensor's 128-bit SID plus a coarse time bucket (so
// a sensor's unbounded time series is split into bounded partitions, as
// the production schema does with day-granularity buckets); the clustering
// key within a partition is the reading timestamp.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "store/murmur.hpp"

namespace dcdb::store {

struct Key {
    std::array<std::uint8_t, 16> sid{};  // 128-bit sensor id
    std::uint32_t bucket{0};             // coarse time bucket

    // Not defaulted: the defaulted comparison calls libc's memcmp, while
    // this fixed-size equality test compiles inline. The memtable's
    // index compares a key on every probe.
    friend bool operator==(const Key& a, const Key& b) {
        return std::memcmp(a.sid.data(), b.sid.data(), a.sid.size()) == 0 &&
               a.bucket == b.bucket;
    }
    friend auto operator<=>(const Key& a, const Key& b) {
        const int c = std::memcmp(a.sid.data(), b.sid.data(), a.sid.size());
        if (c != 0) return c <=> 0;
        return a.bucket <=> b.bucket;
    }

    /// Serialized wire/file size.
    static constexpr std::size_t kBytes = 20;

    void serialize(std::uint8_t out[kBytes]) const {
        std::memcpy(out, sid.data(), 16);
        out[16] = static_cast<std::uint8_t>(bucket >> 24);
        out[17] = static_cast<std::uint8_t>(bucket >> 16);
        out[18] = static_cast<std::uint8_t>(bucket >> 8);
        out[19] = static_cast<std::uint8_t>(bucket);
    }
    static Key deserialize(const std::uint8_t in[kBytes]) {
        Key k;
        std::memcpy(k.sid.data(), in, 16);
        k.bucket = (static_cast<std::uint32_t>(in[16]) << 24) |
                   (static_cast<std::uint32_t>(in[17]) << 16) |
                   (static_cast<std::uint32_t>(in[18]) << 8) |
                   static_cast<std::uint32_t>(in[19]);
        return k;
    }
};

/// Hash for the memtable's index: the SID's two 64-bit words and the
/// bucket, folded word-wise through murmur3's fmix64 finalizer.
struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
        std::uint64_t hi = 0;
        std::uint64_t lo = 0;
        std::memcpy(&hi, k.sid.data(), 8);
        std::memcpy(&lo, k.sid.data() + 8, 8);
        return static_cast<std::size_t>(
            fmix64(hi ^ fmix64(lo + k.bucket * 0x9E3779B97F4A7C15ull)));
    }
};

}  // namespace dcdb::store
