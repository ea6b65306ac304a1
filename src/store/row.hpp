// Row format shared by memtable, commit log and SSTables.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace dcdb::store {

/// One clustered row: timestamp is the clustering key, value the payload,
/// expiry implements Cassandra-style per-write TTL (absolute UNIX seconds,
/// 0 = never expires).
struct Row {
    TimestampNs ts{0};
    Value value{0};
    std::uint32_t expiry_s{0};

    static constexpr std::size_t kBytes = 20;  // 8 + 8 + 4 serialized

    /// The expiry of a row written at `ts` with a TTL of `ttl_s` seconds
    /// (0 = never expires).
    static std::uint32_t expiry_at(TimestampNs ts, std::uint32_t ttl_s) {
        return ttl_s == 0
                   ? 0u
                   : static_cast<std::uint32_t>(ts / kNsPerSec + ttl_s);
    }

    bool expired(TimestampNs now) const {
        return expiry_s != 0 &&
               static_cast<TimestampNs>(expiry_s) * kNsPerSec <= now;
    }

    friend bool operator==(const Row&, const Row&) = default;
};

}  // namespace dcdb::store
