// 128-bit hierarchical Sensor IDs (SIDs).
//
// "Upon retrieval of an MQTT message, a Collect Agent parses the topic of
// the message and translates it into a unique numerical Sensor ID (SID)
// that is used as the key to store a sensor's reading ... each topic is
// split into its hierarchical components and each such component is
// mapped to a numeric value that is stored in a particular bit field of
// the 128-bit SID" (paper, Section 4.2). The mapping is 1:1 and
// persistent, so SIDs are stable across restarts.
//
// Layout: 8 big-endian 16-bit fields, one per hierarchy level (topics
// have at most 8 levels). Component numbers are per-level dictionary ids
// starting at 1; 0 marks an unused level. Because the topmost levels
// occupy the most significant bytes, a byte-prefix of the SID selects a
// sub-tree of the hierarchy — which is exactly what the hierarchy-aware
// store partitioner keys on.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/string_utils.hpp"
#include "common/types.hpp"
#include "core/topic_table.hpp"
#include "store/key.hpp"
#include "store/metastore.hpp"

namespace dcdb {

inline constexpr std::size_t kSidLevels = 8;

struct SensorId {
    std::array<std::uint8_t, 16> bytes{};

    std::uint16_t level(std::size_t i) const {
        return static_cast<std::uint16_t>((bytes[2 * i] << 8) |
                                          bytes[2 * i + 1]);
    }
    void set_level(std::size_t i, std::uint16_t v) {
        bytes[2 * i] = static_cast<std::uint8_t>(v >> 8);
        bytes[2 * i + 1] = static_cast<std::uint8_t>(v);
    }

    std::string hex() const;

    friend bool operator==(const SensorId&, const SensorId&) = default;
};

/// Width of one store partition in time: a sensor's series is split into
/// day-sized buckets, as in DCDB's production Cassandra schema.
inline constexpr TimestampNs kBucketWidthNs = 24ull * 3600 * kNsPerSec;

inline std::uint32_t time_bucket(TimestampNs ts) {
    return static_cast<std::uint32_t>(ts / kBucketWidthNs);
}

/// Partition key for a reading of `sid` at time `ts`.
inline store::Key sensor_key(const SensorId& sid, TimestampNs ts) {
    store::Key k;
    k.sid = sid.bytes;
    k.bucket = time_bucket(ts);
    return k;
}

namespace store {
class StoreCluster;
}
class TopicMapper;

/// Every stored reading of `topic` in [t0, t1], oldest first, read from
/// `cluster` one day bucket at a time. Empty when `mapper` does not know
/// the topic or t1 < t0.
std::vector<Reading> query_series(const TopicMapper& mapper,
                                  const store::StoreCluster& cluster,
                                  std::string_view topic, TimestampNs t0,
                                  TimestampNs t1);

/// Persistent, bidirectional topic <-> SID dictionary.
///
/// Thread-safe; backed by a MetaStore so the mapping survives restarts
/// (a requirement for SIDs to be usable as long-term storage keys).
///
/// Read-mostly: a topic seen before resolves with one lock-free probe of
/// the registered-topic table, allocating nothing. Only a first sighting
/// takes the writer lock to allocate components and persist the topic.
class TopicMapper {
  public:
    /// `meta` must outlive the mapper; pass a fresh in-memory MetaStore
    /// for tests.
    explicit TopicMapper(store::MetaStore& meta);

    /// Map a topic to its SID, allocating component numbers on first
    /// sight. Throws Error for invalid topics or >8 levels, and
    /// StoreError when the dictionary cannot be written.
    SensorId to_sid(std::string_view topic) DCDB_EXCLUDES(mutex_);

    /// Reverse lookup. Throws Error if the SID was never allocated.
    std::string to_topic(const SensorId& sid) const DCDB_EXCLUDES(mutex_);

    /// Lookup without allocating; false if the topic is unknown.
    bool lookup(std::string_view topic, SensorId& out) const;

    std::size_t known_topics() const DCDB_EXCLUDES(mutex_);

  private:
    using Levels = std::span<const std::string_view>;

    /// First-sighting path: allocate missing components and persist the
    /// topic's `topics/` record. Each record is written before memory
    /// changes, so a failed write throws and serves nothing.
    SensorId register_topic(Levels levels) DCDB_EXCLUDES(mutex_);

    store::MetaStore& meta_;
    mutable SharedMutex mutex_;
    // Per-level dictionaries. meta_ has its own internal lock; it is
    // only written while mutex_ is held exclusively (dictionary
    // allocation), so the lock order is always mutex_ ->
    // MetaStore::mutex_ (and mutex_ -> the table's insert mutex).
    std::array<std::unordered_map<std::string, std::uint16_t, StringHash,
                                  std::equal_to<>>,
               kSidLevels>
        forward_ DCDB_GUARDED_BY(mutex_);
    std::array<std::unordered_map<std::uint16_t, std::string>, kSidLevels>
        reverse_ DCDB_GUARDED_BY(mutex_);
    std::array<std::uint16_t, kSidLevels> next_id_ DCDB_GUARDED_BY(mutex_){};
    // Normalized topic -> SID of every topic with a `topics/` record; a
    // topic enters only after its record is written, under mutex_.
    TopicTable<SensorId> registered_;
    std::size_t known_topics_ DCDB_GUARDED_BY(mutex_){0};
};

}  // namespace dcdb
