// Sensor caches: the most recent readings of each sensor, bounded by a
// time window.
//
// Both Pushers and Collect Agents keep one (paper, Section 5.3): it backs
// the RESTful API ("access to a sensor cache that stores the latest
// readings of all sensors"), decouples sampling from sending, and its
// size is "configurable" — the paper's Figure 6 memory footprint is
// dominated by exactly this structure, so it is preallocated and
// allocation-free on the sampling hot path once warm.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"
#include "core/topic_table.hpp"

namespace dcdb {

/// Ring buffer of readings covering (at least) a fixed time window.
class SensorCache {
  public:
    /// `window_ns`: how much history to retain (default 2 minutes, the
    /// production configuration used in the paper's experiments).
    /// `interval_hint_ns`: expected sampling interval, used to right-size
    /// the ring upfront.
    explicit SensorCache(TimestampNs window_ns = 120 * kNsPerSec,
                         TimestampNs interval_hint_ns = kNsPerSec);

    /// O(1), allocation-free once the ring reached its steady size.
    void push(const Reading& r);

    std::optional<Reading> latest() const;

    /// Readings within [t0, t1], oldest first.
    std::vector<Reading> view(TimestampNs t0, TimestampNs t1) const;

    /// Average over the cached window (the REST API exposes this).
    std::optional<double> average(TimestampNs horizon_ns) const;

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    TimestampNs window_ns() const { return window_ns_; }

    /// Memory footprint of this cache in bytes.
    std::size_t memory_bytes() const {
        return ring_.capacity() * sizeof(Reading) + sizeof(*this);
    }

  private:
    void grow();

    TimestampNs window_ns_;
    std::vector<Reading> ring_;
    std::size_t head_{0};   // next write position
    std::size_t count_{0};  // valid entries
};

/// Thread-safe set of named sensor caches (one per sensor topic), shared
/// by the sampler threads and the REST server.
///
/// Each topic owns a Slot: its cache plus a leaf mutex. Slots are keyed
/// by the normalized topic, so every spelling of a sensor shares one. A
/// slot is created on first sight and lives as long as the set, at a
/// stable address, so a known topic costs one lock-free probe and a
/// caller that always feeds one sensor can resolve its Slot once.
class CacheSet {
  public:
    class Slot {
      public:
        Slot(TimestampNs window_ns, TimestampNs interval_hint_ns)
            : cache_(window_ns, interval_hint_ns) {}
        Slot(const Slot&) = delete;
        Slot& operator=(const Slot&) = delete;

        void push(const Reading& r) DCDB_EXCLUDES(mutex_);
        std::optional<Reading> latest() const DCDB_EXCLUDES(mutex_);
        std::vector<Reading> view(TimestampNs t0, TimestampNs t1) const
            DCDB_EXCLUDES(mutex_);
        std::optional<double> average(TimestampNs horizon_ns) const
            DCDB_EXCLUDES(mutex_);
        std::size_t memory_bytes() const DCDB_EXCLUDES(mutex_);

      private:
        mutable Mutex mutex_;
        SensorCache cache_ DCDB_GUARDED_BY(mutex_);
    };

    explicit CacheSet(TimestampNs window_ns = 120 * kNsPerSec);

    /// The slot for `topic`, created on first sight (sized with
    /// `interval_hint_ns`). Valid for the set's lifetime.
    Slot& slot(std::string_view topic,
               TimestampNs interval_hint_ns = kNsPerSec);

    /// Insert a reading for `topic`, creating the cache on first sight.
    void push(std::string_view topic, const Reading& r,
              TimestampNs interval_hint_ns = kNsPerSec);

    std::optional<Reading> latest(std::string_view topic) const;
    std::vector<Reading> view(std::string_view topic, TimestampNs t0,
                              TimestampNs t1) const;
    std::optional<double> average(std::string_view topic,
                                  TimestampNs horizon_ns) const;

    /// Normalized topics, sorted.
    std::vector<std::string> topics() const;
    std::size_t sensor_count() const;
    std::size_t memory_bytes() const;
    TimestampNs window_ns() const { return window_ns_; }

    /// Unique per set for the process lifetime (never reused, unlike an
    /// address), so a cached Slot& can be checked against its set.
    std::uint64_t id() const { return id_; }

  private:
    TimestampNs window_ns_;
    std::uint64_t id_;
    // Lock order: the table's insert mutex -> Slot::mutex_
    // (memory_bytes walks the slots under it); push/latest/view/average
    // probe without a lock and then take only the slot lock.
    TopicTable<Slot> slots_;
};

}  // namespace dcdb
