// Sensor caches: the most recent readings of each sensor, bounded by a
// time window.
//
// Both Pushers and Collect Agents keep one (paper, Section 5.3): it backs
// the RESTful API ("access to a sensor cache that stores the latest
// readings of all sensors"), decouples sampling from sending, and its
// size is "configurable" — the paper's Figure 6 memory footprint is
// dominated by exactly this structure, so it is preallocated and
// allocation-free on the sampling hot path once warm.
//
// In a Pusher the cache is also the only buffer of undelivered readings:
// a ring's newest readings stay pending until a push round releases
// them, and the ring keeps a reading while it is inside the window or
// still pending. A Collect Agent never marks a reading pending, so its
// rings are plain window caches under the same rule; its cache is also
// its index of known sensors, each slot carrying its sensor's SID.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"
#include "core/sensor_id.hpp"
#include "core/topic_table.hpp"

namespace dcdb {

/// Ring buffer of readings covering (at least) a fixed time window, plus
/// a pending cursor over its newest readings.
class SensorCache {
  public:
    /// Pending readings are capped so a dead Collect Agent cannot grow a
    /// Pusher without bound: past the cap the oldest pending reading
    /// stops being pending, in O(1), and push() reports it (DCDB favours
    /// fresh data over total recall; the window still caches it).
    static constexpr std::size_t kMaxPending = 4096;

    /// `window_ns`: how much history to retain (default 2 minutes, the
    /// production configuration used in the paper's experiments).
    /// `interval_hint_ns`: expected sampling interval, used to right-size
    /// the ring upfront.
    explicit SensorCache(TimestampNs window_ns = 120 * kNsPerSec,
                         TimestampNs interval_hint_ns = kNsPerSec);

    /// O(1), allocation-free once the ring reached its steady size. With
    /// `pending` the reading waits for release_pending(); so does any
    /// reading pushed while older ones wait, because the pending readings
    /// are always the ring's newest. Returns true when the cap dropped
    /// the oldest pending reading.
    bool push(const Reading& r, bool pending = false);

    /// Copy the pending readings, oldest first, onto the end of `out`;
    /// returns how many. `end` receives the sequence number one past the
    /// newest copied, for release_pending.
    std::size_t peek_pending(std::vector<Reading>& out,
                             std::uint64_t& end) const;

    /// Release the readings before sequence number `end` that are still
    /// pending (one the cap dropped since the peek is already gone);
    /// returns how many. A release that empties a ring grown by a backlog
    /// shrinks it back to its hint-sized capacity.
    std::size_t release_pending(std::uint64_t end);

    std::size_t pending() const { return pending_; }

    std::optional<Reading> latest() const;

    /// Readings within [t0, t1], oldest first.
    std::vector<Reading> view(TimestampNs t0, TimestampNs t1) const;

    /// Average over the cached window (the REST API exposes this).
    std::optional<double> average(TimestampNs horizon_ns) const;

    std::size_t size() const { return count_; }

    /// Memory footprint of this cache in bytes.
    std::size_t memory_bytes() const {
        return capacity_ * sizeof(Reading) + sizeof(*this);
    }

  private:
    /// The i-th oldest reading, i < count_.
    const Reading& at(std::size_t i) const {
        return ring_[(head_ + capacity_ - count_ + i) % capacity_];
    }
    /// Move the newest min(count_, capacity) readings into a ring of
    /// `capacity`, oldest first.
    void reshape(std::uint32_t capacity);

    // A Pusher keeps one cache per sensor: 32-bit positions keep each at
    // 48 bytes besides its ring.
    TimestampNs window_ns_;
    std::unique_ptr<Reading[]> ring_;
    std::uint32_t capacity_{0};
    std::uint32_t head_{0};        // next write position
    std::uint32_t count_{0};       // valid entries
    std::uint32_t pending_{0};     // the newest pending_ entries
    std::uint32_t base_capacity_;  // the hint-sized ring
    std::uint64_t head_seq_{0};    // sequence number of the oldest pending
};

/// Thread-safe set of named sensor caches (one per sensor topic), shared
/// by the sampler threads, the push thread and the REST server.
///
/// Each topic owns a Slot: its cache, a leaf mutex and the SID it was
/// created with (all zero in a Pusher). Slots are keyed by the
/// normalized topic, so every spelling of a sensor shares one. A slot is
/// created on first sight and lives as long as the set, at a stable
/// address, so a known topic costs one lock-free probe, a caller that
/// always feeds one sensor can resolve its Slot once, and a sensor
/// rebuilt under the same topic finds its predecessor's readings.
class CacheSet {
  public:
    class Slot {
      public:
        Slot(TimestampNs window_ns, TimestampNs interval_hint_ns,
             const SensorId& sid)
            : cache_(window_ns, interval_hint_ns), sid_(sid) {}
        Slot(const Slot&) = delete;
        Slot& operator=(const Slot&) = delete;

        const SensorId& sid() const { return sid_; }

        // SensorCache's operations, each under the slot's lock.
        bool push(const Reading& r, bool pending = false)
            DCDB_EXCLUDES(mutex_);
        std::size_t peek_pending(std::vector<Reading>& out,
                                 std::uint64_t& end) const
            DCDB_EXCLUDES(mutex_);
        std::size_t release_pending(std::uint64_t end) DCDB_EXCLUDES(mutex_);
        std::size_t pending() const DCDB_EXCLUDES(mutex_);
        std::optional<Reading> latest() const DCDB_EXCLUDES(mutex_);
        std::vector<Reading> view(TimestampNs t0, TimestampNs t1) const
            DCDB_EXCLUDES(mutex_);
        std::optional<double> average(TimestampNs horizon_ns) const
            DCDB_EXCLUDES(mutex_);
        std::size_t memory_bytes() const DCDB_EXCLUDES(mutex_);

      private:
        mutable Mutex mutex_;
        SensorCache cache_ DCDB_GUARDED_BY(mutex_);
        // Last, so a push touches the same cache lines as without it.
        const SensorId sid_;
    };

    explicit CacheSet(TimestampNs window_ns = 120 * kNsPerSec);

    /// The slot for `topic`, created on first sight (sized with
    /// `interval_hint_ns`, carrying `sid`). Valid for the set's lifetime.
    Slot& slot(std::string_view topic,
               TimestampNs interval_hint_ns = kNsPerSec,
               const SensorId& sid = {});

    /// The slot for `topic` in any spelling, or nullptr: one lock-free
    /// probe that creates nothing.
    Slot* find(std::string_view topic) { return slots_.find(topic); }
    const Slot* find(std::string_view topic) const {
        return slots_.find(topic);
    }

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
    /// Pending readings over every slot.
    std::uint64_t pending() const;

  private:
    TimestampNs window_ns_;
    // Lock order: the table's insert mutex -> Slot::mutex_
    // (memory_bytes and pending walk the slots under it); push/latest/
    // view/average probe without a lock and then take only the slot lock.
    TopicTable<Slot> slots_;
};

}  // namespace dcdb
