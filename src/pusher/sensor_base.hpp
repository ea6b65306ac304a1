// SensorBase — "the most basic unit for data collection. A sensor
// represents a single data source that cannot be divided any further"
// (paper, Section 4.1). A sensor always belongs to a group.
//
// Each sensor owns a pending ring (readings not yet delivered to the
// Collect Agent) and mirrors every reading into the Pusher-wide sensor
// cache that backs the REST API. A push round peeks the ring and
// releases what a payload carried only once that payload is published,
// so the ring is the Pusher's only buffer of undelivered readings.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"
#include "core/sensor_cache.hpp"

namespace dcdb::pusher {

class SensorBase {
  public:
    /// `topic` is the full MQTT topic this sensor publishes under.
    SensorBase(std::string name, std::string topic);
    virtual ~SensorBase() = default;

    const std::string& name() const { return name_; }
    const std::string& topic() const { return topic_; }

    /// Metadata hints carried to the Collect Agent / storage layer.
    void set_unit(std::string unit) { unit_ = std::move(unit); }
    const std::string& unit() const { return unit_; }
    void set_scale(double scale) { scale_ = scale; }
    double scale() const { return scale_; }
    /// Delta mode: publish differences of a monotonic counter instead of
    /// raw values (DCDB's "delta" sensor attribute).
    void set_delta(bool delta) { delta_ = delta; }
    bool delta() const { return delta_; }

    /// Record one reading (called from sampler threads). Applies delta
    /// conversion if enabled and mirrors the reading into `cache` (may be
    /// null in unit tests). The sensor resolves its slot in `cache` once
    /// and pushes through it afterwards. With `keep_pending` false the
    /// reading skips the pending ring (nothing would publish it).
    /// Returns true when a full ring overwrote its oldest reading.
    bool store_reading(Reading r, CacheSet* cache,
                       TimestampNs interval_hint_ns, bool keep_pending = true)
        DCDB_EXCLUDES(mutex_);

    /// Copy the pending readings, oldest first, onto the end of `out`
    /// under one lock acquisition; returns how many. `end` receives the
    /// sequence number one past the newest copied, for release_pending.
    /// The ring keeps its storage, so a steady sampling rate peeks
    /// without allocating on either side.
    std::size_t peek_pending_into(std::vector<Reading>& out,
                                  std::uint64_t& end) DCDB_EXCLUDES(mutex_);

    /// Forget the readings before sequence number `end` that are still
    /// pending (one the cap overwrote since the peek is already gone);
    /// returns how many.
    std::size_t release_pending(std::uint64_t end) DCDB_EXCLUDES(mutex_);

    /// Peek into a fresh vector and release it all (tests and callers
    /// that consume the readings themselves).
    std::vector<Reading> drain_pending() DCDB_EXCLUDES(mutex_);

    /// Pending readings are capped so a dead Collect Agent cannot grow a
    /// Pusher without bound; the oldest readings are dropped first (the
    /// sensor cache still covers its window, and the storage layer will
    /// simply have a gap — DCDB favours fresh data over total recall).
    /// The ring grows on demand up to the cap and drops in O(1) there.
    static constexpr std::size_t kMaxPending = 4096;

    std::uint64_t dropped_readings() const DCDB_EXCLUDES(mutex_);

    std::optional<Reading> latest() const DCDB_EXCLUDES(mutex_);
    std::size_t pending_count() const DCDB_EXCLUDES(mutex_);

  private:
    void grow_pending() DCDB_REQUIRES(mutex_);

    std::string name_;
    std::string topic_;
    std::string unit_;
    double scale_{1.0};
    bool delta_{false};

    mutable Mutex mutex_;
    // Pending readings: a ring over pending_ (its size is the ring's
    // capacity), oldest at pending_head_, whose sequence number is
    // head_seq_. A release and an overwrite at the cap move the head.
    std::vector<Reading> pending_ DCDB_GUARDED_BY(mutex_);
    std::size_t pending_head_ DCDB_GUARDED_BY(mutex_){0};
    std::uint64_t head_seq_ DCDB_GUARDED_BY(mutex_){0};
    std::size_t pending_count_ DCDB_GUARDED_BY(mutex_){0};
    std::optional<Reading> latest_ DCDB_GUARDED_BY(mutex_);
    // last_raw_ feeds delta conversion
    std::optional<Value> last_raw_ DCDB_GUARDED_BY(mutex_);
    std::uint64_t dropped_ DCDB_GUARDED_BY(mutex_){0};
    // This sensor's slot in the cache set with id cache_id_ (0 = none).
    std::uint64_t cache_id_ DCDB_GUARDED_BY(mutex_){0};
    CacheSet::Slot* cache_slot_ DCDB_GUARDED_BY(mutex_){nullptr};
};

}  // namespace dcdb::pusher
