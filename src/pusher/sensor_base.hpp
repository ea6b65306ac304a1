// SensorBase — "the most basic unit for data collection. A sensor
// represents a single data source that cannot be divided any further"
// (paper, Section 4.1). A sensor always belongs to a group.
//
// A sensor holds its description, its delta state and a handle to its
// slot in the Pusher's sensor cache. The slot's ring is the sensor's only
// buffer: it backs the REST API and keeps the readings not yet delivered
// to the Collect Agent, which a push round peeks and releases once the
// payload that carried them is published. The slot outlives the sensor,
// so a sensor rebuilt under the same topic by a plugin reload continues
// its predecessor's ring, history and undelivered readings alike.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <vector>

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

    /// Delta mode: publish differences of a monotonic counter instead of
    /// raw values (DCDB's "delta" sensor attribute).
    void set_delta(bool delta) { delta_ = delta; }
    bool delta() const { return delta_; }

    /// This sensor's slot of `cache`, resolved by the first call: the
    /// Sampler's add_group, or else the first reading. The sensor's ring
    /// lives in that first set, which must outlive the sensor. Not from
    /// two threads at once.
    CacheSet::Slot& resolve_slot(CacheSet& cache,
                                 TimestampNs interval_hint_ns);

    /// Record one reading, from the thread reading the sensor's group
    /// (never two at once). Applies delta conversion if enabled and
    /// pushes the reading into this sensor's slot of `cache`
    /// (resolve_slot). With `pending` the reading waits for a push round.
    /// Returns true when the slot's pending cap dropped its oldest
    /// pending reading.
    bool store_reading(Reading r, CacheSet& cache,
                       TimestampNs interval_hint_ns, bool pending = true);

    /// This sensor's slot (its cached and pending readings), or nullptr
    /// before it is resolved. Safe from any thread.
    CacheSet::Slot* slot() const {
        return slot_.load(std::memory_order_acquire);
    }

    /// Copy the slot's pending readings, oldest first, onto the end of
    /// `out` under its lock; returns how many (none before the first
    /// reading). `end` receives the sequence number one past the newest
    /// copied, for release_pending. The ring keeps its storage, so a
    /// steady sampling rate peeks without allocating on either side.
    std::size_t peek_pending_into(std::vector<Reading>& out,
                                  std::uint64_t& end) const;

    /// Release the readings before sequence number `end` that are still
    /// pending in the slot; returns how many.
    std::size_t release_pending(std::uint64_t end) const;

  private:
    std::string name_;
    std::string topic_;
    bool delta_{false};
    // Delta conversion's previous raw value; only the reading thread
    // touches it.
    std::optional<Value> last_raw_;
    // Set once by resolve_slot, read by push rounds.
    // dcdblint: allow-atomic(a published pointer, not a stat counter)
    std::atomic<CacheSet::Slot*> slot_{nullptr};
};

}  // namespace dcdb::pusher
