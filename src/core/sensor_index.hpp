// The Collect Agent's index of known sensors.
//
// For every section it stores, the agent needs the sensor's SID before
// the insert and the sensor's cache slot after it (paper, Sections 4.2
// and 5.3). One TopicTable, keyed by normalized topic, holds both in one
// entry, so a section of a known sensor costs one lock-free probe and
// the agent carries the resulting handle from the insert to the cache
// push.
//
// A first sighting keeps the dictionary's order. TopicMapper::to_sid
// allocates the SID and persists its records before the insert; only
// once the section is stored does the topic join the SensorTree and
// then the index. So every indexed sensor has a browsable leaf, and a
// dead-lettered first batch leaves no entry and serves no reading.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/hierarchy.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "core/topic_table.hpp"
#include "store/metastore.hpp"

namespace dcdb {

class SensorIndex {
  public:
    /// One known sensor: its SID and its cache slot, at a stable address
    /// for the index's lifetime.
    class Entry {
      public:
        Entry(const SensorId& sid, TimestampNs window_ns)
            : sid_(sid), slot_(window_ns, kNsPerSec) {}

        const SensorId& sid() const { return sid_; }
        CacheSet::Slot& slot() { return slot_; }
        const CacheSet::Slot& slot() const { return slot_; }

      private:
        const SensorId sid_;
        CacheSet::Slot slot_;
    };

    /// A resolved section's sensor: its SID, and its entry once the
    /// sensor is indexed (nullptr on a first sighting).
    struct Handle {
        SensorId sid;
        Entry* entry{nullptr};
    };

    /// `meta` backs the topic dictionary and must outlive the index;
    /// `window_ns` is each sensor's cache window.
    SensorIndex(store::MetaStore& meta, TimestampNs window_ns);

    /// The sensor of `topic`, in any spelling: one lock-free probe when
    /// it is indexed. Otherwise TopicMapper::to_sid maps the topic,
    /// persisting a new sensor's records, and throws like it.
    Handle resolve(std::string_view topic);

    /// The entry of a resolved sensor. The first call for a new sensor
    /// adds its topic to the hierarchy and then indexes it, so call this
    /// only once the sensor's readings are stored.
    Entry& publish(std::string_view topic, const Handle& handle) {
        return handle.entry ? *handle.entry : add(topic, handle.sid);
    }

    // The cache's read side, with CacheSet's signatures.
    std::optional<Reading> latest(std::string_view topic) const;
    std::vector<Reading> view(std::string_view topic, TimestampNs t0,
                              TimestampNs t1) const;
    std::optional<double> average(std::string_view topic,
                                  TimestampNs horizon_ns) const;
    /// Normalized topics, sorted.
    std::vector<std::string> topics() const;
    std::size_t sensor_count() const;
    std::size_t memory_bytes() const;

    TopicMapper& mapper() { return mapper_; }
    const TopicMapper& mapper() const { return mapper_; }
    const SensorTree& hierarchy() const { return tree_; }

  private:
    Entry& add(std::string_view topic, const SensorId& sid);

    TimestampNs window_ns_;
    // Lock order: TopicMapper -> SensorTree -> entries_' insert mutex
    // -> Slot::mutex_ (memory_bytes walks the slots under the insert
    // mutex). None nests in another on the ingest path: a known sensor
    // takes only its slot's lock, after a lock-free probe.
    TopicMapper mapper_;
    SensorTree tree_;
    TopicTable<Entry> entries_;
};

}  // namespace dcdb
