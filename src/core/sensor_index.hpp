// The Collect Agent's index of known sensors.
//
// For every section it stores, the agent needs the sensor's SID before
// the insert and the sensor's cache slot after it (paper, Sections 4.2
// and 5.3). The agent's CacheSet is that index: each slot carries the
// SID it was created with, so a section of a known sensor costs one
// lock-free probe and the agent carries the resulting handle from the
// insert to the cache push.
//
// A first sighting keeps the dictionary's order. TopicMapper::to_sid
// allocates the SID and persists its records before the insert; only
// once the section is stored does the topic join the SensorTree and
// then the cache. So every cached sensor has a browsable leaf, and a
// first batch the store refuses leaves no slot and serves no reading.
#pragma once

#include <string_view>

#include "common/types.hpp"
#include "core/hierarchy.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "store/metastore.hpp"

namespace dcdb {

class SensorIndex {
  public:
    /// A resolved section's sensor: its SID, and its cache slot once the
    /// sensor is cached (nullptr on a first sighting).
    struct Handle {
        SensorId sid;
        CacheSet::Slot* slot{nullptr};
    };

    /// `meta` backs the topic dictionary and must outlive the index;
    /// `window_ns` is each sensor's cache window.
    SensorIndex(store::MetaStore& meta, TimestampNs window_ns)
        : mapper_(meta), cache_(window_ns) {}

    /// The sensor of `topic`, in any spelling: one lock-free probe when
    /// it is cached. Otherwise TopicMapper::to_sid maps the topic,
    /// persisting a new sensor's records, and throws like it.
    Handle resolve(std::string_view topic) {
        if (CacheSet::Slot* slot = cache_.find(topic))
            return {slot->sid(), slot};
        return {mapper_.to_sid(topic), nullptr};
    }

    /// The slot of a resolved sensor. The first call for a new sensor
    /// adds its topic to the hierarchy and then to the cache, so call
    /// this only once the sensor's readings are stored.
    CacheSet::Slot& publish(std::string_view topic, const Handle& handle) {
        if (handle.slot) return *handle.slot;
        tree_.add(topic);
        return cache_.slot(topic, kNsPerSec, handle.sid);
    }

    const CacheSet& cache() const { return cache_; }
    TopicMapper& mapper() { return mapper_; }
    const TopicMapper& mapper() const { return mapper_; }
    const SensorTree& hierarchy() const { return tree_; }

  private:
    // Lock order: TopicMapper -> SensorTree -> the cache's insert mutex
    // -> Slot::mutex_. None nests in another on the ingest path: a known
    // sensor takes only its slot's lock, after a lock-free probe.
    TopicMapper mapper_;
    SensorTree tree_;
    CacheSet cache_;
};

}  // namespace dcdb
