// Sensor hierarchy navigator.
//
// "Defining an appropriate hierarchy for sensors is fundamental ...
// enabling separation of the sensor space greatly improves navigability"
// (paper, Section 3.1). The Grafana data-source plugin exposes exactly
// this: browse one level at a time (room -> system -> rack -> node ->
// sensor). This tree powers the query tool, the REST API and the
// Grafana-equivalent hierarchical browsing in the examples.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "core/topic_table.hpp"

namespace dcdb {

/// Read-mostly: re-adding a registered sensor (every ingest does) is one
/// lock-free probe of the leaf table, in any spelling; only a new topic
/// is normalized and takes the writer lock.
class SensorTree {
  public:
    /// Register a sensor topic ("/sys/rack0/node1/power").
    void add(std::string_view topic) DCDB_EXCLUDES(mutex_);

    /// Child level names under `path` ("" or "/" = root).
    std::vector<std::string> children(const std::string& path) const
        DCDB_EXCLUDES(mutex_);

    /// Full topics of all sensors at or below `path`, sorted.
    std::vector<std::string> sensors_below(const std::string& path) const;

    /// True if `path` is itself a registered sensor (a leaf).
    bool is_sensor(const std::string& path) const;

    std::size_t sensor_count() const;

  private:
    struct Leaf {};

    mutable SharedMutex mutex_;
    // path -> names
    std::map<std::string, std::set<std::string>> children_
        DCDB_GUARDED_BY(mutex_);
    // Leaf topics, normalized. A topic enters after its path is in
    // children_, under mutex_ (so mutex_ -> the table's insert mutex).
    TopicTable<Leaf> sensors_;
};

}  // namespace dcdb
