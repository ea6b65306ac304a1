// Sensor hierarchy navigator.
//
// "Defining an appropriate hierarchy for sensors is fundamental ...
// enabling separation of the sensor space greatly improves navigability"
// (paper, Section 3.1). The Grafana data-source plugin exposes exactly
// this: browse one level at a time (room -> system -> rack -> node ->
// sensor). This tree powers the query tool, the REST API and the
// Grafana-equivalent hierarchical browsing in the examples.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"

namespace dcdb {

/// Read-mostly: re-adding a registered sensor (every ingest does) is a
/// string_view find under the shared lock; only a new or un-normalized
/// topic is normalized and takes the writer lock.
class SensorTree {
  public:
    /// Register a sensor topic ("/sys/rack0/node1/power").
    void add(std::string_view topic) DCDB_EXCLUDES(mutex_);

    /// Child level names under `path` ("" or "/" = root).
    std::vector<std::string> children(const std::string& path) const
        DCDB_EXCLUDES(mutex_);

    /// Full topics of all sensors at or below `path`, sorted.
    std::vector<std::string> sensors_below(const std::string& path) const
        DCDB_EXCLUDES(mutex_);

    /// True if `path` is itself a registered sensor (a leaf).
    bool is_sensor(const std::string& path) const DCDB_EXCLUDES(mutex_);

    std::size_t sensor_count() const DCDB_EXCLUDES(mutex_);

  private:
    mutable SharedMutex mutex_;
    // path -> names
    std::map<std::string, std::set<std::string>> children_
        DCDB_GUARDED_BY(mutex_);
    // leaf topics, normalized; std::less<> allows string_view probes
    std::set<std::string, std::less<>> sensors_ DCDB_GUARDED_BY(mutex_);
};

}  // namespace dcdb
