#include "core/hierarchy.hpp"

#include "common/string_utils.hpp"
#include "mqtt/topic.hpp"

namespace dcdb {

void SensorTree::add(std::string_view topic) {
    {
        ReaderLock lock(mutex_);
        if (sensors_.find(topic) != sensors_.end()) return;
    }
    const std::string normalized = normalize_sensor_topic(topic);
    const auto levels = split_nonempty(normalized, '/');
    WriterLock lock(mutex_);
    std::string path;
    for (const auto& level : levels) {
        children_[path.empty() ? "/" : path].insert(level);
        path += "/" + level;
    }
    sensors_.insert(normalized);
}

std::vector<std::string> SensorTree::children(const std::string& path) const {
    std::string key = path.empty() ? "/" : normalize_sensor_topic(path);
    ReaderLock lock(mutex_);
    const auto it = children_.find(key);
    if (it == children_.end()) return {};
    return {it->second.begin(), it->second.end()};
}

std::vector<std::string> SensorTree::sensors_below(
    const std::string& path) const {
    const std::string prefix =
        path.empty() || path == "/" ? "/" : normalize_sensor_topic(path);
    ReaderLock lock(mutex_);
    std::vector<std::string> out;
    for (const auto& sensor : sensors_) {
        if (prefix == "/" || sensor == prefix ||
            (sensor.size() > prefix.size() &&
             sensor.compare(0, prefix.size(), prefix) == 0 &&
             sensor[prefix.size()] == '/'))
            out.push_back(sensor);
    }
    return out;
}

bool SensorTree::is_sensor(const std::string& path) const {
    ReaderLock lock(mutex_);
    return sensors_.count(normalize_sensor_topic(path)) > 0;
}

std::size_t SensorTree::sensor_count() const {
    ReaderLock lock(mutex_);
    return sensors_.size();
}

}  // namespace dcdb
