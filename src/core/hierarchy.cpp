#include "core/hierarchy.hpp"

#include <algorithm>

#include "common/string_utils.hpp"
#include "mqtt/topic.hpp"

namespace dcdb {

void SensorTree::add(std::string_view topic) {
    if (sensors_.find(topic)) return;
    const std::string normalized = normalize_sensor_topic(topic);
    const auto levels = split_nonempty(normalized, '/');
    WriterLock lock(mutex_);
    std::string path;
    for (const auto& level : levels) {
        children_[path.empty() ? "/" : path].insert(level);
        path += "/" + level;
    }
    sensors_.try_emplace(normalized);
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
    std::vector<std::string> out;
    sensors_.for_each([&](std::string_view sensor, const Leaf&) {
        if (prefix == "/" || sensor == prefix ||
            (sensor.size() > prefix.size() && sensor.starts_with(prefix) &&
             sensor[prefix.size()] == '/'))
            out.emplace_back(sensor);
    });
    std::sort(out.begin(), out.end());
    return out;
}

bool SensorTree::is_sensor(const std::string& path) const {
    return sensors_.find(path) != nullptr;
}

std::size_t SensorTree::sensor_count() const { return sensors_.size(); }

}  // namespace dcdb
