#include "core/sensor_index.hpp"

#include <algorithm>

namespace dcdb {

SensorIndex::SensorIndex(store::MetaStore& meta, TimestampNs window_ns)
    : window_ns_(window_ns), mapper_(meta) {}

SensorIndex::Handle SensorIndex::resolve(std::string_view topic) {
    if (Entry* e = entries_.find(topic)) return {e->sid(), e};
    return {mapper_.to_sid(topic), nullptr};
}

SensorIndex::Entry& SensorIndex::add(std::string_view topic,
                                     const SensorId& sid) {
    tree_.add(topic);
    // try_emplace keeps an entry another session published meanwhile.
    return *entries_.try_emplace(topic, sid, window_ns_).first;
}

std::optional<Reading> SensorIndex::latest(std::string_view topic) const {
    const Entry* e = entries_.find(topic);
    return e ? e->slot().latest() : std::nullopt;
}

std::vector<Reading> SensorIndex::view(std::string_view topic,
                                       TimestampNs t0, TimestampNs t1) const {
    const Entry* e = entries_.find(topic);
    return e ? e->slot().view(t0, t1) : std::vector<Reading>{};
}

std::optional<double> SensorIndex::average(std::string_view topic,
                                           TimestampNs horizon_ns) const {
    const Entry* e = entries_.find(topic);
    return e ? e->slot().average(horizon_ns) : std::nullopt;
}

std::vector<std::string> SensorIndex::topics() const {
    std::vector<std::string> out;
    entries_.for_each([&out](std::string_view topic, const Entry&) {
        out.emplace_back(topic);
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t SensorIndex::sensor_count() const { return entries_.size(); }

std::size_t SensorIndex::memory_bytes() const {
    std::size_t total = 0;
    entries_.for_each([&total](std::string_view topic, const Entry& e) {
        total += e.slot().memory_bytes() + topic.size();
    });
    return total;
}

}  // namespace dcdb
