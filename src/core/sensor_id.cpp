#include "core/sensor_id.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/string_utils.hpp"
#include "mqtt/topic.hpp"
#include "store/cluster.hpp"

namespace dcdb {

std::string SensorId::hex() const {
    std::string out;
    out.reserve(32);
    char tmp[3];
    for (const auto b : bytes) {
        std::snprintf(tmp, sizeof tmp, "%02x", b);
        out += tmp;
    }
    return out;
}

namespace {

std::string dict_key(std::size_t level, const std::string& component) {
    return "sidmap/" + std::to_string(level) + "/" + component;
}

}  // namespace

TopicMapper::TopicMapper(store::MetaStore& meta) : meta_(meta) {
    WriterLock lock(mutex_);
    next_id_.fill(1);
    // Rebuild the in-memory dictionaries from the persistent store.
    for (std::size_t level = 0; level < kSidLevels; ++level) {
        const std::string prefix = "sidmap/" + std::to_string(level) + "/";
        for (const auto& [key, value] : meta_.scan_prefix(prefix)) {
            const std::string component = key.substr(prefix.size());
            const auto id = parse_u64(value);
            if (!id || *id == 0 || *id > 0xFFFF) continue;
            const auto id16 = static_cast<std::uint16_t>(*id);
            forward_[level][component] = id16;
            reverse_[level][id16] = component;
            if (id16 >= next_id_[level])
                next_id_[level] = static_cast<std::uint16_t>(id16 + 1);
        }
    }
    const std::string prefix = "topics/";
    const auto topics = meta_.scan_prefix(prefix);
    known_topics_ = topics.size();
    for (const auto& entry : topics) {
        // A topic whose components did not survive stays unregistered:
        // its next sighting takes the first-sighting path.
        const std::string_view topic =
            std::string_view(entry.first).substr(prefix.size());
        std::array<std::string_view, kSidLevels> levels;
        const std::size_t depth = sensor_topic_levels(topic, levels);
        if (depth == 0 || depth > kSidLevels) continue;
        SensorId sid;
        std::size_t i = 0;
        for (; i < depth; ++i) {
            const auto it = forward_[i].find(levels[i]);
            if (it == forward_[i].end()) break;
            sid.set_level(i, it->second);
        }
        if (i == depth) registered_.try_emplace(topic, sid);
    }
}

SensorId TopicMapper::to_sid(std::string_view topic) {
    if (const SensorId* sid = registered_.find(topic)) return *sid;
    std::array<std::string_view, kSidLevels> levels;
    const std::size_t depth = sensor_topic_levels(topic, levels);
    if (depth == 0) throw Error("empty sensor topic");
    if (depth > kSidLevels)
        throw Error("topic exceeds " + std::to_string(kSidLevels) +
                    " hierarchy levels: " + std::string(topic));
    return register_topic(Levels(levels.data(), depth));
}

SensorId TopicMapper::register_topic(Levels levels) {
    std::string normalized;  // == normalize_sensor_topic(topic)
    for (const std::string_view level : levels) {
        normalized += '/';
        normalized += level;
    }

    WriterLock lock(mutex_);
    // Another session may have registered the topic while this one
    // waited for the writer lock.
    if (const SensorId* sid = registered_.find(normalized)) return *sid;
    SensorId sid;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        auto& dict = forward_[i];
        auto it = dict.find(levels[i]);
        std::uint16_t id = 0;
        if (it != dict.end()) {
            id = it->second;
        } else {
            if (next_id_[i] == 0)
                throw Error("hierarchy level " + std::to_string(i) +
                            " dictionary exhausted");
            id = next_id_[i];
            const std::string component(levels[i]);
            meta_.put(dict_key(i, component), std::to_string(id));
            ++next_id_[i];
            dict.emplace(component, id);
            reverse_[i].emplace(id, component);
        }
        sid.set_level(i, id);
    }
    const std::string topic_key = "topics/" + normalized;
    if (!meta_.contains(topic_key)) {
        meta_.put(topic_key, sid.hex());
        ++known_topics_;
    }
    registered_.try_emplace(normalized, sid);
    return sid;
}

std::string TopicMapper::to_topic(const SensorId& sid) const {
    ReaderLock lock(mutex_);
    std::string out;
    for (std::size_t i = 0; i < kSidLevels; ++i) {
        const std::uint16_t id = sid.level(i);
        if (id == 0) break;
        const auto it = reverse_[i].find(id);
        if (it == reverse_[i].end())
            throw Error("unknown SID component at level " +
                        std::to_string(i));
        out.push_back('/');
        out += it->second;
    }
    if (out.empty()) throw Error("SID has no components");
    return out;
}

bool TopicMapper::lookup(std::string_view topic, SensorId& out) const {
    const SensorId* sid = registered_.find(topic);
    if (!sid) return false;
    out = *sid;
    return true;
}

std::size_t TopicMapper::known_topics() const {
    ReaderLock lock(mutex_);
    return known_topics_;
}

std::vector<Reading> query_series(const TopicMapper& mapper,
                                  const store::StoreCluster& cluster,
                                  std::string_view topic, TimestampNs t0,
                                  TimestampNs t1) {
    SensorId sid;
    if (!mapper.lookup(topic, sid) || t1 < t0) return {};
    std::vector<Reading> out;
    const std::uint32_t last_bucket = time_bucket(t1);
    for (std::uint32_t bucket = time_bucket(t0);; ++bucket) {
        store::Key key;
        key.sid = sid.bytes;
        key.bucket = bucket;
        for (const auto& row : cluster.query(key, t0, t1))
            out.push_back({row.ts, row.value});
        if (bucket == last_bucket) break;
    }
    return out;
}

}  // namespace dcdb
