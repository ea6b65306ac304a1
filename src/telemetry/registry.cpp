#include "telemetry/registry.hpp"

#include "common/error.hpp"

namespace dcdb::telemetry {

namespace {

constexpr std::size_t kMaxComponents = 6;
constexpr std::size_t kMaxTopicLevels = 8;  // SID grammar, sensor_id.hpp

const char* kind_name(MetricKind kind) {
    switch (kind) {
        case MetricKind::kCounter: return "counter";
        case MetricKind::kGauge: return "gauge";
        case MetricKind::kHistogram: return "histogram";
    }
    return "?";
}

}  // namespace

bool MetricRegistry::valid_name(const std::string& name) {
    if (name.empty() || name.front() == '.' || name.back() == '.') {
        return false;
    }
    std::size_t components = 1;
    bool component_empty = true;
    for (const char c : name) {
        if (c == '.') {
            if (component_empty) return false;  // ".." or leading dot
            ++components;
            component_empty = true;
        } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '_') {
            component_empty = false;
        } else {
            return false;
        }
    }
    return !component_empty && components <= kMaxComponents;
}

std::string MetricRegistry::to_topic(const std::string& topic_prefix,
                                     const std::string& name,
                                     std::size_t extra_levels) {
    if (!valid_name(name)) {
        throw Error("telemetry: invalid metric name '" + name + "'");
    }
    std::size_t levels = 1 + extra_levels;  // the "telemetry" level
    for (const char c : topic_prefix) {
        if (c == '/') ++levels;  // "/node0" contributes one level
    }
    for (const char c : name) {
        if (c == '.') ++levels;
    }
    ++levels;  // the name's first component
    if (levels > kMaxTopicLevels) {
        throw Error("telemetry: topic for '" + name + "' under prefix '" +
                    topic_prefix + "' exceeds " +
                    std::to_string(kMaxTopicLevels) + " SID levels");
    }
    std::string topic = topic_prefix + "/telemetry/";
    for (const char c : name) {
        topic.push_back(c == '.' ? '/' : c);
    }
    return topic;
}

MetricRegistry::Slot& MetricRegistry::slot_for(const std::string& name,
                                               MetricKind kind) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
        if (!valid_name(name)) {
            throw Error("telemetry: invalid metric name '" + name + "'");
        }
        it = metrics_.emplace(name, Slot{}).first;
        it->second.kind = kind;
        switch (kind) {
            case MetricKind::kCounter:
                it->second.counter = std::make_unique<Counter>();
                break;
            case MetricKind::kGauge:
                it->second.gauge = std::make_unique<Gauge>();
                break;
            case MetricKind::kHistogram:
                it->second.histogram = std::make_unique<Histogram>();
                break;
        }
    } else if (it->second.kind != kind) {
        throw Error("telemetry: metric '" + name + "' already registered as " +
                    kind_name(it->second.kind) + ", requested " +
                    kind_name(kind));
    }
    return it->second;
}

Counter& MetricRegistry::counter(const std::string& name) {
    MutexLock lock(mutex_);
    return *slot_for(name, MetricKind::kCounter).counter;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
    MutexLock lock(mutex_);
    return *slot_for(name, MetricKind::kGauge).gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name) {
    MutexLock lock(mutex_);
    return *slot_for(name, MetricKind::kHistogram).histogram;
}

std::vector<MetricRegistry::Entry> MetricRegistry::entries() const {
    MutexLock lock(mutex_);
    std::vector<Entry> out;
    out.reserve(metrics_.size());
    for (const auto& [name, slot] : metrics_) {  // std::map: sorted
        Entry e;
        e.name = name;
        e.kind = slot.kind;
        e.counter = slot.counter.get();
        e.gauge = slot.gauge.get();
        e.histogram = slot.histogram.get();
        out.push_back(std::move(e));
    }
    return out;
}

std::size_t MetricRegistry::size() const {
    MutexLock lock(mutex_);
    return metrics_.size();
}

}  // namespace dcdb::telemetry
