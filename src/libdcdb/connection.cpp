#include "libdcdb/connection.hpp"

#include <algorithm>
#include <cmath>

#include "libdcdb/virtual_sensor.hpp"
#include "mqtt/topic.hpp"

namespace dcdb::lib {

Connection::Connection(store::StoreCluster& cluster, store::MetaStore& meta)
    : cluster_(cluster), meta_(meta), mapper_(meta), metadata_store_(meta) {}

std::vector<Reading> Connection::query_raw(const std::string& topic,
                                           TimestampNs t0,
                                           TimestampNs t1) const {
    return query_series(mapper_, cluster_, topic, t0, t1);
}

std::vector<Sample> Connection::query(const std::string& topic,
                                      TimestampNs t0, TimestampNs t1) {
    const std::string normalized = normalize_sensor_topic(topic);
    const auto md = metadata_store_.get(normalized);
    if (md && md->is_virtual) {
        VirtualEvaluator evaluator(*this);
        return evaluator.evaluate(normalized, t0, t1);
    }
    const double scale = md ? md->scale : 1.0;
    std::vector<Sample> out;
    for (const auto& r : query_raw(normalized, t0, t1))
        out.push_back({r.ts, static_cast<double>(r.value) * scale});
    return out;
}

void Connection::insert(const std::string& topic, const Reading& reading,
                        std::uint32_t ttl_s) {
    const SensorId sid = mapper_.to_sid(topic);
    cluster_.insert(sensor_key(sid, reading.ts), reading.ts, reading.value,
                    ttl_s);
}

void Connection::insert(std::span<const TopicReading> readings,
                        std::uint32_t ttl_s) {
    constexpr std::size_t kBatchRows = 1024;
    std::vector<store::BatchEntry> batch;
    batch.reserve(std::min(readings.size(), kBatchRows));
    for (const auto& [topic, reading] : readings) {
        batch.push_back({sensor_key(mapper_.to_sid(topic), reading.ts),
                         reading.ts, reading.value, ttl_s});
        if (batch.size() == kBatchRows) {
            cluster_.insert_batch(batch);
            batch.clear();
        }
    }
    cluster_.insert_batch(batch);
}

double Connection::integral(const std::string& topic, TimestampNs t0,
                            TimestampNs t1) {
    const auto series = query(topic, t0, t1);
    double sum = 0;
    for (std::size_t i = 1; i < series.size(); ++i) {
        const double dt =
            static_cast<double>(series[i].ts - series[i - 1].ts) / 1e9;
        sum += 0.5 * (series[i].value + series[i - 1].value) * dt;
    }
    return sum;
}

std::vector<Sample> Connection::derivative(const std::string& topic,
                                           TimestampNs t0, TimestampNs t1) {
    const auto series = query(topic, t0, t1);
    std::vector<Sample> out;
    for (std::size_t i = 1; i < series.size(); ++i) {
        const double dt =
            static_cast<double>(series[i].ts - series[i - 1].ts) / 1e9;
        if (dt <= 0) continue;
        out.push_back({series[i].ts,
                       (series[i].value - series[i - 1].value) / dt});
    }
    return out;
}

std::vector<std::string> Connection::list_sensors(
    const std::string& prefix) const {
    std::vector<std::string> out;
    const std::string normalized =
        prefix.empty() ? "" : normalize_sensor_topic(prefix);
    for (const auto& [key, value] : meta_.scan_prefix("topics/")) {
        const std::string topic = key.substr(std::string("topics/").size());
        if (normalized.empty() ||
            topic == normalized ||
            (topic.size() > normalized.size() &&
             topic.compare(0, normalized.size(), normalized) == 0 &&
             topic[normalized.size()] == '/'))
            out.push_back(topic);
    }
    return out;
}

void Connection::define_virtual(const std::string& topic,
                                const std::string& expression,
                                const std::string& unit, double scale) {
    // Validate the expression up front so bad definitions fail loudly.
    parse_expression(expression);
    SensorMetadata md;
    md.topic = normalize_sensor_topic(topic);
    md.unit = unit;
    md.scale = scale;
    md.is_virtual = true;
    md.expression = expression;
    metadata_store_.publish(md);
}

double interpolate_at(const std::vector<Sample>& series, TimestampNs ts) {
    if (series.empty()) throw QueryError("interpolation over empty series");
    if (ts <= series.front().ts) return series.front().value;
    if (ts >= series.back().ts) return series.back().value;
    const auto it = std::lower_bound(
        series.begin(), series.end(), ts,
        [](const Sample& s, TimestampNs t) { return s.ts < t; });
    const auto& hi = *it;
    const auto& lo = *(it - 1);
    if (hi.ts == lo.ts) return hi.value;
    const double alpha = static_cast<double>(ts - lo.ts) /
                         static_cast<double>(hi.ts - lo.ts);
    return lo.value + alpha * (hi.value - lo.value);
}

}  // namespace dcdb::lib
