#include "pusher/telemetry_feed.hpp"

#include <memory>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace dcdb::pusher {

TelemetryGroup::TelemetryGroup(const telemetry::MetricRegistry* registry,
                               const std::string& topic_prefix,
                               TimestampNs interval_ns)
    : SensorGroup("telemetry", interval_ns), registry_(registry) {
    for (const auto& entry : registry->entries()) {
        std::string base_topic;
        try {
            const std::size_t extra =
                entry.kind == telemetry::MetricKind::kHistogram ? 1 : 0;
            base_topic = telemetry::MetricRegistry::to_topic(
                topic_prefix, entry.name, extra);
        } catch (const Error& e) {
            DCDB_WARN("telemetry") << "metric " << entry.name
                                   << " not self-fed: " << e.what();
            continue;
        }
        switch (entry.kind) {
            case telemetry::MetricKind::kCounter:
                add_sensor(
                    std::make_unique<SensorBase>(entry.name, base_topic));
                sources_.push_back({entry.counter, nullptr, nullptr,
                                    Source::Stat::kValue});
                break;
            case telemetry::MetricKind::kGauge:
                add_sensor(
                    std::make_unique<SensorBase>(entry.name, base_topic));
                sources_.push_back({nullptr, entry.gauge, nullptr,
                                    Source::Stat::kValue});
                break;
            case telemetry::MetricKind::kHistogram: {
                add_sensor(std::make_unique<SensorBase>(entry.name + ".p50",
                                                        base_topic + "/p50"));
                sources_.push_back({nullptr, nullptr, entry.histogram,
                                    Source::Stat::kP50});
                add_sensor(std::make_unique<SensorBase>(entry.name + ".p99",
                                                        base_topic + "/p99"));
                sources_.push_back({nullptr, nullptr, entry.histogram,
                                    Source::Stat::kP99});
                add_sensor(std::make_unique<SensorBase>(
                    entry.name + ".count", base_topic + "/count"));
                sources_.push_back({nullptr, nullptr, entry.histogram,
                                    Source::Stat::kCount});
                break;
            }
        }
    }
}

bool TelemetryGroup::do_read(TimestampNs /*ts*/, std::vector<Value>& out) {
    registry_->refresh();
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        const Source& src = sources_[i];
        if (src.counter) {
            out[i] = static_cast<Value>(src.counter->value());
        } else if (src.gauge) {
            out[i] = static_cast<Value>(src.gauge->value());
        } else {
            const auto snap = src.histogram->snapshot();
            switch (src.stat) {
                case Source::Stat::kP50:
                    out[i] = static_cast<Value>(snap.quantile(0.5));
                    break;
                case Source::Stat::kP99:
                    out[i] = static_cast<Value>(snap.quantile(0.99));
                    break;
                default:
                    out[i] = static_cast<Value>(snap.count());
                    break;
            }
        }
    }
    return true;
}

TelemetryPlugin::TelemetryPlugin(const telemetry::MetricRegistry* registry,
                                 const std::string& topic_prefix,
                                 TimestampNs interval_ns) {
    add_group(
        std::make_unique<TelemetryGroup>(registry, topic_prefix, interval_ns));
}

}  // namespace dcdb::pusher
