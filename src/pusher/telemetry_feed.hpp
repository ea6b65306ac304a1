// Self-feed: DCDB monitoring itself through its own pipeline.
//
// The paper's evaluation (Figures 4-10) is measured with DCDB's own
// introspection sensors: a Pusher publishes its performance data like any
// facility sensor, so the monitoring system's history is queryable with
// the stock tools (dcdbquery). TelemetryGroup implements that loop: it is
// an ordinary SensorGroup whose do_read() samples the Pusher's metric
// registry instead of hardware.
//
// Counters and gauges become one sensor each; histograms become three
// (<name>/p50, <name>/p99, <name>/count), published as cumulative values
// so the storage layer's delta/rate machinery applies unchanged.
//
// Feedback amplification is avoided by construction: the sensor set is
// fixed, so each interval publishes a bounded number of readings no
// matter how much the counters grow — the feed adds O(metrics) readings
// per interval, never O(traffic). Metrics registered after construction
// (e.g. per-route HTTP latency histograms materialized by the first
// request) join the feed on the next restart; the sensor list stays
// immutable so sampler and push threads iterate it without locks.
#pragma once

#include <string>
#include <vector>

#include "pusher/plugin.hpp"
#include "pusher/sensor_group.hpp"
#include "telemetry/registry.hpp"

namespace dcdb::pusher {

class TelemetryGroup : public SensorGroup {
  public:
    /// Builds one sensor per registry entry present *now*. Metric names
    /// whose topic would exceed the 8-level SID grammar are skipped with
    /// a warning rather than failing the Pusher. Every sample runs the
    /// registry's refresh hook first (MetricRegistry::set_refresh).
    TelemetryGroup(const telemetry::MetricRegistry* registry,
                   const std::string& topic_prefix, TimestampNs interval_ns);

  protected:
    bool do_read(TimestampNs ts, std::vector<Value>& out) override;

  private:
    /// Which registry object (and which statistic of it) feeds
    /// sensors()[i]. Exactly one pointer is set.
    struct Source {
        const telemetry::Counter* counter{nullptr};
        const telemetry::Gauge* gauge{nullptr};
        const telemetry::Histogram* histogram{nullptr};
        enum class Stat { kValue, kP50, kP99, kCount } stat{Stat::kValue};
    };

    const telemetry::MetricRegistry* registry_;
    std::vector<Source> sources_;  // parallel to sensors()
};

/// Internal plugin wrapping the single TelemetryGroup, so the self-feed
/// rides the normal plugin -> group -> sensor machinery (sampler, push
/// loop, REST listing) without special cases.
class TelemetryPlugin : public Plugin {
  public:
    TelemetryPlugin(const telemetry::MetricRegistry* registry,
                    const std::string& topic_prefix, TimestampNs interval_ns);

    std::string name() const override { return "telemetry"; }

    /// The self-feed is configured by the Pusher's global section, not a
    /// plugins subtree; reconfigure is a no-op.
    void configure(const ConfigNode&, const PluginContext&) override {}
};

}  // namespace dcdb::pusher
