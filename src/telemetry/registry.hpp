// Metric registry: hierarchical dot-names -> metric objects.
//
// A registry is an ordinary object, not a process singleton: tests and
// benchmarks run many Pushers / Collect Agents in one process, and each
// owns its own registry so counts never bleed between instances. The
// registry owns every metric it hands out; references stay valid for the
// registry's lifetime, so hot paths capture `Counter&` once at
// construction and never look names up again.
//
// Names are lowercase dot-paths ("pusher.push.readings") and map
// deterministically onto the repo's topic/SID grammar:
//
//     <topicPrefix>/telemetry/<name with '.' -> '/'>
//
// which keeps self-fed telemetry inside the same 8-level, 128-bit SID
// space as every facility sensor (core/sensor_id.hpp). See DESIGN.md §8.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "telemetry/metrics.hpp"

namespace dcdb::telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

class MetricRegistry {
  public:
    /// `refresh`, if set, must be safe to call from any thread once the
    /// registry is shared.
    explicit MetricRegistry(std::function<void()> refresh = nullptr)
        : refresh_(std::move(refresh)) {}
    MetricRegistry(const MetricRegistry&) = delete;
    MetricRegistry& operator=(const MetricRegistry&) = delete;

    /// Get-or-create. Throws dcdb::Error on an invalid name or when the
    /// name is already registered with a different kind. The returned
    /// reference is valid for the registry's lifetime.
    Counter& counter(const std::string& name) DCDB_EXCLUDES(mutex_);
    Gauge& gauge(const std::string& name) DCDB_EXCLUDES(mutex_);
    Histogram& histogram(const std::string& name) DCDB_EXCLUDES(mutex_);

    /// Live metric pointers, sorted by name. Pointers remain valid (and
    /// hot) after the call; used by the self-feed group and exporters.
    struct Entry {
        std::string name;
        MetricKind kind{MetricKind::kCounter};
        const Counter* counter{nullptr};
        const Gauge* gauge{nullptr};
        const Histogram* histogram{nullptr};
    };
    std::vector<Entry> entries() const DCDB_EXCLUDES(mutex_);

    std::size_t size() const DCDB_EXCLUDES(mutex_);

    /// Run the owner's refresh hook, which sets the gauges it computes
    /// on demand (a cache's size, its pending readings). The exporters
    /// and the self-feed run it before they read.
    void refresh() const {
        if (refresh_) refresh_();
    }

    /// Name grammar: 1-6 components separated by '.', each matching
    /// [a-z0-9_]+ (the sensor-topic alphabet, so names embed into topics
    /// without escaping).
    static bool valid_name(const std::string& name);

    /// Deterministic metric-name -> MQTT-topic mapping. Throws
    /// dcdb::Error if the result would exceed the SID grammar's 8
    /// hierarchy levels (extra_levels reserves suffix room, e.g. /p99).
    static std::string to_topic(const std::string& topic_prefix,
                                const std::string& name,
                                std::size_t extra_levels = 0);

  private:
    struct Slot {
        MetricKind kind{MetricKind::kCounter};
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Slot& slot_for(const std::string& name, MetricKind kind)
        DCDB_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<std::string, Slot> metrics_ DCDB_GUARDED_BY(mutex_);
    const std::function<void()> refresh_;
};

/// Shared pattern for components that accept an optional external
/// registry (to share one namespace with their owner) but must still work
/// standalone in unit tests: resolve to the external registry, or
/// lazily create a private one in `owned`.
inline MetricRegistry& resolve_registry(
    MetricRegistry* external, std::unique_ptr<MetricRegistry>& owned) {
    if (external) return *external;
    if (!owned) owned = std::make_unique<MetricRegistry>();
    return *owned;
}

}  // namespace dcdb::telemetry
