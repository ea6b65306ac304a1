// MQTT push thread: periodically publishes every sensor's pending
// readings to the Collect Agent, each sensor group as v1 batch payloads
// (core/payload.hpp): one per group, split only where a payload would
// exceed the wire limits.
//
// Supports the two send disciplines studied in the paper (Section 6.2.1):
// continuous (push every push interval, default 1s, with a per-Pusher
// random stagger so thousands of Pushers do not synchronize their sends)
// and burst mode ("regular bursts twice per minute", which reduced
// network interference for AMG).
//
// Delivery reliability: a round peeks the pending readings of each
// sensor's cache slot, and the slot releases what a payload carried only
// once that payload is published (after its PUBACK under QoS 1). A failed
// payload's readings stay pending and go out again at the next round, in
// order and in the same section as any fresher ones, so the slots
// (SensorCache::kMaxPending per sensor, oldest dropped and counted in
// pusher.push.dropped) bound every undelivered reading. The storage
// layer keys rows by timestamp, so at-least-once redelivery after an
// unacknowledged QoS-1 publish deduplicates server-side.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/random.hpp"
#include "core/payload.hpp"
#include "mqtt/client.hpp"
#include "pusher/plugin.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace dcdb::pusher {

struct MqttPusherConfig {
    TimestampNs push_interval_ns{kNsPerSec};
    /// Burst mode pushes every 30 s instead of every push interval.
    bool burst_mode{false};
    std::uint8_t qos{0};
    std::uint64_t stagger_seed{0};  // derives the random send stagger
    /// Registry for the pusher.push.* counters; nullptr keeps a private
    /// registry.
    telemetry::MetricRegistry* registry{nullptr};
    /// When set, the push thread picks up traces the sampler parked on
    /// each group, records coalesce/publish spans, and ships the context
    /// in the trailer of the group's first payload. A trace whose
    /// payload fails is not sent again.
    telemetry::trace::Tracer* tracer{nullptr};
};

struct MqttPusherStats {
    std::uint64_t readings_pushed{0};   // released after a publish
    std::uint64_t messages_sent{0};     // successfully published only
    std::uint64_t publish_failures{0};  // failed publish attempts
};

/// Supplies the (re)connected MQTT client for each push round. Returns
/// nullptr while the Collect Agent is unreachable; readings then stay
/// pending in the sensors' (bounded) slots and go out on reconnection.
using ClientProvider = std::function<mqtt::MqttClient*()>;

class MqttPusher {
  public:
    /// `plugins` and `plugins_mutex` must outlive the pusher. A round
    /// walks the plugins' groups holding `plugins_mutex` shared, so a
    /// plugin reload that holds it exclusively never frees a group under
    /// a round.
    MqttPusher(ClientProvider client_provider,
               const std::vector<std::unique_ptr<Plugin>>* plugins,
               SharedMutex* plugins_mutex, MqttPusherConfig config);
    ~MqttPusher();

    void start();
    void stop();

    /// One push round, synchronously (also used by tests): publish
    /// every sensor's pending readings; returns the payloads published.
    std::size_t push_once() DCDB_EXCLUDES(push_mutex_);

    std::uint64_t readings_pushed() const { return readings_.value(); }
    std::uint64_t messages_sent() const { return messages_.value(); }

    MqttPusherStats stats() const;

  private:
    /// One sensor peeked this round: its readings are
    /// drain_[begin, begin + count), and `end` releases them from its
    /// slot.
    struct Drained {
        SensorBase* sensor{nullptr};
        std::size_t begin{0};
        std::size_t count{0};
        std::uint64_t end{0};
    };

    void loop();
    std::span<const Reading> readings_of(const Drained& d) const
        DCDB_REQUIRES(push_mutex_);
    /// Publish the group peeked into drain_/drained_ as the fewest v1
    /// payloads within the wire limits; `trace` rides the first one.
    void publish_group(mqtt::MqttClient* client, std::size_t& sent,
                       const telemetry::trace::TraceContext& trace)
        DCDB_REQUIRES(push_mutex_);
    /// Encode drained_[first, last) as one payload and publish it; only
    /// a published payload releases its sensors' readings.
    void publish_sections(mqtt::MqttClient* client, std::size_t first,
                          std::size_t last, std::size_t& sent,
                          const telemetry::trace::TraceContext& trace)
        DCDB_REQUIRES(push_mutex_);

    ClientProvider client_provider_;
    const std::vector<std::unique_ptr<Plugin>>* plugins_;
    SharedMutex* plugins_mutex_;
    MqttPusherConfig config_;
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::Counter& readings_;
    telemetry::Counter& messages_;
    telemetry::Counter& publish_failures_;
    std::thread thread_;
    std::atomic<bool> stopping_{false};

    // Serializes push rounds (the push thread, push_now, the final
    // flush), so a sensor's peek and release never interleave with
    // another round's. Lock order: push_mutex_ -> *plugins_mutex_
    // (shared) -> CacheSet::Slot::mutex_, and push_mutex_ -> the client
    // provider's lock; it stays held across a publish. The scratch below is reused every round: drain_ holds one
    // group's peek at a time and payload_ one encoded payload. A buffer
    // grown by a backlog is freed once rounds are small again.
    Mutex push_mutex_;
    std::vector<Reading> drain_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<Drained> drained_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<SensorBatch> sections_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<std::uint8_t> payload_ DCDB_GUARDED_BY(push_mutex_);
};

}  // namespace dcdb::pusher
