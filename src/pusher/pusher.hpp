// The Pusher: DCDB's per-node data collection daemon (paper, Section
// 4.1). Owns the plugins, the sampling thread pool, the Pusher-wide
// sensor cache, the MQTT session to a Collect Agent with the push thread
// that publishes to it, and the RESTful API server.
//
// A push round publishes every sensor's pending readings, each sensor
// group as v1 batch payloads (core/payload.hpp): one per group, split
// only where a payload would exceed the wire limits.
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
//
// Configuration (property-tree format):
//
//   global {
//       mqttBroker   127.0.0.1:1883   ; or "none" for cache-only operation
//       topicPrefix  /lrz/sng/rack0/node0
//       threads      2                ; sampling threads
//       cacheWindow  2m               ; sensor cache history
//       pushInterval 1s
//       burstMode    false            ; send 2x/minute instead
//       qos          0
//       restApi      true
//   }
//   plugins {
//       tester { group t { sensors 100 ; interval 1s } }
//       procfs { ... }
//   }
#pragma once

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/mutex.hpp"
#include "common/random.hpp"
#include "core/payload.hpp"
#include "core/sensor_cache.hpp"
#include "mqtt/client.hpp"
#include "net/http.hpp"
#include "pusher/plugin.hpp"
#include "pusher/sampler.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace dcdb::pusher {

struct PusherStats {
    std::size_t plugins{0};
    std::size_t sensors{0};
    std::uint64_t samples_taken{0};
    std::uint64_t readings_pushed{0};  // released after a publish
    std::uint64_t messages_sent{0};    // successfully published only
    std::size_t cache_bytes{0};
    std::uint64_t publish_failures{0};  // failed publish attempts
    /// Pending readings that a full cache slot dropped, outages included:
    /// readings_pushed + readings_dropped + readings_pending == readings
    /// sampled.
    std::uint64_t readings_dropped{0};
    /// Readings pending in the cache's slots, waiting for a publish.
    std::uint64_t readings_pending{0};
    /// Sessions opened after the first one.
    std::uint64_t reconnects{0};
    /// Failed attempts to open a session, the first one included.
    std::uint64_t reconnect_failures{0};
};

class Pusher {
  public:
    /// Build from a parsed configuration. `transport`, when provided,
    /// overrides global.mqttBroker (used for in-process brokers) and
    /// carries the first session only; when null and mqttBroker is
    /// "none", the Pusher samples into its cache without publishing.
    Pusher(ConfigNode config,
           std::unique_ptr<mqtt::Transport> transport = nullptr);

    /// Convenience: parse the file, remember its path for REST reloads.
    static std::unique_ptr<Pusher> from_file(
        const std::string& config_path,
        std::unique_ptr<mqtt::Transport> transport = nullptr);

    ~Pusher();
    Pusher(const Pusher&) = delete;
    Pusher& operator=(const Pusher&) = delete;

    void start() DCDB_EXCLUDES(stop_mutex_);
    /// Stops sampling and the push thread, then flushes: push rounds run
    /// until nothing is pending. A refusal ends its session, so the next
    /// round reconnects on the backoff. The flush gives up when a
    /// connect fails, when a round fails on a session that is still up,
    /// or once it has waited reconnectBackoffMax in total.
    void stop() DCDB_EXCLUDES(stop_mutex_, push_mutex_, client_mutex_);

    /// Re-read a plugin's configuration subtree and rebuild its sensors
    /// without interrupting the rest of the Pusher (REST reload). It
    /// waits out the plugin's reads in flight and any push round, and
    /// holds plugins_mutex() exclusively while it rebuilds. The cache
    /// keeps each sensor's slot, so a sensor rebuilt under the same topic
    /// keeps its history and its undelivered readings.
    void reload_plugin(const std::string& name) DCDB_EXCLUDES(plugins_mutex_);

    Plugin* find_plugin(const std::string& name);
    /// The plugin list is fixed at construction; their groups change on
    /// a reload, so walk those under plugins_mutex() held shared.
    const std::vector<std::unique_ptr<Plugin>>& plugins() const {
        return plugins_;
    }
    SharedMutex& plugins_mutex() const { return plugins_mutex_; }

    CacheSet& cache() { return *cache_; }
    const std::string& topic_prefix() const { return topic_prefix_; }

    /// The Pusher-wide metric registry: every subsystem (sampler, push
    /// rounds, MQTT client, REST server) registers here, and /metrics and
    /// the self-feed read from here.
    telemetry::MetricRegistry& telemetry() { return registry_; }
    const telemetry::MetricRegistry& telemetry() const { return registry_; }

    PusherStats stats() const DCDB_EXCLUDES(plugins_mutex_);

    /// A reload may replace it: read it under plugins_mutex() shared.
    const ConfigNode& config() const { return config_; }

    /// Port of the REST API server (0 if disabled).
    std::uint16_t rest_port() const;

    /// One synchronous push round (benches use this for deterministic IO).
    void push_now() DCDB_EXCLUDES(push_mutex_);

    /// True when an MQTT connection to the Collect Agent is currently up.
    bool mqtt_connected() const DCDB_EXCLUDES(client_mutex_);

    /// True when this Pusher is configured to publish at all ("none"
    /// runs cache-only); /readyz treats an unconfigured broker as ready.
    bool mqtt_configured() const { return publishes_; }

    /// Pusher-side flight recorder (sample/coalesce/publish spans).
    telemetry::trace::Tracer& tracer() { return tracer_; }
    const telemetry::trace::Tracer& tracer() const { return tracer_; }

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

    void configure_plugins();

    /// Opens a session, on the reconnect backoff: the injected transport
    /// carries the first one, else it dials global.mqttBroker over TCP.
    /// Returns nullptr while the backoff waits or when the attempt
    /// fails; readings then stay pending in the sensors' (bounded) slots.
    mqtt::MqttClient* connect() DCDB_REQUIRES(client_mutex_);

    void push_loop() DCDB_EXCLUDES(stop_mutex_, push_mutex_);
    /// One push round: publish every sensor's pending readings. Returns
    /// false when no session was up and connect() opened none.
    bool push_round() DCDB_REQUIRES(push_mutex_)
        DCDB_EXCLUDES(client_mutex_);
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
    void flush() DCDB_EXCLUDES(push_mutex_, client_mutex_, stop_mutex_);

    ConfigNode config_;
    std::string config_path_;  // for reloads; may be empty
    std::string topic_prefix_;

    // Declared before every subsystem that registers metrics into it.
    // Its refresh hook sets the two gauges below from the cache.
    telemetry::MetricRegistry registry_;
    telemetry::Counter& readings_pushed_;
    telemetry::Counter& messages_sent_;
    telemetry::Counter& publish_failures_;
    telemetry::Counter& reconnects_;
    telemetry::Counter& reconnect_failures_;
    telemetry::Gauge& cache_bytes_;
    telemetry::Gauge& readings_pending_;
    // Declared before the sampler and push thread that record into it.
    telemetry::trace::Tracer tracer_;

    // Declared before the plugins, so every sensor's slot outlives it.
    std::unique_ptr<CacheSet> cache_;
    std::vector<std::unique_ptr<Plugin>> plugins_;
    // Held shared by every walk of the plugins' groups (push rounds,
    // stats(), the REST plugin routes) and by REST readers of config_,
    // and exclusively by reload_plugin.
    // Lock order: push_mutex_ -> plugins_mutex_ -> the cache's locks
    // (stats() walks the slots), and plugins_mutex_ -> Sampler::mutex_.
    mutable SharedMutex plugins_mutex_;
    std::unique_ptr<Sampler> sampler_;

    bool publishes_{false};
    TimestampNs push_interval_ns_{kNsPerSec};
    std::uint8_t qos_{0};

    // Serializes push rounds (the push thread, push_now, the final
    // flush), so a sensor's peek and release never interleave with
    // another round's. Lock order: push_mutex_ -> plugins_mutex_
    // (shared) -> CacheSet::Slot::mutex_, and push_mutex_ ->
    // client_mutex_; it stays held across a publish. The scratch below
    // is reused every round: drain_ holds one group's peek at a time and
    // payload_ one encoded payload. A buffer grown by a backlog is freed
    // once rounds are small again.
    Mutex push_mutex_;
    std::vector<Reading> drain_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<Drained> drained_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<SensorBatch> sections_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<std::uint8_t> payload_ DCDB_GUARDED_BY(push_mutex_);

    // The session and its reconnect state machine: exponential backoff
    // with jitter between attempts. Only a push round replaces the
    // client, so a round publishes through it without this lock.
    mutable Mutex client_mutex_;
    std::unique_ptr<mqtt::MqttClient> mqtt_client_
        DCDB_GUARDED_BY(client_mutex_);
    // The injected transport, until the first session takes it.
    std::unique_ptr<mqtt::Transport> transport_
        DCDB_GUARDED_BY(client_mutex_);
    std::string broker_host_;  // empty with an injected transport
    std::uint16_t broker_port_{0};
    TimestampNs last_connect_attempt_ns_ DCDB_GUARDED_BY(client_mutex_){0};
    // 0 = next attempt immediate
    TimestampNs reconnect_backoff_ns_ DCDB_GUARDED_BY(client_mutex_){0};
    // current jittered wait
    TimestampNs reconnect_delay_ns_ DCDB_GUARDED_BY(client_mutex_){0};
    TimestampNs reconnect_backoff_min_ns_{250 * kNsPerMs};
    TimestampNs reconnect_backoff_max_ns_{10 * kNsPerSec};
    Rng reconnect_rng_ DCDB_GUARDED_BY(client_mutex_){0xC0FFEEu};

    std::unique_ptr<HttpServer> rest_server_;
    bool started_{false};

    // The push thread waits for its next round on stop_cv_, so stop()
    // wakes it at once. A leaf lock.
    Mutex stop_mutex_;
    CondVar stop_cv_;
    bool stopping_ DCDB_GUARDED_BY(stop_mutex_){false};
    std::thread push_thread_;
};

}  // namespace dcdb::pusher
