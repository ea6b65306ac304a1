// The Pusher: DCDB's per-node data collection daemon (paper, Section
// 4.1). Owns the plugins, the sampling thread pool, the Pusher-wide
// sensor cache, the MQTT client pushing to a Collect Agent, and the
// RESTful API server.
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

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/mutex.hpp"
#include "common/random.hpp"
#include "core/sensor_cache.hpp"
#include "mqtt/client.hpp"
#include "net/http.hpp"
#include "pusher/mqtt_pusher.hpp"
#include "pusher/plugin.hpp"
#include "pusher/sampler.hpp"
#include "telemetry/registry.hpp"

namespace dcdb::pusher {

struct PusherStats {
    std::size_t plugins{0};
    std::size_t sensors{0};
    std::uint64_t samples_taken{0};
    std::uint64_t readings_pushed{0};
    std::uint64_t messages_sent{0};
    std::size_t cache_bytes{0};
    // Delivery-reliability counters (see MqttPusherStats).
    std::uint64_t publish_failures{0};
    /// Pending readings that a full cache slot dropped, outages included:
    /// readings_pushed + readings_dropped + readings_pending == readings
    /// sampled.
    std::uint64_t readings_dropped{0};
    /// Readings pending in the cache's slots, waiting for a publish.
    std::uint64_t readings_pending{0};
    std::uint64_t reconnects{0};
    std::uint64_t reconnect_failures{0};
};

class Pusher {
  public:
    /// Build from a parsed configuration. `transport`, when provided,
    /// overrides global.mqttBroker (used for in-process brokers); when
    /// null and mqttBroker is "none", the Pusher samples into its cache
    /// without publishing.
    Pusher(ConfigNode config,
           std::unique_ptr<mqtt::Transport> transport = nullptr);

    /// Convenience: parse the file, remember its path for REST reloads.
    static std::unique_ptr<Pusher> from_file(
        const std::string& config_path,
        std::unique_ptr<mqtt::Transport> transport = nullptr);

    ~Pusher();
    Pusher(const Pusher&) = delete;
    Pusher& operator=(const Pusher&) = delete;

    void start();
    void stop();

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
    /// loop, MQTT client, REST server) registers here, and /metrics and
    /// the self-feed read from here.
    telemetry::MetricRegistry& telemetry() { return registry_; }
    const telemetry::MetricRegistry& telemetry() const { return registry_; }

    PusherStats stats() const DCDB_EXCLUDES(plugins_mutex_);

    /// A reload may replace it: read it under plugins_mutex() shared.
    const ConfigNode& config() const { return config_; }

    /// Port of the REST API server (0 if disabled).
    std::uint16_t rest_port() const;

    /// One synchronous push round (benches use this for deterministic IO).
    void push_now();

    /// True when an MQTT connection to the Collect Agent is currently up.
    bool mqtt_connected() const DCDB_EXCLUDES(client_mutex_);

    /// True when this Pusher is configured to publish at all ("none"
    /// runs cache-only); /readyz treats an unconfigured broker as ready.
    bool mqtt_configured() const { return mqtt_pusher_ != nullptr; }

    /// Pusher-side flight recorder (sample/coalesce/publish spans).
    telemetry::trace::Tracer& tracer() { return tracer_; }
    const telemetry::trace::Tracer& tracer() const { return tracer_; }

  private:
    void configure_plugins();

    /// ClientProvider for the push thread: returns the live client, or
    /// (for TCP-configured brokers) attempts a reconnect with backoff —
    /// a Pusher must keep sampling through Collect Agent restarts.
    mqtt::MqttClient* client_for_push() DCDB_EXCLUDES(client_mutex_);

    ConfigNode config_;
    std::string config_path_;  // for reloads; may be empty
    std::string topic_prefix_;

    // Declared before every subsystem that registers metrics into it.
    telemetry::MetricRegistry registry_;
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
    // Lock order: MqttPusher::push_mutex_ -> plugins_mutex_ -> the
    // cache's locks (stats() walks the slots), and plugins_mutex_ ->
    // Sampler::mutex_.
    mutable SharedMutex plugins_mutex_;
    std::unique_ptr<Sampler> sampler_;

    mutable Mutex client_mutex_;
    std::unique_ptr<mqtt::MqttClient> mqtt_client_
        DCDB_GUARDED_BY(client_mutex_);
    std::string broker_host_;          // empty for injected transports
    std::uint16_t broker_port_{0};
    // Reconnect state machine: exponential backoff with jitter between
    // attempts, reset on a successful handshake.
    std::uint64_t last_connect_attempt_ns_ DCDB_GUARDED_BY(client_mutex_){0};
    // 0 = next attempt immediate
    TimestampNs reconnect_backoff_ns_ DCDB_GUARDED_BY(client_mutex_){0};
    // current jittered wait
    TimestampNs reconnect_delay_ns_ DCDB_GUARDED_BY(client_mutex_){0};
    TimestampNs reconnect_backoff_min_ns_{250 * kNsPerMs};
    TimestampNs reconnect_backoff_max_ns_{10 * kNsPerSec};
    Rng reconnect_rng_ DCDB_GUARDED_BY(client_mutex_){0xC0FFEEu};
    std::unique_ptr<MqttPusher> mqtt_pusher_;
    std::unique_ptr<HttpServer> rest_server_;
    bool started_{false};
};

}  // namespace dcdb::pusher
