// Collect Agent: DCDB's data broker (paper, Section 4.2).
//
// Embeds a reduced MQTT broker (publish path only — no topic filtering
// overhead), translates each message's topic into a 128-bit SID via the
// persistent topic dictionary, and writes every reading to the Storage
// Backend cluster. Keeps a sensor cache of the latest readings of all
// connected Pushers, served over the same RESTful API as a Pusher's
// (Section 5.3), and maintains the sensor hierarchy tree.
//
// Configuration:
//   global {
//       mqttPort   0        ; TCP listen port (0 = ephemeral)
//       listenTcp  true     ; false = in-process connections only
//       restApi    false
//       cacheWindow 2m
//       ttl        0        ; storage TTL seconds for ingested readings
//       storeMaintenance 0  ; background compaction interval (0 = off)
//   }
//
// A publish the store refuses is not acknowledged: the agent ends its
// session, and a QoS-1 Pusher keeps the readings pending and sends them
// again after it reconnects.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "common/config.hpp"
#include "core/daemon_api.hpp"
#include "core/payload.hpp"
#include "core/sensor_index.hpp"
#include "mqtt/broker.hpp"
#include "net/http.hpp"
#include "store/cluster.hpp"
#include "store/metastore.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace dcdb::collectagent {

struct CollectAgentStats {
    std::uint64_t messages{0};
    std::uint64_t readings{0};
    /// READINGS discarded because they could not be decoded (dropped —
    /// retrying cannot fix a malformed message). A torn payload tail
    /// counts as one discarded reading, so a wholly unreadable message
    /// still registers; readings lost to an unmappable topic count
    /// individually. Counted once the rest of the publish is stored.
    std::uint64_t decode_errors{0};
    /// Readings recovered from the intact prefix of a torn payload
    /// (instead of discarding the whole message with its tail), counted
    /// once stored.
    std::uint64_t salvaged{0};
    /// Publishes the store refused (each left unacknowledged).
    std::uint64_t store_errors{0};
    /// READINGS those publishes carried for the store (not the ones on a
    /// malformed topic). A QoS-1 publisher still holds them, and each
    /// refused resend counts them again.
    std::uint64_t refused{0};
    std::size_t known_sensors{0};
};

class CollectAgent {
  public:
    /// `cluster` and `meta` are owned by the caller (they are shared with
    /// libDCDB front-ends) and must outlive the agent. `registry`
    /// receives the collectagent.* metrics (and is forwarded to the
    /// embedded broker and REST server); nullptr keeps a private one.
    CollectAgent(const ConfigNode& config, store::StoreCluster* cluster,
                 store::MetaStore* meta,
                 telemetry::MetricRegistry* registry = nullptr);
    ~CollectAgent();

    CollectAgent(const CollectAgent&) = delete;
    CollectAgent& operator=(const CollectAgent&) = delete;

    /// MQTT TCP port Pushers connect to (0 when TCP is disabled).
    std::uint16_t mqtt_port() const;

    /// In-process Pusher connection (client-side transport).
    std::unique_ptr<mqtt::Transport> connect_inproc();

    std::uint16_t rest_port() const;

    /// The sensor cache (REST /sensors): one slot per known sensor.
    const CacheSet& cache() const { return index_.cache(); }
    const SensorTree& hierarchy() const { return index_.hierarchy(); }
    TopicMapper& mapper() { return index_.mapper(); }

    /// The agent-wide metric registry (own, broker and REST metrics).
    telemetry::MetricRegistry& telemetry() { return registry_; }
    const telemetry::MetricRegistry& telemetry() const { return registry_; }

    CollectAgentStats stats() const;

    /// The agent-side flight recorder: decode / insert / store spans for
    /// traced batches, completion (end-to-end latency + tail capture)
    /// included. The /traces endpoint reads from here.
    telemetry::trace::Tracer& tracer() { return tracer_; }
    const telemetry::trace::Tracer& tracer() const { return tracer_; }

    /// Readiness probe (the REST /readyz endpoint): the store and the
    /// topic dictionary accept writes and, when this agent owns the
    /// maintenance thread, that thread is alive.
    Readiness readiness() const;

    /// Register a listener invoked (from broker session threads) for
    /// every live reading — the attachment point of the streaming
    /// analytics layer. Set before traffic flows; not thread-safe against
    /// concurrent publishes.
    using LiveListener =
        std::function<void(const std::string& topic, const Reading&)>;
    void set_live_listener(LiveListener listener);

    /// Insert a derived reading through the same path as ingested MQTT
    /// data (SID mapping, storage, cache, hierarchy) without notifying
    /// the live listener — analytics output must not re-enter analytics.
    /// Throws the store's error if it refuses the reading.
    void ingest(const std::string& topic, const Reading& reading);

    /// Read a stored time series back (the REST /query endpoint — the
    /// equivalent of the paper's Grafana data-source plugin path).
    std::vector<Reading> query_stored(const std::string& topic,
                                      TimestampNs t0, TimestampNs t1) const;

    void stop();

  private:
    /// One decoded section, resolved to its sensor, awaiting storage.
    struct PendingSection;
    /// How a batch of sections reached the agent.
    struct Arrival;

    /// The broker's sink. A StoreError propagates, so the broker ends the
    /// session and sends no PUBACK.
    void on_publish(const mqtt::Publish& message);

    /// Resolves a decoded section into `out` (empty sections are
    /// resolved but not kept). A malformed topic discards the section;
    /// returns the number of readings it discarded. A dictionary write
    /// the store refuses throws StoreError.
    std::size_t resolve_section(std::string_view topic,
                                ReadingsView readings,
                                std::vector<PendingSection>& out);

    /// The path on_publish and ingest share once their sections are
    /// resolved: decodes each section into one mutation per day bucket,
    /// stores them as one batch (one commit-log record) and, once it is
    /// stored, pushes each section's newest reading through its handle.
    /// If the store refuses the batch, throws StoreError before caching
    /// any of it.
    void store_sections(std::span<const PendingSection> sections,
                        const Arrival& arrival);

    store::StoreCluster* cluster_;
    const store::MetaStore& meta_;
    // Declared before every member that registers metrics into it.
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::MetricRegistry& registry_;
    SensorIndex index_;
    std::uint32_t ttl_s_;
    /// True when this agent owns the cluster's maintenance thread
    /// (global.storeMaintenance > 0) and must stop it on shutdown.
    bool owns_maintenance_{false};

    LiveListener live_listener_;
    std::unique_ptr<mqtt::MqttBroker> broker_;
    std::unique_ptr<HttpServer> rest_server_;

    telemetry::Counter& messages_;
    telemetry::Counter& readings_;
    telemetry::Counter& decode_errors_;
    telemetry::Counter& decode_salvaged_;
    telemetry::Counter& store_errors_;
    telemetry::Counter& refused_;
    telemetry::Histogram& store_latency_;
    /// Declared after the registry it registers trace.* metrics into.
    /// The broker (route spans) and the store cluster (log_append / sync
    /// spans) both record into this tracer; it is wired to them in the
    /// constructor body, after member initialization completes.
    telemetry::trace::Tracer tracer_;
};

/// REST server factory (shared by the agent constructor).
std::unique_ptr<HttpServer> make_agent_rest_server(CollectAgent& agent);

}  // namespace dcdb::collectagent
