// MQTT client used by Pushers (and by anything that wants to subscribe to
// live sensor data from a full broker).
//
// Mirrors the subset of the Mosquitto client API the DCDB Pusher relies
// on: connect, publish at QoS 0/1, subscribe with a message callback, and
// a clean disconnect. A background reader thread dispatches inbound
// packets; QoS-1 publishes block until the matching PUBACK arrives.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "mqtt/transport.hpp"
#include "telemetry/registry.hpp"

namespace dcdb::mqtt {

class MqttClient {
  public:
    using MessageHandler = std::function<void(const Publish&)>;

    /// Wrap a connected transport. Call connect() before anything else.
    /// Passing a registry shares the mqtt.client.* counters with the
    /// owner (so a reconnecting Pusher keeps cumulative counts across
    /// client instances); nullptr keeps a private registry.
    explicit MqttClient(std::unique_ptr<Transport> transport,
                        std::string client_id,
                        telemetry::MetricRegistry* registry = nullptr);
    ~MqttClient();

    MqttClient(const MqttClient&) = delete;
    MqttClient& operator=(const MqttClient&) = delete;

    /// Convenience: open a TCP connection and perform the MQTT handshake.
    static std::unique_ptr<MqttClient> connect_tcp(
        const std::string& host, std::uint16_t port,
        const std::string& client_id,
        telemetry::MetricRegistry* registry = nullptr);

    /// CONNECT/CONNACK handshake; starts the reader thread on success.
    void connect(std::uint16_t keepalive_s = 60);

    /// Publish; QoS 1 blocks until PUBACK (or throws on timeout).
    void publish(const std::string& topic,
                 std::span<const std::uint8_t> payload, std::uint8_t qos = 0)
        DCDB_EXCLUDES(ack_mutex_);
    void publish(const std::string& topic, const std::string& payload,
                 std::uint8_t qos = 0) DCDB_EXCLUDES(ack_mutex_);

    /// Set before subscribe(); invoked from the reader thread.
    void set_message_handler(MessageHandler handler)
        DCDB_EXCLUDES(ack_mutex_);

    /// SUBSCRIBE/SUBACK round trip; throws if the broker rejects a filter.
    void subscribe(const std::vector<std::string>& filters,
                   std::uint8_t qos = 0) DCDB_EXCLUDES(ack_mutex_);

    /// Liveness probe: PINGREQ/PINGRESP round trip.
    void ping() DCDB_EXCLUDES(ack_mutex_);

    /// Orderly DISCONNECT; safe to call multiple times.
    void disconnect();

    bool connected() const { return connected_.load(); }

    /// Counters for footprint accounting.
    std::uint64_t acks_received() const { return acks_.value(); }

  private:
    void reader_loop();
    std::uint16_t next_packet_id() DCDB_REQUIRES(ack_mutex_);
    bool ack_pending(std::uint16_t packet_id) const
        DCDB_REQUIRES(ack_mutex_);
    void wait_ack(std::uint16_t packet_id, const char* what)
        DCDB_EXCLUDES(ack_mutex_);

    PacketStream stream_;
    std::string client_id_;
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::Counter& publishes_sent_;
    telemetry::Counter& bytes_sent_;
    telemetry::Counter& acks_;
    telemetry::Histogram& publish_latency_;

    std::thread reader_;
    std::atomic<bool> connected_{false};
    std::atomic<bool> stopping_{false};

    Mutex ack_mutex_;
    CondVar ack_cv_;
    MessageHandler handler_ DCDB_GUARDED_BY(ack_mutex_);
    // Ids awaiting their PUBACK/SUBACK: one per publishing thread, so a
    // short vector that keeps its capacity (no node per publish).
    std::vector<std::uint16_t> pending_acks_ DCDB_GUARDED_BY(ack_mutex_);
    std::uint16_t packet_id_seq_ DCDB_GUARDED_BY(ack_mutex_){0};
    bool ping_outstanding_ DCDB_GUARDED_BY(ack_mutex_){false};
};

}  // namespace dcdb::mqtt
