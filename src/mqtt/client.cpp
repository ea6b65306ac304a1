#include "mqtt/client.hpp"

#include <algorithm>
#include <chrono>

#include "common/clock.hpp"
#include "common/logging.hpp"

namespace dcdb::mqtt {

namespace {
constexpr auto kAckTimeout = std::chrono::seconds(10);
}

MqttClient::MqttClient(std::unique_ptr<Transport> transport,
                       std::string client_id,
                       telemetry::MetricRegistry* registry)
    : stream_(std::move(transport)),
      client_id_(std::move(client_id)),
      publishes_sent_(telemetry::resolve_registry(registry, owned_registry_)
                          .counter("mqtt.client.publishes")),
      bytes_sent_(telemetry::resolve_registry(registry, owned_registry_)
                      .counter("mqtt.client.bytes.sent")),
      acks_(telemetry::resolve_registry(registry, owned_registry_)
                .counter("mqtt.client.acks")),
      publish_latency_(telemetry::resolve_registry(registry, owned_registry_)
                           .histogram("mqtt.client.publish.latency")) {}

MqttClient::~MqttClient() { disconnect(); }

std::unique_ptr<MqttClient> MqttClient::connect_tcp(
    const std::string& host, std::uint16_t port, const std::string& client_id,
    telemetry::MetricRegistry* registry) {
    auto transport =
        std::make_unique<TcpTransport>(TcpStream::connect(host, port));
    auto client = std::make_unique<MqttClient>(std::move(transport),
                                               client_id, registry);
    client->connect();
    return client;
}

void MqttClient::connect(std::uint16_t keepalive_s) {
    stream_.write_packet(Connect{client_id_, keepalive_s, true});
    // Handshake happens before the reader thread exists, so read inline.
    Packet reply;
    if (!stream_.read_packet(reply))
        throw NetError("connection closed during MQTT handshake");
    const auto* ack = std::get_if<Connack>(&reply);
    if (!ack) throw ProtocolError("expected CONNACK");
    if (ack->return_code != 0)
        throw ProtocolError("connection refused, rc=" +
                            std::to_string(ack->return_code));
    connected_.store(true);
    reader_ = std::thread([this] { reader_loop(); });
}

void MqttClient::reader_loop() {
    // One packet reused for the session: inbound publishes decode into
    // its storage.
    Packet packet;
    try {
        while (!stopping_.load(std::memory_order_relaxed)) {
            if (!stream_.read_packet(packet)) break;
            if (auto* pub = std::get_if<Publish>(&packet)) {
                if (pub->qos == 1) stream_.write_packet(Puback{pub->packet_id});
                MessageHandler handler;
                {
                    MutexLock lock(ack_mutex_);
                    handler = handler_;
                }
                if (handler) handler(*pub);
            } else if (auto* ack = std::get_if<Puback>(&packet)) {
                acks_.add(1);
                MutexLock lock(ack_mutex_);
                std::erase(pending_acks_, ack->packet_id);
                ack_cv_.notify_all();
            } else if (auto* sub_ack = std::get_if<Suback>(&packet)) {
                MutexLock lock(ack_mutex_);
                for (const auto rc : sub_ack->return_codes) {
                    if (rc == 0x80) {
                        DCDB_WARN("mqtt")
                            << "broker rejected a subscription filter";
                    }
                }
                std::erase(pending_acks_, sub_ack->packet_id);
                ack_cv_.notify_all();
            } else if (std::get_if<Unsuback>(&packet)) {
                // No unsubscribe waiters implemented; ignore.
            } else if (std::get_if<Pingresp>(&packet)) {
                MutexLock lock(ack_mutex_);
                ping_outstanding_ = false;
                ack_cv_.notify_all();
            }
        }
    } catch (const std::exception& e) {
        if (!stopping_.load()) {
            DCDB_DEBUG("mqtt") << "client reader stopped: " << e.what();
        }
    }
    connected_.store(false);
    ack_cv_.notify_all();
}

bool MqttClient::ack_pending(std::uint16_t packet_id) const {
    return std::find(pending_acks_.begin(), pending_acks_.end(),
                     packet_id) != pending_acks_.end();
}

std::uint16_t MqttClient::next_packet_id() {
    // Caller holds ack_mutex_. Zero is not a valid MQTT packet id.
    if (++packet_id_seq_ == 0) ++packet_id_seq_;
    return packet_id_seq_;
}

void MqttClient::wait_ack(std::uint16_t packet_id, const char* what) {
    const auto deadline = std::chrono::steady_clock::now() + kAckTimeout;
    MutexLock lock(ack_mutex_);
    while (ack_pending(packet_id) && connected_.load()) {
        if (ack_cv_.wait_until(ack_mutex_, deadline) ==
            std::cv_status::timeout)
            break;
    }
    if (ack_pending(packet_id))
        throw NetError(std::string(what) + " not acknowledged");
}

void MqttClient::publish(const std::string& topic,
                         std::span<const std::uint8_t> payload,
                         std::uint8_t qos) {
    if (!connected_.load()) throw NetError("publish on disconnected client");
    const TimestampNs start = steady_ns();
    if (qos == 0) {
        stream_.write_publish(topic, payload, qos, 0);
    } else {
        std::uint16_t packet_id = 0;
        {
            MutexLock lock(ack_mutex_);
            packet_id = next_packet_id();
            pending_acks_.push_back(packet_id);
        }
        stream_.write_publish(topic, payload, qos, packet_id);
        wait_ack(packet_id, "publish");
    }
    publish_latency_.record(steady_ns() - start);
    publishes_sent_.add(1);
    bytes_sent_.add(payload.size() + topic.size());
}

void MqttClient::publish(const std::string& topic, const std::string& payload,
                         std::uint8_t qos) {
    publish(topic,
            std::span(reinterpret_cast<const std::uint8_t*>(payload.data()),
                      payload.size()),
            qos);
}

void MqttClient::set_message_handler(MessageHandler handler) {
    MutexLock lock(ack_mutex_);
    handler_ = std::move(handler);
}

void MqttClient::subscribe(const std::vector<std::string>& filters,
                           std::uint8_t qos) {
    if (!connected_.load()) throw NetError("subscribe on disconnected client");
    Subscribe s;
    {
        MutexLock lock(ack_mutex_);
        s.packet_id = next_packet_id();
        pending_acks_.push_back(s.packet_id);
    }
    for (const auto& f : filters) s.filters.emplace_back(f, qos);
    stream_.write_packet(s);
    wait_ack(s.packet_id, "subscribe");
}

void MqttClient::ping() {
    if (!connected_.load()) throw NetError("ping on disconnected client");
    {
        MutexLock lock(ack_mutex_);
        ping_outstanding_ = true;
    }
    stream_.write_packet(Pingreq{});
    const auto deadline = std::chrono::steady_clock::now() + kAckTimeout;
    MutexLock lock(ack_mutex_);
    while (ping_outstanding_ && connected_.load()) {
        if (ack_cv_.wait_until(ack_mutex_, deadline) ==
            std::cv_status::timeout)
            break;
    }
    if (ping_outstanding_) throw NetError("ping not answered");
}

void MqttClient::disconnect() {
    if (stopping_.exchange(true)) {
        if (reader_.joinable()) reader_.join();
        return;
    }
    if (connected_.load()) {
        try {
            stream_.write_packet(Disconnect{});
        } catch (const std::exception&) {
            // Transport may already be gone; proceed with shutdown.
        }
    }
    stream_.close();
    if (reader_.joinable()) reader_.join();
    connected_.store(false);
}

}  // namespace dcdb::mqtt
