#include "mqtt/broker.hpp"

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "mqtt/topic.hpp"

namespace dcdb::mqtt {

MqttBroker::MqttBroker(BrokerMode mode, MessageSink sink, std::uint16_t port,
                       bool listen_tcp, telemetry::MetricRegistry* registry,
                       telemetry::trace::Tracer* tracer)
    : mode_(mode),
      sink_(std::move(sink)),
      tracer_(tracer),
      connections_(telemetry::resolve_registry(registry, owned_registry_)
                       .counter("mqtt.broker.connections")),
      publishes_(telemetry::resolve_registry(registry, owned_registry_)
                     .counter("mqtt.broker.publishes")),
      payload_bytes_(telemetry::resolve_registry(registry, owned_registry_)
                         .counter("mqtt.broker.bytes.in")),
      forwarded_(telemetry::resolve_registry(registry, owned_registry_)
                     .counter("mqtt.broker.forwarded")),
      rejected_subscribes_(
          telemetry::resolve_registry(registry, owned_registry_)
              .counter("mqtt.broker.rejected.subscribes")),
      open_sessions_(telemetry::resolve_registry(registry, owned_registry_)
                         .gauge("mqtt.broker.sessions")) {
    if (listen_tcp) {
        listener_ = std::make_unique<TcpListener>(port);
        listener_->set_accept_timeout_ms(200);
        port_ = listener_->port();
        accept_thread_ = std::thread([this] { accept_loop(); });
    }
}

MqttBroker::~MqttBroker() { stop(); }

void MqttBroker::stop() {
    if (stopping_.exchange(true)) return;
    // As in HttpServer::stop: close the listener only once accept() is done.
    if (listener_) listener_->shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listener_) listener_->close();

    std::list<std::unique_ptr<Session>> sessions;
    std::vector<std::unique_ptr<Session>> finished;
    {
        MutexLock lock(mutex_);
        sessions.swap(sessions_);
        finished.swap(finished_);
    }
    for (auto& s : sessions) {
        s->stream.close();
        if (s->thread.joinable()) s->thread.join();
    }
    for (auto& s : finished) {
        if (s->thread.joinable()) s->thread.join();
    }
    open_sessions_.set(0);
}

void MqttBroker::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        auto stream = listener_->accept();
        if (!stream) continue;
        // Accepted sockets inherit the listener's accept timeout on
        // Linux; MQTT sessions must block indefinitely between packets.
        stream->set_recv_timeout_ms(0);
        attach(std::make_unique<TcpTransport>(std::move(*stream)));
    }
}

std::unique_ptr<Transport> MqttBroker::connect_inproc() {
    auto [client_end, broker_end] = make_inproc_pair();
    attach(std::move(broker_end));
    return std::move(client_end);
}

void MqttBroker::attach(std::unique_ptr<Transport> transport) {
    auto session = std::make_unique<Session>(std::move(transport));
    Session* raw = session.get();
    MutexLock lock(mutex_);
    reap_finished_locked();
    sessions_.push_back(std::move(session));
    open_sessions_.add(1);
    raw->thread = std::thread([this, raw] { session_loop(raw); });
}

void MqttBroker::reap_finished_locked() {
    for (auto& s : finished_) {
        if (s->thread.joinable()) s->thread.join();
    }
    finished_.clear();
}

void MqttBroker::session_loop(Session* session) {
    // One packet reused for the session: every PUBLISH decodes into the
    // same topic and payload storage.
    Packet packet;
    try {
        while (!stopping_.load(std::memory_order_relaxed)) {
            if (!session->stream.read_packet(packet)) break;

            if (auto* connect = std::get_if<Connect>(&packet)) {
                session->client_id = connect->client_id;
                session->connected.store(true, std::memory_order_release);
                connections_.add(1);
                session->stream.write_packet(Connack{0, false});
            } else if (!session->connected.load(std::memory_order_relaxed)) {
                throw ProtocolError("packet before CONNECT");
            } else if (auto* pub = std::get_if<Publish>(&packet)) {
                handle_publish(session, *pub);
            } else if (auto* sub = std::get_if<Subscribe>(&packet)) {
                Suback ack;
                ack.packet_id = sub->packet_id;
                if (mode_ == BrokerMode::kReduced) {
                    // Reduced broker: no topic filtering at all.
                    ack.return_codes.assign(sub->filters.size(), 0x80);
                    rejected_subscribes_.add(sub->filters.size());
                } else {
                    MutexLock lock(mutex_);
                    for (const auto& [filter, qos] : sub->filters) {
                        session->filters.push_back(filter);
                        ack.return_codes.push_back(std::min<std::uint8_t>(qos, 1));
                    }
                }
                session->stream.write_packet(ack);
            } else if (auto* unsub = std::get_if<Unsubscribe>(&packet)) {
                {
                    MutexLock lock(mutex_);
                    for (const auto& f : unsub->filters)
                        std::erase(session->filters, f);
                }
                session->stream.write_packet(Unsuback{unsub->packet_id});
            } else if (std::get_if<Pingreq>(&packet)) {
                session->stream.write_packet(Pingresp{});
            } else if (std::get_if<Disconnect>(&packet)) {
                break;
            }
            // PUBACKs from subscribers and stray CONNACK/SUBACKs ignored.
        }
    } catch (const std::exception& e) {
        if (!stopping_.load()) {
            DCDB_DEBUG("mqtt") << "broker session ended: " << e.what();
        }
    }
    session->stream.close();

    // Move ourselves to the finished list; stop()/attach() joins later.
    MutexLock lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if (it->get() == session) {
            finished_.push_back(std::move(*it));
            sessions_.erase(it);
            open_sessions_.sub(1);
            break;
        }
    }
}

void MqttBroker::handle_publish(Session* session, const Publish& p) {
    publishes_.add(1);
    payload_bytes_.add(p.payload.size());
    // The broker never decodes payloads (the reduced-mode design point),
    // so trace detection is a tail peek. A v0 payload whose last bytes
    // mimic the trailer magic can (p ~ 2^-16) produce one junk span in
    // the diagnostics ring; attribution at the agent stays authoritative
    // because decode_batch() validates the full structure.
    const auto trace = tracer_ ? telemetry::trace::peek_trailer(p.payload)
                               : telemetry::trace::TraceContext{};
    const TimestampNs route_wall = trace.valid() ? now_ns() : 0;
    const TimestampNs route_start = trace.valid() ? steady_ns() : 0;
    // Process before acknowledging: a QoS-1 PUBACK means the reading has
    // reached the storage path, so publishers can rely on it.
    if (sink_) sink_(p);
    if (mode_ == BrokerMode::kFull) route(p);
    if (trace.valid()) {
        tracer_->record_span(trace, telemetry::trace::Stage::kBrokerRoute,
                             route_wall, steady_ns() - route_start, 0);
    }
    if (p.qos == 1) session->stream.write_packet(Puback{p.packet_id});
}

void MqttBroker::route(const Publish& p) {
    // Forwarded messages are delivered at QoS 0: DCDB's only subscriber is
    // the storage path (already served by the sink), so downstream
    // consumers are best-effort by design.
    MutexLock lock(mutex_);
    for (auto& session : sessions_) {
        if (!session->connected.load(std::memory_order_acquire)) continue;
        for (const auto& filter : session->filters) {
            if (topic_matches(filter, p.topic)) {
                try {
                    session->stream.write_publish(p.topic, p.payload, 0, 0);
                } catch (const std::exception&) {
                    // Subscriber went away; its session loop will clean up.
                }
                forwarded_.add(1);
                break;
            }
        }
    }
}

BrokerStats MqttBroker::stats() const {
    BrokerStats s;
    s.connections = connections_.value();
    s.publishes = publishes_.value();
    s.payload_bytes = payload_bytes_.value();
    s.forwarded = forwarded_.value();
    s.rejected_subscribes = rejected_subscribes_.value();
    s.open_sessions = open_sessions_.value();
    return s;
}

}  // namespace dcdb::mqtt
