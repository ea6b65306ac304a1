#include "collectagent/collect_agent.hpp"

#include <algorithm>
#include <chrono>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/payload.hpp"

namespace dcdb::collectagent {

namespace {

telemetry::trace::Tracer::Config agent_tracer_config(
    telemetry::MetricRegistry* registry) {
    telemetry::trace::Tracer::Config tc;
    // Minting off: traces are minted at sample time on the Pusher (its
    // traceSampleRate key); the agent records and completes them.
    tc.sample_every = 0;
    tc.registry = registry;
    return tc;
}

}  // namespace

CollectAgent::CollectAgent(const ConfigNode& config,
                           store::StoreCluster* cluster,
                           store::MetaStore* meta,
                           telemetry::MetricRegistry* registry)
    : cluster_(cluster),
      meta_(*meta),
      registry_(telemetry::resolve_registry(registry, owned_registry_)),
      index_(*meta, config.get_duration_ns_or("global.cacheWindow",
                                              120 * kNsPerSec)),
      ttl_s_(static_cast<std::uint32_t>(
          config.get_i64_or("global.ttl", 0))),
      messages_(registry_.counter("collectagent.messages")),
      readings_(registry_.counter("collectagent.readings")),
      decode_errors_(registry_.counter("collectagent.decode.errors")),
      decode_salvaged_(registry_.counter("collectagent.decode.salvaged")),
      store_errors_(registry_.counter("collectagent.store.errors")),
      refused_(registry_.counter("collectagent.store.refused")),
      store_latency_(registry_.histogram("collectagent.store.latency")),
      tracer_(agent_tracer_config(&registry_)) {
    const bool listen_tcp = config.get_bool_or("global.listenTcp", true);
    const auto port = static_cast<std::uint16_t>(
        config.get_i64_or("global.mqttPort", 0));
    broker_ = std::make_unique<mqtt::MqttBroker>(
        mqtt::BrokerMode::kReduced,
        [this](const mqtt::Publish& p) { on_publish(p); }, port, listen_tcp,
        &registry_, &tracer_);
    cluster_->set_tracer(&tracer_);

    if (config.get_bool_or("global.restApi", false))
        rest_server_ = make_agent_rest_server(*this);

    // Background store maintenance: the agent is the long-lived process
    // owning the cluster, so it drives the size-tiered compaction thread.
    const TimestampNs maintenance_ns =
        config.get_duration_ns_or("global.storeMaintenance", 0);
    if (maintenance_ns > 0) {
        cluster_->start_maintenance(std::chrono::milliseconds(
            std::max<TimestampNs>(maintenance_ns / kNsPerMs, 1)));
        owns_maintenance_ = true;
    }
}

CollectAgent::~CollectAgent() { stop(); }

void CollectAgent::stop() {
    if (owns_maintenance_) {
        cluster_->stop_maintenance();
        owns_maintenance_ = false;
    }
    if (broker_) broker_->stop();
    if (rest_server_) rest_server_->stop();
}

std::uint16_t CollectAgent::mqtt_port() const { return broker_->port(); }

std::unique_ptr<mqtt::Transport> CollectAgent::connect_inproc() {
    return broker_->connect_inproc();
}

std::uint16_t CollectAgent::rest_port() const {
    return rest_server_ ? rest_server_->port() : 0;
}

/// Views point into the publish payload, which outlives the whole
/// on_publish call.
struct CollectAgent::PendingSection {
    std::string_view topic;
    SensorIndex::Handle sensor;
    ReadingsView readings;
};

/// ingest's derived readings are untraced and kept from the live
/// listener.
struct CollectAgent::Arrival {
    telemetry::trace::TraceContext trace;  // invalid: untraced
    TimestampNs decode_wall{0};
    TimestampNs decode_start{0};
    bool live{false};  // the live listener sees its readings
};

std::size_t CollectAgent::resolve_section(std::string_view topic,
                                         ReadingsView readings,
                                         std::vector<PendingSection>& out) {
    try {
        const SensorIndex::Handle sensor = index_.resolve(topic);
        if (!readings.empty()) out.push_back({topic, sensor, readings});
        return 0;
    } catch (const StoreError&) {
        throw;  // the dictionary refused the write: refuse the publish
    } catch (const std::exception& e) {
        DCDB_WARN("collectagent")
            << "dropping section on " << topic << ": " << e.what();
        return readings.size();
    }
}

void CollectAgent::on_publish(const mqtt::Publish& message) {
    messages_.add(1);

    // Decode failures are terminal (there is nothing to retry): a torn
    // payload tail loses exactly the tail, the valid prefix is salvaged;
    // readings on a malformed topic are discarded individually. All
    // discarded readings count as decode_errors once the rest is stored.
    // A store failure refuses the whole publish: the StoreError reaches
    // the broker, which ends the session without a PUBACK, and the
    // publisher sends it again.
    //
    // on_publish runs on concurrent broker session threads; thread_local
    // scratch keeps the steady-state decode path allocation-free.
    thread_local BatchPayloadView view;
    thread_local std::vector<PendingSection> sections;
    sections.clear();

    const std::span<const std::uint8_t> payload(message.payload);
    std::size_t decoded = 0;    // whole readings in the payload
    std::size_t discarded = 0;  // of those, on a malformed topic
    bool torn = false;
    Arrival arrival;
    arrival.live = true;

    // Cheap tail probe to decide whether this message is worth the
    // tracing clock reads. Attribution stays with decode_batch (the
    // authoritative parse): a torn payload never yields a trace here.
    if (telemetry::trace::peek_trailer(payload).valid()) {
        arrival.decode_wall = now_ns();
        arrival.decode_start = steady_ns();
    }

    try {
        if (is_batch_payload(payload)) {
            decode_batch(payload, view);  // cannot throw: header was checked
            torn = view.torn_bytes > 0;
            arrival.trace = view.trace;
            decoded = view.total_readings;
            for (const auto& section : view.sections)
                discarded +=
                    resolve_section(section.topic, section.readings, sections);
        } else {
            const SalvagedReadings salvage = decode_readings_view(payload);
            torn = salvage.torn_bytes > 0;
            decoded = salvage.readings.size();
            if (!salvage.readings.empty())
                discarded +=
                    resolve_section(message.topic, salvage.readings, sections);
        }
        store_sections(sections, arrival);
    } catch (const StoreError& e) {
        store_errors_.add(1);
        refused_.add(decoded - discarded);
        DCDB_WARN("collectagent")
            << "refusing publish of " << decoded - discarded
            << " readings on " << message.topic << ", no PUBACK: "
            << e.what();
        throw;
    }
    // Counted once stored, so a resend of a refused publish does not
    // count them again. The torn tail is at least one lost reading.
    if (discarded > 0 || torn) decode_errors_.add(discarded + (torn ? 1 : 0));
    if (torn) decode_salvaged_.add(decoded - discarded);
}

void CollectAgent::store_sections(std::span<const PendingSection> sections,
                                  const Arrival& arrival) {
    // Each section's readings are decoded once into rows, and cut into
    // one mutation per day bucket: a section that crosses midnight is
    // two runs. The scratch is sized before any span points into it.
    // A live listener below may re-enter through ingest, which reuses
    // this scratch; it is not read again once the batch is stored.
    thread_local std::vector<store::Row> rows;
    thread_local std::vector<store::Mutation> mutations;
    std::size_t readings = 0;
    for (const auto& pending : sections) readings += pending.readings.size();
    if (readings == 0) return;
    rows.resize(readings);
    mutations.clear();
    std::size_t n = 0;
    for (const auto& pending : sections) {
        std::size_t begin = n;
        const auto cut = [&] {
            mutations.push_back(
                {sensor_key(pending.sensor.sid, rows[begin].ts),
                 std::span<const store::Row>(rows).subspan(begin, n - begin)});
            begin = n;
        };
        TimestampNs day_begin = 0;  // [day_begin, day_end): the run's bucket
        TimestampNs day_end = 0;
        for (std::size_t i = 0; i < pending.readings.size(); ++i) {
            const Reading reading = pending.readings[i];
            if (reading.ts < day_begin || reading.ts >= day_end) {
                if (n > begin) cut();
                day_begin = reading.ts - reading.ts % kBucketWidthNs;
                day_end = day_begin + kBucketWidthNs;
            }
            rows[n++] = store::Row{reading.ts, reading.value,
                                   store::Row::expiry_at(reading.ts, ttl_s_)};
        }
        cut();  // a kept section is never empty
    }

    const telemetry::trace::TraceContext* trace =
        arrival.trace.valid() ? &arrival.trace : nullptr;
    if (trace) {
        // Decode span covers payload parse + SID mapping + batch build.
        tracer_.record_span(*trace, telemetry::trace::Stage::kDecode,
                            arrival.decode_wall,
                            steady_ns() - arrival.decode_start,
                            static_cast<std::uint32_t>(readings));
    }
    const TimestampNs insert_wall = trace ? now_ns() : 0;
    const TimestampNs insert_start = steady_ns();
    cluster_->insert_batch(std::span<const store::Mutation>(mutations), -1,
                           trace);
    const std::uint64_t insert_dur = steady_ns() - insert_start;
    if (trace) {
        // Exemplar: the slowest buckets of the store-latency histogram
        // carry a trace ID to pivot into /traces.
        store_latency_.record(insert_dur, trace->trace_id);
        tracer_.record_span(*trace, telemetry::trace::Stage::kInsert,
                            insert_wall, insert_dur,
                            static_cast<std::uint32_t>(readings));
        // The reading is durable on the primary: the trace is complete
        // end-to-end (sample deadline -> store insert).
        tracer_.complete(*trace, now_ns());
    } else {
        store_latency_.record(insert_dur);
    }
    readings_.add(readings);

    // Cache the newest persisted reading per sensor through its handle
    // (a first sighting joins the hierarchy and the cache here) and
    // notify the live listener, which may re-enter through ingest.
    thread_local std::string topic_scratch;
    for (const auto& pending : sections) {
        if (arrival.live && live_listener_) {
            topic_scratch.assign(pending.topic);
            for (std::size_t i = 0; i < pending.readings.size(); ++i)
                live_listener_(topic_scratch, pending.readings[i]);
        }
        index_.publish(pending.topic, pending.sensor)
            .push(pending.readings[pending.readings.size() - 1]);
    }
}

void CollectAgent::set_live_listener(LiveListener listener) {
    live_listener_ = std::move(listener);
}

void CollectAgent::ingest(const std::string& topic, const Reading& reading) {
    const std::vector<std::uint8_t> record = encode_readings({reading});
    const PendingSection section{topic, index_.resolve(topic),
                                 decode_readings_view(record).readings};
    store_sections(std::span<const PendingSection>(&section, 1), Arrival{});
}

std::vector<Reading> CollectAgent::query_stored(const std::string& topic,
                                                TimestampNs t0,
                                                TimestampNs t1) const {
    return query_series(index_.mapper(), *cluster_, topic, t0, t1);
}

Readiness CollectAgent::readiness() const {
    if (!cluster_->writable()) return {false, "store not writable"};
    if (meta_.failed()) return {false, "topic dictionary not writable"};
    if (owns_maintenance_ && !cluster_->maintenance_running())
        return {false, "maintenance thread not running"};
    return {true, "ok"};
}

CollectAgentStats CollectAgent::stats() const {
    CollectAgentStats s;
    s.messages = messages_.value();
    s.readings = readings_.value();
    s.decode_errors = decode_errors_.value();
    s.salvaged = decode_salvaged_.value();
    s.store_errors = store_errors_.value();
    s.refused = refused_.value();
    s.known_sensors = index_.cache().sensor_count();
    return s;
}

}  // namespace dcdb::collectagent
