#include "pusher/mqtt_pusher.hpp"

#include <algorithm>

#include "common/bytebuf.hpp"
#include "common/clock.hpp"
#include "common/logging.hpp"
#include "core/payload.hpp"

namespace dcdb::pusher {

namespace {

/// The peek buffer is kept across rounds unless it is over 4x this or
/// 4x the round's largest group peek.
constexpr std::size_t kMinDrainBuffer = 1024;
constexpr TimestampNs kBurstIntervalNs = 30 * kNsPerSec;

}  // namespace

MqttPusher::MqttPusher(ClientProvider client_provider,
                       const std::vector<std::unique_ptr<Plugin>>* plugins,
                       SharedMutex* plugins_mutex, MqttPusherConfig config)
    : client_provider_(std::move(client_provider)),
      plugins_(plugins),
      plugins_mutex_(plugins_mutex),
      config_(config),
      readings_(telemetry::resolve_registry(config_.registry, owned_registry_)
                    .counter("pusher.push.readings")),
      messages_(telemetry::resolve_registry(config_.registry, owned_registry_)
                    .counter("pusher.push.messages")),
      publish_failures_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter("pusher.push.failures")) {}

MqttPusher::~MqttPusher() { stop(); }

void MqttPusher::start() {
    if (thread_.joinable()) return;
    stopping_.store(false);
    thread_ = std::thread([this] { loop(); });
}

void MqttPusher::stop() {
    if (stopping_.exchange(true)) {
        if (thread_.joinable()) thread_.join();
        return;
    }
    if (thread_.joinable()) thread_.join();
    // Final flush so no pending reading is lost on an orderly shutdown.
    try {
        push_once();
    } catch (const std::exception& e) {
        DCDB_WARN("pusher") << "final flush failed: " << e.what();
    }
}

std::span<const Reading> MqttPusher::readings_of(const Drained& d) const {
    return std::span<const Reading>(drain_).subspan(d.begin, d.count);
}

void MqttPusher::publish_group(mqtt::MqttClient* client, std::size_t& sent,
                               const telemetry::trace::TraceContext& trace) {
    // The fewest payloads within the wire limits: the u16 section count
    // of encode_batch, and a PUBLISH that read_packet accepts, whose
    // budget keeps room for the longest topic, a packet id, the batch
    // header and a trailer. One section always fits: at most
    // SensorCache::kMaxPending readings.
    constexpr std::size_t kMaxSections = 0xFFFF;
    constexpr std::size_t kBudget =
        mqtt::kMaxRemainingLength - (2 + 0xFFFF + 2 + kBatchHeaderBytes +
                                     telemetry::trace::kTrailerBytes);
    telemetry::trace::TraceContext first_trace = trace;
    std::size_t first = 0;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < drained_.size(); ++i) {
        const std::size_t section = 2 + drained_[i].sensor->topic().size() +
                                    4 + drained_[i].count * kReadingWireBytes;
        if (i > first &&
            (i - first == kMaxSections || bytes + section > kBudget)) {
            publish_sections(client, first, i, sent, first_trace);
            first_trace = {};
            first = i;
            bytes = 0;
        }
        bytes += section;
    }
    publish_sections(client, first, drained_.size(), sent, first_trace);
}

void MqttPusher::publish_sections(
    mqtt::MqttClient* client, std::size_t first, std::size_t last,
    std::size_t& sent, const telemetry::trace::TraceContext& trace) {
    sections_.clear();
    std::size_t readings = 0;
    for (std::size_t i = first; i < last; ++i) {
        const Drained& d = drained_[i];
        sections_.push_back(SensorBatch{d.sensor->topic(), readings_of(d)});
        readings += d.count;
    }
    // The message topic is informational for a batch payload (the agent
    // routes on the per-section topics); the first sensor's topic keeps
    // broker-side accounting meaningful.
    const std::string& topic = drained_[first].sensor->topic();
    const TimestampNs publish_wall = trace.valid() ? now_ns() : 0;
    const TimestampNs publish_start = trace.valid() ? steady_ns() : 0;
    encode_batch(sections_, trace, payload_);
    try {
        client->publish(topic, payload_, config_.qos);
    } catch (const std::exception& e) {
        // The readings stay pending and go out again next round.
        publish_failures_.add(1);
        DCDB_DEBUG("pusher") << "publish failed on " << topic << ": "
                             << e.what();
        return;
    }
    std::size_t released = 0;
    for (std::size_t i = first; i < last; ++i)
        released += drained_[i].sensor->release_pending(drained_[i].end);
    readings_.add(released);
    messages_.add(1);
    if (trace.valid() && config_.tracer) {
        config_.tracer->record_span(
            trace, telemetry::trace::Stage::kPublish, publish_wall,
            steady_ns() - publish_start,
            static_cast<std::uint32_t>(readings));
    }
    ++sent;
}

std::size_t MqttPusher::push_once() {
    MutexLock lock(push_mutex_);
    mqtt::MqttClient* client = client_provider_();
    if (!client) return 0;  // agent unreachable; the slots keep the readings
    ReaderLock plugins(*plugins_mutex_);
    std::size_t sent = 0;
    std::size_t largest_drain = 0;
    for (const auto& plugin : *plugins_) {
        for (const auto& group : plugin->groups()) {
            // A trace the sampler parked on this group rides the group's
            // first payload.
            const auto trace = config_.tracer
                                   ? group->pending_trace().take()
                                   : telemetry::trace::TraceContext{};
            const TimestampNs drain_wall = trace.valid() ? now_ns() : 0;
            const TimestampNs drain_start = trace.valid() ? steady_ns() : 0;
            // The whole group is peeked into one reused buffer; sections
            // are views into it, so nothing is copied but the encoding.
            drain_.clear();
            drained_.clear();
            for (const auto& sensor : group->sensors()) {
                const std::size_t begin = drain_.size();
                std::uint64_t end = 0;
                const std::size_t count =
                    sensor->peek_pending_into(drain_, end);
                if (count != 0)
                    drained_.push_back({sensor.get(), begin, count, end});
            }
            largest_drain = std::max(largest_drain, drain_.size());
            if (drained_.empty()) continue;
            if (trace.valid()) {
                config_.tracer->record_span(
                    trace, telemetry::trace::Stage::kCoalesce, drain_wall,
                    steady_ns() - drain_start,
                    static_cast<std::uint32_t>(drain_.size()));
            }
            publish_group(client, sent, trace);
        }
    }
    // Like the slots' rings: give back a buffer sized by a backlog once
    // the rounds are small again.
    if (drain_.capacity() > 4 * std::max(largest_drain, kMinDrainBuffer))
        std::vector<Reading>().swap(drain_);
    trim_scratch(payload_);
    return sent;
}

MqttPusherStats MqttPusher::stats() const {
    MqttPusherStats s;
    s.readings_pushed = readings_.value();
    s.messages_sent = messages_.value();
    s.publish_failures = publish_failures_.value();
    return s;
}

void MqttPusher::loop() {
    const TimestampNs interval =
        config_.burst_mode ? kBurstIntervalNs : config_.push_interval_ns;

    // "Although the data collection intervals of multiple Pushers are
    // synchronized, these will send their data at different points in
    // time in order not to overwhelm the network" — random stagger.
    Rng rng(config_.stagger_seed + 0x9E3779B9ull);
    const TimestampNs stagger = rng.next_u64() % interval;

    DCDB_DEBUG("pusher") << "push loop: interval " << interval
                         << "ns, stagger " << stagger << "ns, burst "
                         << (config_.burst_mode ? 1 : 0);
    TimestampNs next = next_aligned(now_ns(), interval) + stagger;
    while (!stopping_.load(std::memory_order_relaxed)) {
        const TimestampNs now = now_ns();
        if (now < next) {
            const TimestampNs wait =
                std::min<TimestampNs>(next - now, 50 * kNsPerMs);
            // Push-loop pacing, capped at 50ms so stop() stays responsive.
            // dcdblint: allow-sleep (bounded pacing, not a condition wait)
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
            continue;
        }
        try {
            push_once();
        } catch (const std::exception& e) {
            DCDB_WARN("pusher") << "push failed: " << e.what();
        }
        next += interval;
        if (next <= now_ns()) next = next_aligned(now_ns(), interval) + stagger;
    }
}

}  // namespace dcdb::pusher
