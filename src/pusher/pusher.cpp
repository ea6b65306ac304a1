#include "pusher/pusher.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>

#include "common/bytebuf.hpp"
#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "pusher/rest_api.hpp"
#include "pusher/telemetry_feed.hpp"

namespace dcdb::pusher {

namespace {

/// The peek buffer is kept across rounds unless it is over 4x this or
/// 4x the round's largest group peek.
constexpr std::size_t kMinDrainBuffer = 1024;
constexpr TimestampNs kBurstIntervalNs = 30 * kNsPerSec;

telemetry::trace::Tracer::Config pusher_tracer_config(
    const ConfigNode& config, telemetry::MetricRegistry* registry) {
    telemetry::trace::Tracer::Config tc;
    // global.traceSampleRate N traces ~1/N group reads; 0 disables
    // minting (stages still stamp spans for contexts minted upstream).
    tc.sample_every = config.get_u64_or("global.traceSampleRate", 1024);
    tc.seed = now_ns();  // distinct per process start
    tc.registry = registry;
    return tc;
}

}  // namespace

Pusher::Pusher(ConfigNode config, std::unique_ptr<mqtt::Transport> transport)
    : config_(std::move(config)),
      registry_([this] {
          cache_bytes_.set(static_cast<std::int64_t>(cache_->memory_bytes()));
          readings_pending_.set(static_cast<std::int64_t>(cache_->pending()));
      }),
      readings_pushed_(registry_.counter("pusher.push.readings")),
      messages_sent_(registry_.counter("pusher.push.messages")),
      publish_failures_(registry_.counter("pusher.push.failures")),
      reconnects_(registry_.counter("pusher.reconnects")),
      reconnect_failures_(registry_.counter("pusher.reconnect.failures")),
      cache_bytes_(registry_.gauge("pusher.cache.bytes")),
      readings_pending_(registry_.gauge("pusher.push.pending")),
      tracer_(pusher_tracer_config(config_, &registry_)) {
    plugins::register_builtin_plugins();
    // The REST /sensors counters, registered here rather than on the
    // first request so that /metrics and the self-feed carry them from
    // the start.
    registry_.counter("pusher.cache.hits");
    registry_.counter("pusher.cache.misses");

    topic_prefix_ = config_.get_string_or("global.topicPrefix", "/node");
    const auto cache_window =
        config_.get_duration_ns_or("global.cacheWindow", 120 * kNsPerSec);
    cache_ = std::make_unique<CacheSet>(cache_window);

    // MQTT connection: explicit transport > configured broker > none.
    // With none, the slots keep no pending readings: nothing would
    // publish them.
    const std::string broker =
        config_.get_string_or("global.mqttBroker", "none");
    publishes_ = transport || (broker != "none" && !broker.empty());

    const int threads = static_cast<int>(
        config_.get_i64_or("global.threads", 2));
    sampler_ = std::make_unique<Sampler>(threads, cache_.get(), &registry_,
                                         &tracer_, publishes_);

    configure_plugins();

    if (publishes_ && !transport) {
        const auto parts = split_nonempty(broker, ':');
        if (parts.size() != 2)
            throw ConfigError("mqttBroker must be host:port, got " + broker);
        const auto port = parse_u64(parts[1]);
        if (!port || *port > 0xFFFF)
            throw ConfigError("bad broker port in " + broker);
        broker_host_ = parts[0];
        broker_port_ = static_cast<std::uint16_t>(*port);
    }
    reconnect_backoff_min_ns_ = config_.get_duration_ns_or(
        "global.reconnectBackoffMin", 250 * kNsPerMs);
    reconnect_backoff_max_ns_ = config_.get_duration_ns_or(
        "global.reconnectBackoffMax", 10 * kNsPerSec);
    push_interval_ns_ =
        config_.get_bool_or("global.burstMode", false)
            ? kBurstIntervalNs
            : config_.get_duration_ns_or("global.pushInterval", kNsPerSec);
    // The push thread staggers its sends modulo the interval.
    if (push_interval_ns_ == 0)
        throw ConfigError("pushInterval must be positive");
    qos_ = static_cast<std::uint8_t>(config_.get_i64_or("global.qos", 0));
    if (publishes_) {
        // The agent may simply not be up yet: sample into the cache and
        // keep retrying from the push rounds.
        MutexLock lock(client_mutex_);
        transport_ = std::move(transport);
        connect();
    }

    if (config_.get_bool_or("global.restApi", false))
        rest_server_ = make_pusher_rest_server(*this);

    // The self-feed plugin goes last, after every subsystem above has
    // registered its metrics: the TelemetryGroup's sensor set is a
    // snapshot of the registry at this point (telemetry_feed.hpp).
    if (config_.get_bool_or("global.telemetryFeed", false)) {
        const auto interval = config_.get_duration_ns_or(
            "global.telemetryInterval", 10 * kNsPerSec);
        auto feed = std::make_unique<TelemetryPlugin>(&registry_,
                                                      topic_prefix_, interval);
        for (const auto& group : feed->groups())
            sampler_->add_group(group.get());
        DCDB_INFO("pusher") << "telemetry self-feed: "
                            << feed->sensor_count() << " sensors, interval "
                            << interval << "ns";
        plugins_.push_back(std::move(feed));
    }
}

std::unique_ptr<Pusher> Pusher::from_file(
    const std::string& config_path,
    std::unique_ptr<mqtt::Transport> transport) {
    auto pusher = std::make_unique<Pusher>(parse_config_file(config_path),
                                           std::move(transport));
    pusher->config_path_ = config_path;
    return pusher;
}

Pusher::~Pusher() { stop(); }

void Pusher::configure_plugins() {
    const ConfigNode* plugins_node = config_.child("plugins");
    if (!plugins_node) return;
    PluginContext ctx;
    ctx.topic_prefix = topic_prefix_;
    for (const auto& plugin_node : plugins_node->children()) {
        auto plugin = PluginRegistry::instance().make(plugin_node.name());
        plugin->configure(plugin_node, ctx);
        for (const auto& group : plugin->groups())
            sampler_->add_group(group.get());
        DCDB_INFO("pusher") << "plugin " << plugin->name() << ": "
                            << plugin->sensor_count() << " sensors";
        plugins_.push_back(std::move(plugin));
    }
}

void Pusher::start() {
    if (started_) return;
    started_ = true;
    sampler_->start();
    if (!publishes_) return;
    {
        MutexLock lock(stop_mutex_);
        stopping_ = false;
    }
    push_thread_ = std::thread([this] { push_loop(); });
}

void Pusher::stop() {
    if (started_) {
        started_ = false;
        sampler_->stop();
        {
            MutexLock lock(stop_mutex_);
            stopping_ = true;
        }
        stop_cv_.notify_all();
        if (push_thread_.joinable()) push_thread_.join();
        try {
            if (publishes_) flush();
        } catch (const std::exception& e) {
            DCDB_WARN("pusher") << "final flush failed: " << e.what();
        }
        // The push thread is joined, but the REST server may still be
        // serving mqtt_connected() probes.
        MutexLock lock(client_mutex_);
        if (mqtt_client_) mqtt_client_->disconnect();
    }
    if (rest_server_) rest_server_->stop();
}

void Pusher::flush() {
    const TimestampNs start = steady_ns();
    while (cache_->pending() != 0) {
        {
            MutexLock lock(push_mutex_);
            if (!push_round()) break;  // no session, and a connect failed
        }
        // A round that left readings pending on a live session failed
        // for a reason a new session does not mend.
        if (cache_->pending() == 0 || mqtt_connected()) break;
        // A refusal ended the round's session: reconnect on the backoff.
        TimestampNs until = 0;
        {
            MutexLock lock(client_mutex_);
            until = last_connect_attempt_ns_ + reconnect_delay_ns_;
        }
        if (until > start + reconnect_backoff_max_ns_) break;
        MutexLock lock(stop_mutex_);
        for (TimestampNs now = steady_ns(); now < until; now = steady_ns())
            stop_cv_.wait_for(stop_mutex_,
                              std::chrono::nanoseconds(until - now));
    }
    if (const std::uint64_t left = cache_->pending()) {
        DCDB_WARN("pusher") << "final flush gave up with " << left
                            << " readings pending";
    }
}

Plugin* Pusher::find_plugin(const std::string& name) {
    for (auto& plugin : plugins_) {
        if (plugin->name() == name) return plugin.get();
    }
    return nullptr;
}

void Pusher::reload_plugin(const std::string& name) {
    Plugin* plugin = find_plugin(name);
    if (!plugin) throw ConfigError("no such plugin: " + name);

    // Keep every walk of the groups, and readers of config_, out.
    WriterLock lock(plugins_mutex_);
    // Pull fresh configuration (from disk when we were file-constructed,
    // so "modify a plugin's configuration file at runtime and trigger a
    // reload" works as in Section 5.3).
    if (!config_path_.empty()) config_ = parse_config_file(config_path_);
    const ConfigNode* plugins_node = config_.child("plugins");
    const ConfigNode* plugin_node =
        plugins_node ? plugins_node->child(name) : nullptr;
    if (!plugin_node)
        throw ConfigError("plugin " + name + " not in configuration");

    std::vector<SensorGroup*> old_groups;
    std::vector<CacheSet::Slot*> old_slots;
    for (const auto& group : plugin->groups()) {
        old_groups.push_back(group.get());
        for (const auto& sensor : group->sensors())
            if (CacheSet::Slot* slot = sensor->slot())
                old_slots.push_back(slot);
    }
    sampler_->remove_groups(old_groups);  // waits out their reads

    plugin->clear();
    PluginContext ctx;
    ctx.topic_prefix = topic_prefix_;
    plugin->configure(*plugin_node, ctx);
    for (const auto& group : plugin->groups()) {
        sampler_->add_group(group.get());  // resolves the sensors' slots
        for (const auto& sensor : group->sensors())
            std::erase(old_slots, sensor->slot());
    }
    // A sensor the reload removed leaves its pending readings in a slot
    // no sensor peeks again: they count as dropped.
    std::uint64_t dropped = 0;
    for (CacheSet::Slot* slot : old_slots)
        dropped += slot->release_pending(
            std::numeric_limits<std::uint64_t>::max());
    if (dropped != 0) {
        registry_.counter("pusher.push.dropped").add(dropped);
        DCDB_WARN("pusher") << "reload of " << name << " dropped " << dropped
                            << " pending readings of removed sensors";
    }
}

mqtt::MqttClient* Pusher::connect() {
    // Exponential backoff with equal jitter, so a fleet of Pushers does
    // not stampede a restarted Collect Agent. A handshake advances it as
    // a failed attempt does, and only a round that published resets it:
    // an agent that accepts sessions but refuses every publish is not
    // redialled every round.
    const TimestampNs now = steady_ns();
    if (now - last_connect_attempt_ns_ < reconnect_delay_ns_) return nullptr;
    last_connect_attempt_ns_ = now;
    const bool outage_begins = reconnect_backoff_ns_ == 0;
    reconnect_backoff_ns_ =
        outage_begins ? reconnect_backoff_min_ns_
                      : std::min<TimestampNs>(reconnect_backoff_ns_ * 2,
                                              reconnect_backoff_max_ns_);
    const TimestampNs half = reconnect_backoff_ns_ / 2;
    reconnect_delay_ns_ = half + reconnect_rng_.below(half + 1);
    std::unique_ptr<mqtt::MqttClient> client;
    try {
        std::unique_ptr<mqtt::Transport> transport = std::move(transport_);
        if (!transport && broker_host_.empty())
            throw NetError("the injected transport carried the only session");
        if (!transport)
            transport = std::make_unique<mqtt::TcpTransport>(
                TcpStream::connect(broker_host_, broker_port_));
        client = std::make_unique<mqtt::MqttClient>(
            std::move(transport), "pusher-" + topic_prefix_, &registry_);
        client->connect();
    } catch (const Error& e) {
        reconnect_failures_.add(1);
        if (outage_begins) {
            DCDB_WARN("pusher") << "collect agent unreachable, will retry: "
                                << e.what();
        }
        return nullptr;  // still down; retry after the backoff
    }
    if (mqtt_client_) {
        reconnects_.add(1);
        DCDB_INFO("pusher") << "reconnected to collect agent";
    }
    mqtt_client_ = std::move(client);
    return mqtt_client_.get();
}

bool Pusher::mqtt_connected() const {
    MutexLock lock(client_mutex_);
    return mqtt_client_ && mqtt_client_->connected();
}

void Pusher::push_loop() {
    // "Although the data collection intervals of multiple Pushers are
    // synchronized, these will send their data at different points in
    // time in order not to overwhelm the network" — random stagger.
    Rng rng(std::hash<std::string>{}(topic_prefix_) + 0x9E3779B9ull);
    const TimestampNs interval = push_interval_ns_;
    const TimestampNs stagger = rng.next_u64() % interval;
    DCDB_DEBUG("pusher") << "push loop: interval " << interval
                         << "ns, stagger " << stagger << "ns";
    TimestampNs next = next_aligned(now_ns(), interval) + stagger;
    for (;;) {
        {
            MutexLock lock(stop_mutex_);
            for (TimestampNs now = now_ns(); !stopping_ && now < next;
                 now = now_ns())
                stop_cv_.wait_for(stop_mutex_,
                                  std::chrono::nanoseconds(next - now));
            if (stopping_) return;
        }
        try {
            MutexLock lock(push_mutex_);
            push_round();
        } catch (const std::exception& e) {
            DCDB_WARN("pusher") << "push failed: " << e.what();
        }
        next += interval;
        if (next <= now_ns()) next = next_aligned(now_ns(), interval) + stagger;
    }
}

std::span<const Reading> Pusher::readings_of(const Drained& d) const {
    return std::span<const Reading>(drain_).subspan(d.begin, d.count);
}

void Pusher::publish_group(mqtt::MqttClient* client, std::size_t& sent,
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

void Pusher::publish_sections(mqtt::MqttClient* client, std::size_t first,
                              std::size_t last, std::size_t& sent,
                              const telemetry::trace::TraceContext& trace) {
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
        client->publish(topic, payload_, qos_);
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
    readings_pushed_.add(released);
    messages_sent_.add(1);
    if (trace.valid()) {
        tracer_.record_span(trace, telemetry::trace::Stage::kPublish,
                            publish_wall, steady_ns() - publish_start,
                            static_cast<std::uint32_t>(readings));
    }
    ++sent;
}

bool Pusher::push_round() {
    mqtt::MqttClient* client = nullptr;
    {
        MutexLock lock(client_mutex_);
        client = mqtt_client_ && mqtt_client_->connected()
                     ? mqtt_client_.get()
                     : connect();
    }
    if (!client) return false;  // agent unreachable; the slots keep them
    std::size_t sent = 0;
    std::size_t largest_drain = 0;
    {
        ReaderLock plugins(plugins_mutex_);
        for (const auto& plugin : plugins_) {
            for (const auto& group : plugin->groups()) {
                // A trace the sampler parked on this group rides the
                // group's first payload.
                const auto trace = group->pending_trace().take();
                const TimestampNs drain_wall = trace.valid() ? now_ns() : 0;
                const TimestampNs drain_start =
                    trace.valid() ? steady_ns() : 0;
                // The whole group is peeked into one reused buffer;
                // sections are views into it, so nothing is copied but
                // the encoding.
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
                    tracer_.record_span(
                        trace, telemetry::trace::Stage::kCoalesce, drain_wall,
                        steady_ns() - drain_start,
                        static_cast<std::uint32_t>(drain_.size()));
                }
                publish_group(client, sent, trace);
            }
        }
    }
    if (sent != 0) {
        // Only a published payload resets the reconnect backoff.
        MutexLock lock(client_mutex_);
        reconnect_backoff_ns_ = 0;
        reconnect_delay_ns_ = 0;
    }
    // Like the slots' rings: give back a buffer sized by a backlog once
    // the rounds are small again.
    if (drain_.capacity() > 4 * std::max(largest_drain, kMinDrainBuffer))
        std::vector<Reading>().swap(drain_);
    trim_scratch(payload_);
    return true;
}

PusherStats Pusher::stats() const {
    ReaderLock lock(plugins_mutex_);
    PusherStats s;
    s.plugins = plugins_.size();
    for (const auto& plugin : plugins_) s.sensors += plugin->sensor_count();
    s.samples_taken = sampler_->samples_taken();
    s.readings_pushed = readings_pushed_.value();
    s.messages_sent = messages_sent_.value();
    s.publish_failures = publish_failures_.value();
    s.readings_dropped = sampler_->readings_dropped();
    s.readings_pending = cache_->pending();
    s.reconnects = reconnects_.value();
    s.reconnect_failures = reconnect_failures_.value();
    s.cache_bytes = cache_->memory_bytes();
    return s;
}

std::uint16_t Pusher::rest_port() const {
    return rest_server_ ? rest_server_->port() : 0;
}

void Pusher::push_now() {
    if (!publishes_) return;
    MutexLock lock(push_mutex_);
    push_round();
}

}  // namespace dcdb::pusher
