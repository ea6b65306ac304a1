#include "pusher/pusher.hpp"

#include <algorithm>
#include <limits>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "pusher/rest_api.hpp"
#include "pusher/telemetry_feed.hpp"

namespace dcdb::pusher {

namespace {

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
    const bool publishes = transport || (broker != "none" && !broker.empty());

    const int threads = static_cast<int>(
        config_.get_i64_or("global.threads", 2));
    sampler_ = std::make_unique<Sampler>(threads, cache_.get(), &registry_,
                                         &tracer_, publishes);

    configure_plugins();

    if (transport) {
        mqtt_client_ = std::make_unique<mqtt::MqttClient>(
            std::move(transport), "pusher-" + topic_prefix_, &registry_);
        mqtt_client_->connect();
    } else if (broker != "none" && !broker.empty()) {
        const auto parts = split_nonempty(broker, ':');
        if (parts.size() != 2)
            throw ConfigError("mqttBroker must be host:port, got " + broker);
        const auto port = parse_u64(parts[1]);
        if (!port || *port > 0xFFFF)
            throw ConfigError("bad broker port in " + broker);
        broker_host_ = parts[0];
        broker_port_ = static_cast<std::uint16_t>(*port);
        try {
            mqtt_client_ = mqtt::MqttClient::connect_tcp(
                broker_host_, broker_port_, "pusher-" + topic_prefix_,
                &registry_);
        } catch (const NetError& e) {
            // The agent may simply not be up yet; sample into the cache
            // and keep retrying from the push thread.
            DCDB_WARN("pusher") << "collect agent unreachable, will "
                                   "retry: " << e.what();
        }
    }

    reconnect_backoff_min_ns_ = config_.get_duration_ns_or(
        "global.reconnectBackoffMin", 250 * kNsPerMs);
    reconnect_backoff_max_ns_ = config_.get_duration_ns_or(
        "global.reconnectBackoffMax", 10 * kNsPerSec);

    if (publishes) {
        MqttPusherConfig mc;
        mc.push_interval_ns =
            config_.get_duration_ns_or("global.pushInterval", kNsPerSec);
        mc.burst_mode = config_.get_bool_or("global.burstMode", false);
        mc.qos = static_cast<std::uint8_t>(
            config_.get_i64_or("global.qos", 0));
        mc.stagger_seed = std::hash<std::string>{}(topic_prefix_);
        mc.registry = &registry_;
        mc.tracer = &tracer_;
        mqtt_pusher_ = std::make_unique<MqttPusher>(
            [this] { return client_for_push(); }, &plugins_,
            &plugins_mutex_, mc);
    }

    if (config_.get_bool_or("global.restApi", false))
        rest_server_ = make_pusher_rest_server(*this);

    // The self-feed plugin goes last, after every subsystem above has
    // registered its metrics: the TelemetryGroup's sensor set is a
    // snapshot of the registry at this point (telemetry_feed.hpp).
    if (config_.get_bool_or("global.telemetryFeed", false)) {
        const auto interval = config_.get_duration_ns_or(
            "global.telemetryInterval", 10 * kNsPerSec);
        auto feed = std::make_unique<TelemetryPlugin>(
            &registry_, topic_prefix_, interval,
            [this] {
                cache_bytes_.set(
                    static_cast<std::int64_t>(cache_->memory_bytes()));
                readings_pending_.set(
                    static_cast<std::int64_t>(cache_->pending()));
            });
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
    if (mqtt_pusher_) mqtt_pusher_->start();
}

void Pusher::stop() {
    if (!started_) {
        if (rest_server_) rest_server_->stop();
        return;
    }
    started_ = false;
    sampler_->stop();
    if (mqtt_pusher_) mqtt_pusher_->stop();
    {
        // The push thread is joined, but the REST server may still be
        // serving mqtt_connected() probes.
        MutexLock lock(client_mutex_);
        if (mqtt_client_) mqtt_client_->disconnect();
    }
    if (rest_server_) rest_server_->stop();
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

mqtt::MqttClient* Pusher::client_for_push() {
    MutexLock lock(client_mutex_);
    if (mqtt_client_ && mqtt_client_->connected())
        return mqtt_client_.get();
    if (broker_host_.empty()) return nullptr;  // in-proc: no reconnect

    // Reconnect state machine: exponential backoff with equal-jitter so
    // a fleet of Pushers does not stampede a restarted Collect Agent.
    const std::uint64_t now = steady_ns();
    if (now - last_connect_attempt_ns_ < reconnect_delay_ns_)
        return nullptr;
    last_connect_attempt_ns_ = now;
    try {
        if (mqtt_client_) mqtt_client_->disconnect();
        mqtt_client_ = mqtt::MqttClient::connect_tcp(
            broker_host_, broker_port_, "pusher-" + topic_prefix_,
            &registry_);
        reconnect_backoff_ns_ = 0;
        reconnect_delay_ns_ = 0;
        reconnects_.add(1);
        DCDB_INFO("pusher") << "reconnected to collect agent";
        return mqtt_client_.get();
    } catch (const NetError&) {
        reconnect_failures_.add(1);
        reconnect_backoff_ns_ =
            reconnect_backoff_ns_ == 0
                ? reconnect_backoff_min_ns_
                : std::min<TimestampNs>(reconnect_backoff_ns_ * 2,
                                        reconnect_backoff_max_ns_);
        const TimestampNs half = reconnect_backoff_ns_ / 2;
        reconnect_delay_ns_ = half + reconnect_rng_.below(half + 1);
        return nullptr;  // still down; retry after the backoff
    }
}

bool Pusher::mqtt_connected() const {
    MutexLock lock(client_mutex_);
    return mqtt_client_ && mqtt_client_->connected();
}

PusherStats Pusher::stats() const {
    ReaderLock lock(plugins_mutex_);
    PusherStats s;
    s.plugins = plugins_.size();
    for (const auto& plugin : plugins_) s.sensors += plugin->sensor_count();
    s.samples_taken = sampler_->samples_taken();
    if (mqtt_pusher_) {
        const auto ms = mqtt_pusher_->stats();
        s.readings_pushed = ms.readings_pushed;
        s.messages_sent = ms.messages_sent;
        s.publish_failures = ms.publish_failures;
    }
    s.readings_dropped = sampler_->readings_dropped();
    s.readings_pending = cache_->pending();
    readings_pending_.set(static_cast<std::int64_t>(s.readings_pending));
    s.reconnects = reconnects_.value();
    s.reconnect_failures = reconnect_failures_.value();
    s.cache_bytes = cache_->memory_bytes();
    cache_bytes_.set(static_cast<std::int64_t>(s.cache_bytes));
    return s;
}

std::uint16_t Pusher::rest_port() const {
    return rest_server_ ? rest_server_->port() : 0;
}

void Pusher::push_now() {
    if (mqtt_pusher_) mqtt_pusher_->push_once();
}

}  // namespace dcdb::pusher
