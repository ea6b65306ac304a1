#include "plugins/rest_plugin.hpp"

#include <cmath>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/string_utils.hpp"
#include "net/http.hpp"

namespace dcdb::plugins {

namespace {

class RestEntity final : public pusher::Entity {
  public:
    RestEntity(std::string name, std::string host, std::uint16_t port)
        : Entity(std::move(name)), host_(std::move(host)), port_(port) {}
    const std::string& host() const { return host_; }
    std::uint16_t port() const { return port_; }

  private:
    std::string host_;
    std::uint16_t port_;
};

class RestGroup final : public pusher::SensorGroup {
  public:
    RestGroup(std::string name, TimestampNs interval_ns, RestEntity* server)
        : SensorGroup(std::move(name), interval_ns), server_(server) {}

    void add_path(std::string path) { paths_.push_back(std::move(path)); }

  protected:
    bool do_read(TimestampNs, std::vector<Value>& out) override {
        for (std::size_t i = 0; i < paths_.size(); ++i) {
            HttpResponse resp;
            try {
                resp = http_get(server_->host(), server_->port(), paths_[i]);
            } catch (const NetError&) {
                return false;
            }
            if (resp.status != 200) return false;
            const auto value = parse_double(trim(resp.body));
            if (!value) return false;
            out[i] = static_cast<Value>(std::llround(*value * 1000.0));
        }
        return true;
    }

  private:
    RestEntity* server_;
    std::vector<std::string> paths_;
};

}  // namespace

void RestPlugin::configure(const ConfigNode& config,
                           const pusher::PluginContext& ctx) {
    std::unordered_map<std::string, RestEntity*> servers;
    for (const auto* entity_node : config.children_named("entity")) {
        const std::string entity_name = entity_node->value();
        const auto port = entity_node->get_i64("port");
        if (port <= 0 || port > 0xFFFF)
            throw ConfigError("rest entity: bad port");
        auto& entity = add_entity(std::make_unique<RestEntity>(
            entity_name, entity_node->get_string_or("host", "127.0.0.1"),
            static_cast<std::uint16_t>(port)));
        servers[entity_name] = static_cast<RestEntity*>(&entity);
    }

    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto server_it = servers.find(group_node->get_string("entity"));
        if (server_it == servers.end())
            throw ConfigError("rest group references unknown entity");
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        auto group = std::make_unique<RestGroup>(group_name, interval,
                                                 server_it->second);
        for (const auto* sensor_node : group_node->children_named("sensor")) {
            const std::string sensor_name = sensor_node->value();
            group->add_sensor(std::make_unique<pusher::SensorBase>(
                sensor_name, ctx.topic_prefix + "/rest/" + group_name + "/" +
                                 sensor_name));
            group->add_path(sensor_node->get_string("path"));
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
