#include "plugins/snmp_plugin.hpp"

#include <unordered_map>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "sim/snmp_agent.hpp"

namespace dcdb::plugins {

namespace {

class SnmpAgentEntity final : public pusher::Entity {
  public:
    SnmpAgentEntity(std::string name, std::uint16_t port,
                    std::string community)
        : Entity(std::move(name)), port_(port),
          community_(std::move(community)) {}

    std::uint16_t port() const { return port_; }
    const std::string& community() const { return community_; }

  private:
    std::uint16_t port_;
    std::string community_;
};

class SnmpGroup final : public pusher::SensorGroup {
  public:
    SnmpGroup(std::string name, TimestampNs interval_ns,
              SnmpAgentEntity* agent)
        : SensorGroup(std::move(name), interval_ns), agent_(agent) {}

    void add_oid(std::string oid) { oids_.push_back(std::move(oid)); }

  protected:
    bool do_read(TimestampNs, std::vector<Value>& out) override {
        // One GET for the whole group: group-collective acquisition.
        const auto values =
            sim::snmp_get(agent_->port(), agent_->community(), oids_, 500);
        if (!values || values->size() != out.size()) return false;
        for (std::size_t i = 0; i < out.size(); ++i) out[i] = (*values)[i];
        return true;
    }

  private:
    SnmpAgentEntity* agent_;
    std::vector<std::string> oids_;
};

}  // namespace

void SnmpPlugin::configure(const ConfigNode& config,
                           const pusher::PluginContext& ctx) {
    std::unordered_map<std::string, SnmpAgentEntity*> agents;
    for (const auto* entity_node : config.children_named("entity")) {
        const std::string entity_name = entity_node->value();
        const auto port = entity_node->get_i64("port");
        if (port <= 0 || port > 0xFFFF)
            throw ConfigError("snmp entity: bad port");
        auto& entity = add_entity(std::make_unique<SnmpAgentEntity>(
            entity_name, static_cast<std::uint16_t>(port),
            entity_node->get_string_or("community", "public")));
        agents[entity_name] = static_cast<SnmpAgentEntity*>(&entity);
    }

    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto agent_it = agents.find(group_node->get_string("entity"));
        if (agent_it == agents.end())
            throw ConfigError("snmp group references unknown entity");
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        auto group = std::make_unique<SnmpGroup>(group_name, interval,
                                                 agent_it->second);
        for (const auto* sensor_node : group_node->children_named("sensor")) {
            const std::string sensor_name = sensor_node->value();
            auto& sensor =
                group->add_sensor(std::make_unique<pusher::SensorBase>(
                    sensor_name, ctx.topic_prefix + "/snmp/" + group_name +
                                     "/" + sensor_name));
            sensor.set_delta(sensor_node->get_bool_or("delta", false));
            group->add_oid(sensor_node->get_string("oid"));
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
