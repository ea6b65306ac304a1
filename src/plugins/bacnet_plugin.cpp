#include "plugins/bacnet_plugin.hpp"

#include <cmath>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "plugins/devices.hpp"

namespace dcdb::plugins {

namespace {

class BacnetEntity final : public pusher::Entity {
  public:
    BacnetEntity(std::string name,
                 std::shared_ptr<sim::BacnetDeviceSim> device)
        : Entity(std::move(name)), device_(std::move(device)) {}
    sim::BacnetDeviceSim& device() { return *device_; }

  private:
    std::shared_ptr<sim::BacnetDeviceSim> device_;
};

class BacnetGroup final : public pusher::SensorGroup {
  public:
    BacnetGroup(std::string name, TimestampNs interval_ns,
                BacnetEntity* bms)
        : SensorGroup(std::move(name), interval_ns), bms_(bms) {}

    void add_instance(std::uint32_t instance) {
        instances_.push_back(instance);
    }

  protected:
    bool do_read(TimestampNs, std::vector<Value>& out) override {
        for (std::size_t i = 0; i < instances_.size(); ++i) {
            const auto response =
                bms_->device().handle(sim::bacnet_read_request(instances_[i]));
            double value = 0;
            if (!sim::bacnet_parse_response(response, value)) return false;
            out[i] = static_cast<Value>(std::llround(value * 1000.0));
        }
        return true;
    }

  private:
    BacnetEntity* bms_;
    std::vector<std::uint32_t> instances_;
};

}  // namespace

void BacnetPlugin::configure(const ConfigNode& config,
                             const pusher::PluginContext& ctx) {
    std::unordered_map<std::string, BacnetEntity*> devices;
    for (const auto* entity_node : config.children_named("entity")) {
        const std::string entity_name = entity_node->value();
        auto& entity = add_entity(std::make_unique<BacnetEntity>(
            entity_name, DeviceRegistry::instance().bacnet(
                             entity_node->get_string("device"))));
        devices[entity_name] = static_cast<BacnetEntity*>(&entity);
    }

    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto device_it = devices.find(group_node->get_string("entity"));
        if (device_it == devices.end())
            throw ConfigError("bacnet group references unknown entity");
        const auto interval =
            group_node->get_duration_ns_or("interval", 10 * kNsPerSec);
        auto group = std::make_unique<BacnetGroup>(group_name, interval,
                                                   device_it->second);
        for (const auto* sensor_node : group_node->children_named("sensor")) {
            const std::string sensor_name = sensor_node->value();
            group->add_sensor(std::make_unique<pusher::SensorBase>(
                sensor_name, ctx.topic_prefix + "/bacnet/" + group_name +
                                 "/" + sensor_name));
            group->add_instance(static_cast<std::uint32_t>(
                sensor_node->get_i64("instance")));
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
