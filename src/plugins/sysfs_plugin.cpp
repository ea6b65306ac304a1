#include "plugins/sysfs_plugin.hpp"

#include <fstream>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/string_utils.hpp"

namespace dcdb::plugins {

namespace {

class SysfsGroup final : public pusher::SensorGroup {
  public:
    using SensorGroup::SensorGroup;

    void add_path(std::string path) { paths_.push_back(std::move(path)); }

  protected:
    bool do_read(TimestampNs, std::vector<Value>& out) override {
        bool any = false;
        for (std::size_t i = 0; i < paths_.size(); ++i) {
            std::ifstream in(paths_[i]);
            if (!in) continue;
            std::string line;
            std::getline(in, line);
            const auto value = parse_i64(trim(line));
            if (!value) continue;
            out[i] = *value;
            any = true;
        }
        return any;
    }

  private:
    std::vector<std::string> paths_;
};

}  // namespace

void SysfsPlugin::configure(const ConfigNode& config,
                            const pusher::PluginContext& ctx) {
    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        auto group = std::make_unique<SysfsGroup>(group_name, interval);

        for (const auto* sensor_node : group_node->children_named("sensor")) {
            const std::string sensor_name = sensor_node->value();
            if (sensor_name.empty())
                throw ConfigError("sysfs sensor needs a name");
            auto& sensor =
                group->add_sensor(std::make_unique<pusher::SensorBase>(
                    sensor_name, ctx.topic_prefix + "/sysfs/" + group_name +
                                     "/" + sensor_name));
            sensor.set_delta(sensor_node->get_bool_or("delta", false));
            group->add_path(sensor_node->get_string("path"));
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
