#include "plugins/opa_plugin.hpp"

#include "common/clock.hpp"
#include "plugins/devices.hpp"

namespace dcdb::plugins {

namespace {

class OpaGroup final : public pusher::SensorGroup {
  public:
    OpaGroup(std::string name, TimestampNs interval_ns,
             std::shared_ptr<sim::FabricPortModel> port)
        : SensorGroup(std::move(name), interval_ns), port_(std::move(port)) {}

  protected:
    bool do_read(TimestampNs ts, std::vector<Value>& out) override {
        if (t0_ == 0) t0_ = ts;
        port_->advance_to(static_cast<double>(ts - t0_) / 1e9);
        const auto c = port_->counters();
        const Value values[] = {
            static_cast<Value>(c.xmit_data_bytes),
            static_cast<Value>(c.rcv_data_bytes),
            static_cast<Value>(c.xmit_packets),
            static_cast<Value>(c.rcv_packets),
            static_cast<Value>(c.link_error_recovery)};
        for (std::size_t i = 0; i < out.size() && i < std::size(values); ++i)
            out[i] = values[i];
        return true;
    }

  private:
    std::shared_ptr<sim::FabricPortModel> port_;
    TimestampNs t0_{0};
};

}  // namespace

void OpaPlugin::configure(const ConfigNode& config,
                          const pusher::PluginContext& ctx) {
    auto port = DeviceRegistry::instance().fabric(config.get_string("device"));
    static const char* kSensors[] = {"xmit_data", "rcv_data", "xmit_pkts",
                                     "rcv_pkts", "link_err_recovery"};
    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        auto group = std::make_unique<OpaGroup>(group_name, interval, port);
        for (const char* sensor_name : kSensors) {
            auto& sensor =
                group->add_sensor(std::make_unique<pusher::SensorBase>(
                    sensor_name, ctx.topic_prefix + "/opa/" + group_name +
                                     "/" + sensor_name));
            sensor.set_delta(true);
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
