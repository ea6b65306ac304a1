#include "plugins/gpfs_plugin.hpp"

#include "common/clock.hpp"
#include "plugins/devices.hpp"

namespace dcdb::plugins {

namespace {

class GpfsGroup final : public pusher::SensorGroup {
  public:
    GpfsGroup(std::string name, TimestampNs interval_ns,
              std::shared_ptr<sim::FsStatsModel> fs)
        : SensorGroup(std::move(name), interval_ns), fs_(std::move(fs)) {}

  protected:
    bool do_read(TimestampNs ts, std::vector<Value>& out) override {
        if (t0_ == 0) t0_ = ts;
        fs_->advance_to(static_cast<double>(ts - t0_) / 1e9);
        const auto c = fs_->counters();
        const Value values[] = {
            static_cast<Value>(c.read_bytes),
            static_cast<Value>(c.write_bytes),
            static_cast<Value>(c.reads),
            static_cast<Value>(c.writes),
            static_cast<Value>(c.opens),
            static_cast<Value>(c.closes)};
        for (std::size_t i = 0; i < out.size() && i < std::size(values); ++i)
            out[i] = values[i];
        return true;
    }

  private:
    std::shared_ptr<sim::FsStatsModel> fs_;
    TimestampNs t0_{0};
};

}  // namespace

void GpfsPlugin::configure(const ConfigNode& config,
                           const pusher::PluginContext& ctx) {
    auto fs = DeviceRegistry::instance().fs(config.get_string("device"));
    static const char* kSensors[] = {"read_bytes", "write_bytes", "reads",
                                     "writes", "opens", "closes"};
    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        auto group = std::make_unique<GpfsGroup>(group_name, interval, fs);
        for (const char* sensor_name : kSensors) {
            auto& sensor =
                group->add_sensor(std::make_unique<pusher::SensorBase>(
                    sensor_name, ctx.topic_prefix + "/gpfs/" + group_name +
                                     "/" + sensor_name));
            sensor.set_delta(true);
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
