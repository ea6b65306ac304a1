#include "plugins/gpu_plugin.hpp"

#include <cmath>

#include "common/clock.hpp"
#include "plugins/devices.hpp"

namespace dcdb::plugins {

namespace {

enum class GpuMetric { kUtil, kMemory, kPower, kTemp, kClock };

struct MetricDef {
    GpuMetric metric;
    const char* name;
};

// Published in %, MB, mW, mC and MHz.
constexpr MetricDef kMetrics[] = {
    {GpuMetric::kUtil, "utilization"},
    {GpuMetric::kMemory, "memory_used"},
    {GpuMetric::kPower, "power"},
    {GpuMetric::kTemp, "temperature"},
    {GpuMetric::kClock, "sm_clock"},
};

class GpuGroup final : public pusher::SensorGroup {
  public:
    GpuGroup(std::string name, TimestampNs interval_ns,
             std::shared_ptr<sim::GpuDeviceModel> gpus)
        : SensorGroup(std::move(name), interval_ns), gpus_(std::move(gpus)) {}

    void add_slot(int device, GpuMetric metric) {
        slots_.push_back({device, metric});
    }

  protected:
    bool do_read(TimestampNs ts, std::vector<Value>& out) override {
        if (t0_ == 0) t0_ = ts;
        gpus_->advance_to(static_cast<double>(ts - t0_) / 1e9);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const auto& [device, metric] = slots_[i];
            const auto sample = gpus_->sample(device);
            switch (metric) {
                case GpuMetric::kUtil:
                    out[i] = static_cast<Value>(
                        std::llround(sample.utilization_pct));
                    break;
                case GpuMetric::kMemory:
                    out[i] = static_cast<Value>(
                        std::llround(sample.memory_used_mb));
                    break;
                case GpuMetric::kPower:
                    out[i] = static_cast<Value>(
                        std::llround(sample.power_w * 1000.0));
                    break;
                case GpuMetric::kTemp:
                    out[i] = static_cast<Value>(
                        std::llround(sample.temperature_c * 1000.0));
                    break;
                case GpuMetric::kClock:
                    out[i] = static_cast<Value>(
                        std::llround(sample.sm_clock_mhz));
                    break;
            }
        }
        return true;
    }

  private:
    std::shared_ptr<sim::GpuDeviceModel> gpus_;
    std::vector<std::pair<int, GpuMetric>> slots_;
    TimestampNs t0_{0};
};

}  // namespace

void GpuPlugin::configure(const ConfigNode& config,
                          const pusher::PluginContext& ctx) {
    auto gpus = DeviceRegistry::instance().gpu(config.get_string("device"));
    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        auto group = std::make_unique<GpuGroup>(group_name, interval, gpus);
        for (int device = 0; device < gpus->device_count(); ++device) {
            for (const auto& def : kMetrics) {
                group->add_sensor(std::make_unique<pusher::SensorBase>(
                    def.name, ctx.topic_prefix + "/gpu" +
                                  std::to_string(device) + "/" + def.name));
                group->add_slot(device, def.metric);
            }
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
