#include "plugins/ipmi_plugin.hpp"

#include <cmath>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "plugins/devices.hpp"

namespace dcdb::plugins {

namespace {

/// Shared connection to one BMC; all groups of this host reference it
/// (the paper's motivating example for the Entity level). It also owns
/// the device-time bookkeeping: sensor processes advance with wall time.
class BmcEntity final : public pusher::Entity {
  public:
    BmcEntity(std::string name, std::shared_ptr<sim::BmcModel> bmc)
        : Entity(std::move(name)), bmc_(std::move(bmc)) {}

    sim::BmcModel& bmc() { return *bmc_; }

    /// Advance the device's stochastic processes to wall time `ts`;
    /// serialized internally, called by every group sharing this host.
    void sync_time(TimestampNs ts) {
        std::scoped_lock lock(mutex_);
        if (last_ts_ != 0 && ts > last_ts_)
            bmc_->tick(static_cast<double>(ts - last_ts_) / 1e9);
        last_ts_ = ts;
    }

  private:
    std::shared_ptr<sim::BmcModel> bmc_;
    std::mutex mutex_;
    TimestampNs last_ts_{0};
};

class IpmiGroup final : public pusher::SensorGroup {
  public:
    IpmiGroup(std::string name, TimestampNs interval_ns, BmcEntity* host)
        : SensorGroup(std::move(name), interval_ns), host_(host) {}

    void add_slot(const sim::IpmiSdr& sdr) { slots_.push_back(sdr); }

  protected:
    bool do_read(TimestampNs ts, std::vector<Value>& out) override {
        host_->sync_time(ts);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const std::uint8_t request[] = {
                sim::kIpmiNetFnSensor, sim::kIpmiCmdGetSensorReading,
                slots_[i].sensor_number};
            const auto response = host_->bmc().handle(request);
            if (response.size() < 2 ||
                response[0] != sim::kIpmiCompletionOk)
                return false;
            const double physical =
                slots_[i].m * response[1] + slots_[i].b;
            out[i] = static_cast<Value>(std::llround(physical * 1000.0));
        }
        return true;
    }

  private:
    BmcEntity* host_;
    std::vector<sim::IpmiSdr> slots_;
};

}  // namespace

void IpmiPlugin::configure(const ConfigNode& config,
                           const pusher::PluginContext& ctx) {
    std::unordered_map<std::string, BmcEntity*> hosts;
    for (const auto* entity_node : config.children_named("entity")) {
        const std::string entity_name = entity_node->value();
        const std::string device = entity_node->get_string("device");
        auto& entity = add_entity(std::make_unique<BmcEntity>(
            entity_name, DeviceRegistry::instance().bmc(device)));
        hosts[entity_name] = static_cast<BmcEntity*>(&entity);
    }

    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const std::string host_name = group_node->get_string("entity");
        const auto host_it = hosts.find(host_name);
        if (host_it == hosts.end())
            throw ConfigError("ipmi group references unknown entity " +
                              host_name);
        BmcEntity* host = host_it->second;
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        auto group =
            std::make_unique<IpmiGroup>(group_name, interval, host);

        const auto sdrs = host->bmc().sdr_repository();
        auto add_ipmi_sensor = [&](const sim::IpmiSdr& sdr) {
            group->add_sensor(std::make_unique<pusher::SensorBase>(
                sdr.name,
                ctx.topic_prefix + "/ipmi/" + host->name() + "/" + sdr.name));
            group->add_slot(sdr);
        };

        if (group_node->get_bool_or("discover", false)) {
            for (const auto& sdr : sdrs) add_ipmi_sensor(sdr);
        } else {
            for (const auto* sensor_node :
                 group_node->children_named("sensor")) {
                const auto number = sensor_node->get_i64("number");
                bool found = false;
                for (const auto& sdr : sdrs) {
                    if (sdr.sensor_number == number) {
                        add_ipmi_sensor(sdr);
                        found = true;
                        break;
                    }
                }
                if (!found)
                    throw ConfigError("ipmi: no sensor number " +
                                      std::to_string(number));
            }
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
