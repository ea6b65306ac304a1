#include "plugins/perfevents_plugin.hpp"

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/string_utils.hpp"
#include "plugins/devices.hpp"

namespace dcdb::plugins {

namespace {

enum class Counter { kInstructions, kCycles, kCacheMisses, kBranchMisses,
                     kPower };

Counter counter_by_name(const std::string& name) {
    if (name == "instructions") return Counter::kInstructions;
    if (name == "cycles") return Counter::kCycles;
    if (name == "cache_misses") return Counter::kCacheMisses;
    if (name == "branch_misses") return Counter::kBranchMisses;
    if (name == "power") return Counter::kPower;
    throw ConfigError("perfevents: unknown counter " + name);
}

class PerfGroup final : public pusher::SensorGroup {
  public:
    PerfGroup(std::string name, TimestampNs interval_ns,
              std::shared_ptr<sim::PerfCounterModel> pmu)
        : SensorGroup(std::move(name), interval_ns), pmu_(std::move(pmu)) {}

    void add_slot(std::size_t core, Counter counter) {
        slots_.push_back({core, counter});
    }

  protected:
    bool do_read(TimestampNs ts, std::vector<Value>& out) override {
        if (t0_ == 0) t0_ = ts;
        pmu_->advance_to(static_cast<double>(ts - t0_) / 1e9);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            const auto& [core, counter] = slots_[i];
            const auto counters = pmu_->core(core);
            switch (counter) {
                case Counter::kInstructions:
                    out[i] = static_cast<Value>(counters.instructions);
                    break;
                case Counter::kCycles:
                    out[i] = static_cast<Value>(counters.cycles);
                    break;
                case Counter::kCacheMisses:
                    out[i] = static_cast<Value>(counters.cache_misses);
                    break;
                case Counter::kBranchMisses:
                    out[i] = static_cast<Value>(counters.branch_misses);
                    break;
                case Counter::kPower:
                    out[i] = static_cast<Value>(pmu_->power_w() * 1000.0);
                    break;
            }
        }
        return true;
    }

  private:
    std::shared_ptr<sim::PerfCounterModel> pmu_;
    std::vector<std::pair<std::size_t, Counter>> slots_;
    TimestampNs t0_{0};
};

std::pair<std::size_t, std::size_t> parse_core_range(const std::string& spec,
                                                     std::size_t max_cores) {
    if (spec.empty()) return {0, max_cores - 1};
    const std::size_t dash = spec.find('-');
    if (dash == std::string::npos) {
        const auto core = parse_u64(spec);
        if (!core) throw ConfigError("bad cores spec: " + spec);
        return {*core, *core};
    }
    const auto lo = parse_u64(spec.substr(0, dash));
    const auto hi = parse_u64(spec.substr(dash + 1));
    if (!lo || !hi || *lo > *hi) throw ConfigError("bad cores spec: " + spec);
    return {*lo, std::min<std::size_t>(*hi, max_cores - 1)};
}

}  // namespace

void PerfeventsPlugin::configure(const ConfigNode& config,
                                 const pusher::PluginContext& ctx) {
    const std::string device = config.get_string("device");
    auto pmu = DeviceRegistry::instance().pmu(device);

    for (const auto* group_node : config.children_named("group")) {
        const std::string group_name = group_node->value();
        const auto interval =
            group_node->get_duration_ns_or("interval", kNsPerSec);
        const std::string counters_spec = group_node->get_string_or(
            "counters", "instructions,cycles,cache_misses,branch_misses");
        const auto [core_lo, core_hi] = parse_core_range(
            group_node->get_string_or("cores", ""), pmu->core_count());

        auto group =
            std::make_unique<PerfGroup>(group_name, interval, pmu);
        for (std::size_t core = core_lo; core <= core_hi; ++core) {
            for (const auto& counter_name :
                 split_nonempty(counters_spec, ',')) {
                const Counter counter = counter_by_name(counter_name);
                auto& sensor =
                    group->add_sensor(std::make_unique<pusher::SensorBase>(
                        counter_name,
                        ctx.topic_prefix + "/perf/cpu" +
                            std::to_string(core) + "/" + counter_name));
                // Monotonic PMU counters; power (mW) is a gauge.
                if (counter != Counter::kPower) sensor.set_delta(true);
                group->add_slot(core, counter);
            }
        }
        add_group(std::move(group));
    }
}

}  // namespace dcdb::plugins
