// Tests for the ten data-acquisition plugins, each exercised through its
// Configurator against fixture files, simulated devices or real local
// servers (SNMP over UDP, REST over HTTP).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/clock.hpp"
#include "net/http.hpp"
#include "plugins/devices.hpp"
#include "plugins/procfs_plugin.hpp"
#include "pusher/plugin.hpp"
#include "sim/apps.hpp"
#include "sim/arch.hpp"
#include "sim/gpu.hpp"
#include "sim/snmp_agent.hpp"

namespace dcdb::plugins {
namespace {

namespace fs = std::filesystem;

class PluginsTest : public ::testing::Test {
  protected:
    void SetUp() override {
        register_builtin_plugins();
        DeviceRegistry::instance().clear();
        dir_ = fs::temp_directory_path() /
               ("dcdb_plugins_test_" + std::to_string(::getpid()));
        fs::create_directories(dir_);
        ctx_.topic_prefix = "/test/node0";
    }
    void TearDown() override {
        fs::remove_all(dir_);
        DeviceRegistry::instance().clear();
    }

    std::string write_file(const std::string& name,
                           const std::string& content) {
        const auto path = dir_ / name;
        std::ofstream out(path);
        out << content;
        return path.string();
    }

    /// Configure a plugin and sample all its groups once at t=ts.
    void sample_all(pusher::Plugin& plugin, TimestampNs ts) {
        for (const auto& group : plugin.groups()) group->read_all(ts, &cache_);
    }

    Value latest_value(const pusher::Plugin& plugin,
                       const std::string& sensor_name) const {
        for (const auto& group : plugin.groups()) {
            for (const auto& sensor : group->sensors()) {
                if (sensor->name() == sensor_name) {
                    const auto r = cache_.latest(sensor->topic());
                    EXPECT_TRUE(r.has_value()) << sensor_name;
                    return r ? r->value : -1;
                }
            }
        }
        ADD_FAILURE() << "no sensor named " << sensor_name;
        return -1;
    }

    fs::path dir_;
    pusher::PluginContext ctx_;
    CacheSet cache_;
};

// ---------------------------------------------------------------- tester

TEST_F(PluginsTest, TesterCreatesRequestedSensorCount) {
    auto plugin = pusher::PluginRegistry::instance().make("tester");
    plugin->configure(parse_config("group g0 { sensors 123 }"), ctx_);
    EXPECT_EQ(plugin->sensor_count(), 123u);
    sample_all(*plugin, kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "s0"), 0);
    sample_all(*plugin, 2 * kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "s0"), 1);  // incrementing counter
}

TEST_F(PluginsTest, TesterReadCostBurnsCpu) {
    auto plugin = pusher::PluginRegistry::instance().make("tester");
    plugin->configure(
        parse_config("group g0 { sensors 100 ; readCostNs 20000 }"), ctx_);
    const auto start = steady_ns();
    sample_all(*plugin, kNsPerSec);
    EXPECT_GT(steady_ns() - start, 100 * 20000ull * 9 / 10);
}

// ---------------------------------------------------------------- procfs

TEST_F(PluginsTest, ProcfsParsers) {
    const auto mem = parse_meminfo(
        "MemTotal:       196608 kB\nMemFree:  100000 kB\nHugePagesTot: 5\n");
    ASSERT_EQ(mem.size(), 3u);
    EXPECT_EQ(mem[0].first, "MemTotal");
    EXPECT_EQ(mem[0].second, 196608 * 1024);
    EXPECT_EQ(mem[2].second, 5);

    const auto vm = parse_vmstat("pgfault 123\npgmajfault 4\n");
    ASSERT_EQ(vm.size(), 2u);
    EXPECT_EQ(vm[0].first, "pgfault");
    EXPECT_EQ(vm[0].second, 123);

    const auto st = parse_procstat(
        "cpu  10 20 30 40\ncpu0 1 2 3 4 5 6 7\nctxt 999\nbtime 100\n");
    // cpu: 4 cols, cpu0: 7 cols, ctxt: 1 (btime not exported)
    ASSERT_EQ(st.size(), 12u);
    EXPECT_EQ(st[0].first, "cpu.user");
    EXPECT_EQ(st[4].first, "cpu0.user");
    EXPECT_EQ(st[10].first, "cpu0.softirq");
    EXPECT_EQ(st[11].first, "ctxt");
}

TEST_F(PluginsTest, ProcfsPluginAgainstFixture) {
    const auto path = write_file(
        "meminfo", "MemTotal: 1000 kB\nMemFree: 600 kB\nCached: 200 kB\n");
    auto plugin = pusher::PluginRegistry::instance().make("procfs");
    plugin->configure(
        parse_config("group meminfo { file \"" + path + "\" }"), ctx_);
    EXPECT_EQ(plugin->sensor_count(), 3u);
    sample_all(*plugin, kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "MemFree"), 600 * 1024);
}

TEST_F(PluginsTest, ProcfsDeltaForVmstat) {
    const auto path = write_file("vmstat", "pgfault 100\n");
    auto plugin = pusher::PluginRegistry::instance().make("procfs");
    plugin->configure(
        parse_config("group vmstat { file \"" + path + "\" ; type vmstat }"),
        ctx_);
    sample_all(*plugin, kNsPerSec);  // baseline swallowed by delta mode
    write_file("vmstat", "pgfault 175\n");
    sample_all(*plugin, 2 * kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "pgfault"), 75);
}

TEST_F(PluginsTest, ProcfsAgainstRealProcWhenAvailable) {
    if (!fs::exists("/proc/meminfo")) GTEST_SKIP();
    auto plugin = pusher::PluginRegistry::instance().make("procfs");
    plugin->configure(
        parse_config("group meminfo { file /proc/meminfo }"), ctx_);
    EXPECT_GT(plugin->sensor_count(), 10u);
    sample_all(*plugin, kNsPerSec);
    EXPECT_GT(latest_value(*plugin, "MemTotal"), 0);
}

// ----------------------------------------------------------------- sysfs

TEST_F(PluginsTest, SysfsReadsSingleValueFiles) {
    const auto temp_path = write_file("temp0", "45123\n");
    auto plugin = pusher::PluginRegistry::instance().make("sysfs");
    plugin->configure(parse_config("group temps {\n"
                                   "  sensor cpu_temp { path \"" +
                                   temp_path + "\" ; unit mC }\n}"),
                      ctx_);
    sample_all(*plugin, kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "cpu_temp"), 45123);
}

TEST_F(PluginsTest, SysfsEnergyCounterDelta) {
    const auto energy = write_file("energy", "1000000\n");
    auto plugin = pusher::PluginRegistry::instance().make("sysfs");
    plugin->configure(parse_config("group rapl {\n"
                                   "  sensor pkg { path \"" + energy +
                                   "\" ; unit uJ ; delta true }\n}"),
                      ctx_);
    sample_all(*plugin, kNsPerSec);
    write_file("energy", "1250000\n");
    sample_all(*plugin, 2 * kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "pkg"), 250000);
}

// ------------------------------------------------------------ perfevents

TEST_F(PluginsTest, PerfeventsFanOutAndDeltas) {
    DeviceRegistry::instance().add_pmu(
        "pmu0", std::make_shared<sim::PerfCounterModel>(sim::haswell(),
                                                        sim::kripke()));
    auto plugin = pusher::PluginRegistry::instance().make("perfevents");
    plugin->configure(parse_config("device pmu0\n"
                                   "group cpu {\n"
                                   "  counters instructions,cycles\n"
                                   "  cores 0-3\n}"),
                      ctx_);
    EXPECT_EQ(plugin->sensor_count(), 8u);  // 4 cores x 2 counters

    sample_all(*plugin, kNsPerSec);      // baseline
    sample_all(*plugin, 2 * kNsPerSec);  // 1 second of app progress
    const Value instr = latest_value(*plugin, "instructions");
    const Value cycles = latest_value(*plugin, "cycles");
    EXPECT_GT(instr, 0);
    EXPECT_GT(cycles, 0);
    // Kripke is compute-dense: IPC above 1 on the Haswell model.
    EXPECT_GT(static_cast<double>(instr) / static_cast<double>(cycles), 1.0);
}

TEST_F(PluginsTest, PerfeventsMissingDeviceFails) {
    auto plugin = pusher::PluginRegistry::instance().make("perfevents");
    EXPECT_THROW(
        plugin->configure(parse_config("device ghost\ngroup g { }"), ctx_),
        ConfigError);
}

// ------------------------------------------------------------------ ipmi

TEST_F(PluginsTest, IpmiDiscoversSdrSensors) {
    auto bmc = std::make_shared<sim::BmcModel>(1);
    bmc->add_typical_server_sensors();
    DeviceRegistry::instance().add_bmc("bmc0", bmc);

    auto plugin = pusher::PluginRegistry::instance().make("ipmi");
    plugin->configure(parse_config("entity host0 { device bmc0 }\n"
                                   "group board { entity host0 ; "
                                   "discover true }"),
                      ctx_);
    EXPECT_EQ(plugin->sensor_count(), 6u);
    sample_all(*plugin, kNsPerSec);
    // cpu0_temp ~ 58 C published in milli-C.
    const Value temp = latest_value(*plugin, "cpu0_temp");
    EXPECT_NEAR(static_cast<double>(temp), 58000.0, 15000.0);
}

TEST_F(PluginsTest, IpmiExplicitSensorSelection) {
    auto bmc = std::make_shared<sim::BmcModel>(1);
    bmc->add_typical_server_sensors();
    DeviceRegistry::instance().add_bmc("bmc0", bmc);
    auto plugin = pusher::PluginRegistry::instance().make("ipmi");
    plugin->configure(parse_config("entity host0 { device bmc0 }\n"
                                   "group power { entity host0\n"
                                   "  sensor psu { number 5 } }"),
                      ctx_);
    EXPECT_EQ(plugin->sensor_count(), 1u);
    sample_all(*plugin, kNsPerSec);
    EXPECT_NEAR(static_cast<double>(latest_value(*plugin, "psu_power")),
                350000.0, 120000.0);
}

// ------------------------------------------------------------------ snmp

TEST_F(PluginsTest, SnmpGroupReadsOverUdp) {
    sim::SnmpAgentSim agent("public");
    std::int64_t watts = 2500;
    agent.register_oid("1.3.6.1.4.1.1000.1", [&] { return watts; });
    agent.register_oid("1.3.6.1.4.1.1000.2", [] { return std::int64_t{40}; });

    auto plugin = pusher::PluginRegistry::instance().make("snmp");
    plugin->configure(
        parse_config("entity agent0 { port " +
                     std::to_string(agent.port()) +
                     " ; community public }\n"
                     "group pdu { entity agent0\n"
                     "  sensor power { oid 1.3.6.1.4.1.1000.1 ; unit W }\n"
                     "  sensor temp  { oid 1.3.6.1.4.1.1000.2 ; unit C }\n}"),
        ctx_);
    sample_all(*plugin, kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "power"), 2500);
    EXPECT_EQ(latest_value(*plugin, "temp"), 40);

    watts = 2600;
    sample_all(*plugin, 2 * kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "power"), 2600);
}

TEST_F(PluginsTest, SnmpWrongCommunitySkipsCycle) {
    sim::SnmpAgentSim agent("secret");
    agent.register_oid("1.3.6.1.4.1.1000.1", [] { return std::int64_t{1}; });
    auto plugin = pusher::PluginRegistry::instance().make("snmp");
    plugin->configure(
        parse_config("entity agent0 { port " +
                     std::to_string(agent.port()) +
                     " ; community wrong }\n"
                     "group g { entity agent0\n"
                     "  sensor v { oid 1.3.6.1.4.1.1000.1 } }"),
        ctx_);
    sample_all(*plugin, kNsPerSec);
    // Group read fails -> no reading stored, no crash.
    EXPECT_FALSE(
        cache_.latest(plugin->groups()[0]->sensors()[0]->topic()).has_value());
}

// ---------------------------------------------------------------- bacnet

TEST_F(PluginsTest, BacnetReadsPresentValues) {
    auto bms = std::make_shared<sim::BacnetDeviceSim>();
    bms->add_object(101, "chiller_inlet", [] { return 17.5; });
    DeviceRegistry::instance().add_bacnet("bms0", bms);

    auto plugin = pusher::PluginRegistry::instance().make("bacnet");
    plugin->configure(parse_config("entity bms { device bms0 }\n"
                                   "group chillers { entity bms\n"
                                   "  sensor inlet { instance 101 } }"),
                      ctx_);
    sample_all(*plugin, kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "inlet"), 17500);  // milli-units
}

// ------------------------------------------------------------------ rest

TEST_F(PluginsTest, RestPluginSamplesHttpEndpoint) {
    std::atomic<double> value{12.25};
    HttpServer server(0, [&](const HttpRequest& req) {
        if (req.path == "/flow")
            return HttpResponse::ok(std::to_string(value.load()));
        return HttpResponse::not_found();
    });

    auto plugin = pusher::PluginRegistry::instance().make("rest");
    plugin->configure(
        parse_config("entity cooling { host 127.0.0.1 ; port " +
                     std::to_string(server.port()) +
                     " }\n"
                     "group loop { entity cooling\n"
                     "  sensor flow { path /flow ; unit \"l/s\" } }"),
        ctx_);
    sample_all(*plugin, kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "flow"), 12250);
    value.store(13.5);
    sample_all(*plugin, 2 * kNsPerSec);
    EXPECT_EQ(latest_value(*plugin, "flow"), 13500);
}

// ------------------------------------------------------------- gpfs, opa

TEST_F(PluginsTest, GpfsPublishesIoDeltas) {
    DeviceRegistry::instance().add_fs(
        "fs0", std::make_shared<sim::FsStatsModel>(1));
    auto plugin = pusher::PluginRegistry::instance().make("gpfs");
    plugin->configure(parse_config("device fs0\ngroup io { }"), ctx_);
    EXPECT_EQ(plugin->sensor_count(), 6u);
    sample_all(*plugin, kNsPerSec);
    sample_all(*plugin, 3 * kNsPerSec);
    EXPECT_GT(latest_value(*plugin, "write_bytes"), 0);
}

TEST_F(PluginsTest, OpaPublishesPortCounterDeltas) {
    DeviceRegistry::instance().add_fabric(
        "hfi0", std::make_shared<sim::FabricPortModel>(sim::amg()));
    auto plugin = pusher::PluginRegistry::instance().make("opa");
    plugin->configure(parse_config("device hfi0\ngroup port0 { }"), ctx_);
    EXPECT_EQ(plugin->sensor_count(), 5u);
    sample_all(*plugin, kNsPerSec);
    sample_all(*plugin, 3 * kNsPerSec);
    EXPECT_GT(latest_value(*plugin, "xmit_data"), 0);
    EXPECT_GT(latest_value(*plugin, "xmit_pkts"), 0);
}

// ------------------------------------------------------------------- gpu

TEST_F(PluginsTest, GpuPluginFansOutPerDeviceMetrics) {
    DeviceRegistry::instance().add_gpu(
        "gpus0", std::make_shared<sim::GpuDeviceModel>(2, 7));
    auto plugin = pusher::PluginRegistry::instance().make("gpu");
    plugin->configure(parse_config("device gpus0\ngroup gpus { }"), ctx_);
    EXPECT_EQ(plugin->sensor_count(), 10u);  // 2 devices x 5 metrics
    sample_all(*plugin, kNsPerSec);
    sample_all(*plugin, 5 * kNsPerSec);
    const Value power_mw = latest_value(*plugin, "power");
    EXPECT_GT(power_mw, 20000);   // > 20 W in milliwatts
    EXPECT_LT(power_mw, 450000);
    const Value util = latest_value(*plugin, "utilization");
    EXPECT_GE(util, 0);
    EXPECT_LE(util, 100);
}

TEST_F(PluginsTest, GpuPluginMissingDeviceFails) {
    auto plugin = pusher::PluginRegistry::instance().make("gpu");
    EXPECT_THROW(
        plugin->configure(parse_config("device nope\ngroup g { }"), ctx_),
        ConfigError);
}

// -------------------------------------------------------------- registry

TEST_F(PluginsTest, RegistryListsAllTenPlugins) {
    const auto available = pusher::PluginRegistry::instance().available();
    EXPECT_GE(available.size(), 10u);
    for (const char* name :
         {"tester", "procfs", "sysfs", "perfevents", "ipmi", "snmp",
          "bacnet", "rest", "gpfs", "opa", "gpu"}) {
        EXPECT_NE(std::find(available.begin(), available.end(), name),
                  available.end())
            << name;
    }
}

}  // namespace
}  // namespace dcdb::plugins
