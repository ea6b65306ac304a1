// Holistic cluster monitoring: the paper's Figure 1 deployment scenario
// on one machine.
//
//   * four "compute nodes", each with an in-band Pusher sampling
//     per-core performance counters (simulated PMUs running CORAL-2
//     application models) and node power;
//   * one management-server Pusher collecting out-of-band facility data
//     (IPMI board sensors and a PDU over real SNMP/UDP);
//   * one Collect Agent feeding a two-node Storage Backend cluster with
//     hierarchy-aware partitioning;
//   * cross-layer analysis through libDCDB: a virtual sensor aggregates
//     per-node power into system power, and the hierarchy tree is browsed
//     level by level like the paper's Grafana plugin.
//
// Run:  ./holistic_cluster [seconds]
#include <cstdio>
#include <filesystem>
#include <thread>

#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "libdcdb/connection.hpp"
#include "plugins/devices.hpp"
#include "pusher/pusher.hpp"
#include "sim/apps.hpp"
#include "sim/arch.hpp"
#include "sim/bmc.hpp"
#include "sim/pdu.hpp"
#include "sim/snmp_agent.hpp"
#include "store/cluster.hpp"

using namespace dcdb;

int main(int argc, char** argv) {
    const int seconds = argc > 1 ? std::atoi(argv[1]) : 8;
    const std::string dir = "/tmp/dcdb_holistic";
    std::filesystem::remove_all(dir);

    // --- storage + collect agent -----------------------------------
    store::StoreCluster cluster({dir, 2, 1, "hierarchy", 8u << 20, false});
    store::MetaStore meta(dir + "/meta.log");
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp true ; restApi true }"), &cluster,
        &meta);

    // --- simulated hardware -----------------------------------------
    plugins::register_builtin_plugins();
    auto& devices = plugins::DeviceRegistry::instance();
    const sim::AppModel apps[] = {sim::kripke(), sim::amg(), sim::lammps(),
                                  sim::quicksilver()};
    for (int n = 0; n < 4; ++n) {
        devices.add_pmu("node" + std::to_string(n) + "_pmu",
                        std::make_shared<sim::PerfCounterModel>(
                            sim::haswell(), apps[n], 100 + n));
    }
    auto bmc = std::make_shared<sim::BmcModel>(5);
    bmc->add_typical_server_sensors();
    devices.add_bmc("rack0_bmc", bmc);

    sim::PduModel pdu(4, 320.0, 9);
    sim::SnmpAgentSim snmp_agent("public");
    const TimestampNs sim_t0 = now_ns();
    for (int outlet = 0; outlet < 4; ++outlet) {
        snmp_agent.register_oid(
            "1.3.6.1.4.1.318.1." + std::to_string(outlet + 1),
            [&pdu, outlet, sim_t0] {
                pdu.advance_to(static_cast<double>(now_ns() - sim_t0) / 1e9);
                return static_cast<std::int64_t>(pdu.outlet_power_w(outlet));
            });
    }

    // --- compute-node pushers (in-band) ------------------------------
    std::vector<std::unique_ptr<pusher::Pusher>> pushers;
    for (int n = 0; n < 4; ++n) {
        auto config = parse_config(
            "global {\n"
            "  mqttBroker 127.0.0.1:" + std::to_string(agent.mqtt_port()) +
            "\n"
            "  topicPrefix /lrz/demo/rack0/node" + std::to_string(n) + "\n"
            "  threads 2 ; pushInterval 1s\n"
            "}\n"
            "plugins {\n"
            "  perfevents {\n"
            "    device node" + std::to_string(n) + "_pmu\n"
            "    group cpu { interval 1s ; counters instructions,cycles ; "
            "cores 0-3 }\n"
            "    group pwr { interval 1s ; counters power ; cores 0-0 }\n"
            "  }\n"
            "}\n");
        pushers.push_back(
            std::make_unique<pusher::Pusher>(std::move(config)));
    }

    // --- management-server pusher (out-of-band) ----------------------
    {
        auto config = parse_config(
            "global {\n"
            "  mqttBroker 127.0.0.1:" + std::to_string(agent.mqtt_port()) +
            "\n"
            "  topicPrefix /lrz/demo/facility\n"
            "  threads 2 ; pushInterval 1s\n"
            "}\n"
            "plugins {\n"
            "  ipmi {\n"
            "    entity bmc0 { device rack0_bmc }\n"
            "    group board { entity bmc0 ; interval 1s ; discover true }\n"
            "  }\n"
            "  snmp {\n"
            "    entity pdu0 { port " + std::to_string(snmp_agent.port()) +
            " ; community public }\n"
            "    group outlets { entity pdu0 ; interval 1s\n"
            "      sensor outlet0 { oid 1.3.6.1.4.1.318.1.1 }\n"
            "      sensor outlet1 { oid 1.3.6.1.4.1.318.1.2 }\n"
            "      sensor outlet2 { oid 1.3.6.1.4.1.318.1.3 }\n"
            "      sensor outlet3 { oid 1.3.6.1.4.1.318.1.4 }\n"
            "    }\n"
            "  }\n"
            "}\n");
        pushers.push_back(
            std::make_unique<pusher::Pusher>(std::move(config)));
    }

    const TimestampNs t0 = now_ns();
    for (auto& p : pushers) p->start();
    std::printf("5 pushers (4 in-band compute nodes + 1 facility server) "
                "-> 1 collect agent -> 2 storage nodes\ncollecting for %d "
                "seconds...\n\n",
                seconds);
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    for (auto& p : pushers) p->stop();
    const TimestampNs t1 = now_ns();

    // --- browse the hierarchy (the Grafana-plugin workflow) ----------
    std::printf("hierarchy browsing (like the paper's Grafana drop-downs):\n");
    std::string path = "/";
    while (true) {
        const auto children = agent.hierarchy().children(path);
        if (children.empty()) break;
        std::printf("  %-28s -> {", path.c_str());
        for (std::size_t i = 0; i < children.size(); ++i)
            std::printf("%s%s", i ? ", " : " ", children[i].c_str());
        std::printf(" }\n");
        path = (path == "/" ? "" : path) + "/" + children[0];
    }

    // --- cross-layer analysis through libDCDB ------------------------
    lib::Connection conn(cluster, meta);
    for (int n = 0; n < 4; ++n) {
        const std::string topic =
            "/lrz/demo/rack0/node" + std::to_string(n) + "/perf/cpu0/power";
        SensorMetadata md;
        md.topic = topic;
        md.unit = "mW";  // raw values are stored in milli-watts
        md.scale = 1.0;
        conn.metadata().publish(md);
    }
    conn.define_virtual(
        "/lrz/demo/system_power",
        "/lrz/demo/rack0/node0/perf/cpu0/power + "
        "/lrz/demo/rack0/node1/perf/cpu0/power + "
        "/lrz/demo/rack0/node2/perf/cpu0/power + "
        "/lrz/demo/rack0/node3/perf/cpu0/power",
        "W");
    const auto system_power = conn.query("/lrz/demo/system_power", t0, t1);
    std::printf("\nvirtual sensor /lrz/demo/system_power (sum of 4 nodes):\n");
    for (const auto& s : system_power)
        std::printf("  t+%4.1fs  %7.1f W\n",
                    static_cast<double>(s.ts - t0) / 1e9, s.value);

    // Per-node IPC from the stored counters: application fingerprints.
    std::printf("\nper-node IPC over the run (distinct app fingerprints):\n");
    for (int n = 0; n < 4; ++n) {
        const std::string base =
            "/lrz/demo/rack0/node" + std::to_string(n) + "/perf/cpu0/";
        const auto instr = conn.query_raw(base + "instructions", t0, t1);
        const auto cycles = conn.query_raw(base + "cycles", t0, t1);
        double instr_sum = 0, cycle_sum = 0;
        for (const auto& r : instr) instr_sum += static_cast<double>(r.value);
        for (const auto& r : cycles)
            cycle_sum += static_cast<double>(r.value);
        std::printf("  node%d (%-11s): IPC %.2f\n", n, apps[n].name.c_str(),
                    cycle_sum > 0 ? instr_sum / cycle_sum : 0.0);
    }

    const auto stats = agent.stats();
    std::printf("\ncollect agent totals: %llu messages, %llu readings, "
                "%zu sensors\n",
                static_cast<unsigned long long>(stats.messages),
                static_cast<unsigned long long>(stats.readings),
                stats.known_sensors);
    plugins::DeviceRegistry::instance().clear();
    return 0;
}
