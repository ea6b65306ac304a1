// PUE dashboard: facility-level energy accounting with virtual sensors.
//
// The paper names Power Usage Effectiveness as the canonical virtual-
// sensor use case ("to calculate key performance indicators such as the
// Power Usage Effectiveness (PUE) from physical units measured by
// sensors", Section 3.2). This example monitors, out of band:
//
//   * IT power: a PDU's per-outlet meters over real SNMP/UDP;
//   * facility power: cooling-loop pumps/chillers via a BACnet device;
//
// then defines virtual sensors for total IT power, total facility power
// and PUE = facility / IT, queries them over the collected window, and
// computes consumed energy with libDCDB's integral operation (the
// `dcdbquery --integral` path).
//
// Run:  ./pue_dashboard [seconds]
#include <cstdio>
#include <filesystem>
#include <thread>

#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "libdcdb/connection.hpp"
#include "plugins/devices.hpp"
#include "pusher/pusher.hpp"
#include "sim/bacnet_device.hpp"
#include "sim/pdu.hpp"
#include "sim/snmp_agent.hpp"
#include "store/cluster.hpp"

using namespace dcdb;

int main(int argc, char** argv) {
    const int seconds = argc > 1 ? std::atoi(argv[1]) : 8;
    const std::string dir = "/tmp/dcdb_pue";
    std::filesystem::remove_all(dir);

    store::StoreCluster cluster({dir, 1, 1, "hierarchy", 8u << 20, false});
    store::MetaStore meta(dir + "/meta.log");
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp true }"), &cluster, &meta);

    // --- facility hardware -------------------------------------------
    plugins::register_builtin_plugins();
    const TimestampNs sim_t0 = now_ns();

    // IT load: a 6-outlet PDU (~400 W per server) behind SNMP.
    sim::PduModel pdu(6, 400.0, 4);
    sim::SnmpAgentSim snmp_agent("public");
    std::string outlet_sensors;
    for (int outlet = 0; outlet < 6; ++outlet) {
        snmp_agent.register_oid(
            "1.3.6.1.4.1.318.2." + std::to_string(outlet + 1),
            [&pdu, outlet, sim_t0] {
                pdu.advance_to(static_cast<double>(now_ns() - sim_t0) / 1e9);
                return static_cast<std::int64_t>(pdu.outlet_power_w(outlet));
            });
        outlet_sensors += "      sensor outlet" + std::to_string(outlet) +
                          " { oid 1.3.6.1.4.1.318.2." +
                          std::to_string(outlet + 1) + " }\n";
    }

    // Overhead loads: pumps and a chiller behind the building-management
    // BACnet device. A warm-water-cooled site: small overhead.
    auto bms = std::make_shared<sim::BacnetDeviceSim>();
    auto overhead_w = [sim_t0](double base, double swing) {
        const double t = static_cast<double>(now_ns() - sim_t0) / 1e9;
        return base + swing * std::sin(t / 3.0);
    };
    bms->add_object(201, "pump_a", [=] { return overhead_w(90.0, 8.0); });
    bms->add_object(202, "pump_b", [=] { return overhead_w(85.0, 6.0); });
    bms->add_object(203, "chiller", [=] { return overhead_w(140.0, 20.0); });
    plugins::DeviceRegistry::instance().add_bacnet("bms", bms);

    // --- one out-of-band pusher on the "management server" -----------
    auto config = parse_config(
        "global {\n"
        "  mqttBroker 127.0.0.1:" + std::to_string(agent.mqtt_port()) + "\n"
        "  topicPrefix /fac\n"
        "  threads 2 ; pushInterval 500ms\n"
        "}\n"
        "plugins {\n"
        "  snmp {\n"
        "    entity pdu { port " + std::to_string(snmp_agent.port()) +
        " ; community public }\n"
        "    group it { entity pdu ; interval 500ms\n" + outlet_sensors +
        "    }\n"
        "  }\n"
        "  bacnet {\n"
        "    entity bms { device bms }\n"
        "    group cooling { entity bms ; interval 500ms\n"
        "      sensor pump_a  { instance 201 }\n"
        "      sensor pump_b  { instance 202 }\n"
        "      sensor chiller { instance 203 }\n"
        "    }\n"
        "  }\n"
        "}\n");
    pusher::Pusher pusher(std::move(config));
    const TimestampNs t0 = now_ns();
    pusher.start();
    std::printf("monitoring PDU (SNMP) + building management (BACnet) for "
                "%d seconds...\n\n",
                seconds);
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    pusher.stop();
    const TimestampNs t1 = now_ns();

    // --- metadata + virtual sensors ----------------------------------
    lib::Connection conn(cluster, meta);
    auto publish = [&conn](const std::string& topic, const char* unit,
                           double scale) {
        SensorMetadata md;
        md.topic = topic;
        md.unit = unit;
        md.scale = scale;
        conn.metadata().publish(md);
    };
    std::string it_expr;
    for (int outlet = 0; outlet < 6; ++outlet) {
        const std::string topic =
            "/fac/snmp/it/outlet" + std::to_string(outlet);
        publish(topic, "W", 1.0);
        it_expr += (outlet ? " + " : "") + topic;
    }
    std::string cooling_expr;
    for (const char* name : {"pump_a", "pump_b", "chiller"}) {
        const std::string topic = std::string("/fac/bacnet/cooling/") + name;
        publish(topic, "mW", 1.0);  // BACnet plugin stores milli-units
        cooling_expr += (cooling_expr.empty() ? "" : " + ") + topic;
    }

    conn.define_virtual("/fac/vs/it_power", it_expr, "W");
    conn.define_virtual("/fac/vs/overhead_power", cooling_expr, "W");
    conn.define_virtual("/fac/vs/facility_power",
                        "/fac/vs/it_power + /fac/vs/overhead_power", "W");
    conn.define_virtual("/fac/vs/pue",
                        "/fac/vs/facility_power / /fac/vs/it_power", "",
                        0.001);

    // --- dashboard ----------------------------------------------------
    const auto pue = conn.query("/fac/vs/pue", t0, t1);
    const auto it_power = conn.query("/fac/vs/it_power", t0, t1);
    const auto facility = conn.query("/fac/vs/facility_power", t0, t1);
    if (pue.empty()) {
        std::fprintf(stderr, "no data collected\n");
        return 1;
    }
    std::printf("  time    IT [kW]   facility [kW]   PUE\n");
    for (std::size_t i = 0; i < pue.size();
         i += std::max<std::size_t>(1, pue.size() / 12)) {
        std::printf("  t+%4.1fs   %6.3f        %6.3f      %5.3f\n",
                    static_cast<double>(pue[i].ts - t0) / 1e9,
                    lib::interpolate_at(it_power, pue[i].ts) / 1000.0,
                    lib::interpolate_at(facility, pue[i].ts) / 1000.0,
                    pue[i].value);
    }

    // Energy over the window via the integral operation (W*s = J).
    const double it_joules = conn.integral("/fac/vs/it_power", t0, t1);
    const double fac_joules = conn.integral("/fac/vs/facility_power", t0, t1);
    std::printf(
        "\nenergy over %ds window: IT %.1f kJ, facility %.1f kJ\n"
        "average PUE: %.3f (IT-dominated warm-water site)\n",
        seconds, it_joules / 1000.0, fac_joules / 1000.0,
        fac_joules / it_joules);
    plugins::DeviceRegistry::instance().clear();
    return 0;
}
