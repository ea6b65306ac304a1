// Figure 9 / Case Study 1: efficiency of heat removal on the CooLMUC-3
// warm-water cooling loop.
//
// Full production data path, as in the paper (Section 7.1): the facility
// instrumentation (simulated cooling loop) is exposed through a real SNMP
// agent (rack power meters) and a REST endpoint (loop temperatures and
// flow); one out-of-band Pusher samples both plugins and pushes to a
// Collect Agent; an administrator then publishes sensor metadata and
// defines *virtual sensors* for total power, heat removed
// (flow * cp * dT) and removal efficiency, which libDCDB evaluates
// lazily over the stored data.
//
// Findings to reproduce: average efficiency ~= 90%, independent of the
// inlet-temperature sweep (insulated racks radiate almost nothing).
// Time is accelerated: 1 wall-second = 1 simulated hour.
#include <atomic>
#include <cstdio>
#include <thread>

#include "analysis/regression.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "libdcdb/connection.hpp"
#include "net/http.hpp"
#include "pusher/pusher.hpp"
#include "sim/cooling.hpp"
#include "sim/snmp_agent.hpp"
#include "store/cluster.hpp"

using namespace dcdb;

int main() {
    bench::print_header("Case study 1: efficiency of heat removal",
                        "paper Figure 9 / Section 7.1");
    constexpr double kAcceleration = 3600.0;  // 1 wall s = 1 sim h
    const double wall_seconds = 25.0 * bench::duration_scale();

    sim::CoolingLoopModel loop;

    // Facility side: drive the model in accelerated time.
    std::atomic<bool> stop_driver{false};
    const TimestampNs t0 = now_ns();
    std::thread driver([&] {
        while (!stop_driver.load()) {
            const double sim_t =
                static_cast<double>(now_ns() - t0) / 1e9 * kAcceleration;
            loop.advance_to(sim_t);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    // Rack power meters answer SNMP; the loop instrumentation answers REST.
    sim::SnmpAgentSim snmp_agent("public");
    for (int r = 0; r < loop.racks(); ++r) {
        snmp_agent.register_oid(
            "1.3.6.1.4.1.2019.1." + std::to_string(r + 1),
            [&loop, r] {
                return static_cast<std::int64_t>(loop.rack_power_w(r));
            });
    }
    HttpServer rest_device(0, [&loop](const HttpRequest& req) {
        if (req.path == "/inlet_temp")
            return HttpResponse::ok(strfmt("%.3f", loop.inlet_temp_c()));
        if (req.path == "/outlet_temp")
            return HttpResponse::ok(strfmt("%.3f", loop.outlet_temp_c()));
        if (req.path == "/flow")
            return HttpResponse::ok(strfmt("%.4f", loop.flow_ls()));
        return HttpResponse::not_found();
    });

    // Monitoring side: store cluster + Collect Agent + out-of-band Pusher.
    bench::ScratchDir scratch("fig9");
    store::StoreCluster cluster(
        {scratch.str(), 2, 1, "hierarchy", 64u << 20, false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);

    std::string sensors_block;
    for (int r = 0; r < loop.racks(); ++r) {
        sensors_block += "  sensor rack" + std::to_string(r) +
                         " { oid 1.3.6.1.4.1.2019.1." +
                         std::to_string(r + 1) + " }\n";
    }
    auto config = parse_config(
        "global { topicPrefix /fac/cooling ; threads 2 ; "
        "pushInterval 200ms }\n"
        "plugins {\n"
        " snmp {\n"
        "  entity pdu { port " + std::to_string(snmp_agent.port()) +
        " ; community public }\n"
        "  group racks { entity pdu ; interval 200ms\n" + sensors_block +
        "  }\n }\n"
        " rest {\n"
        "  entity loop { host 127.0.0.1 ; port " +
        std::to_string(rest_device.port()) + " }\n"
        "  group loop { entity loop ; interval 200ms\n"
        "   sensor inlet_temp  { path /inlet_temp }\n"
        "   sensor outlet_temp { path /outlet_temp }\n"
        "   sensor flow        { path /flow }\n"
        "  }\n }\n}\n");
    pusher::Pusher pusher(std::move(config), agent.connect_inproc());
    pusher.start();

    std::printf("collecting %.0f simulated hours (%.0fs wall)...\n",
                wall_seconds * kAcceleration / 3600.0, wall_seconds);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(wall_seconds * 1000)));
    pusher.stop();
    stop_driver.store(true);
    driver.join();
    const TimestampNs t1 = now_ns();
    std::printf("ingested %llu readings over %zu sensors\n\n",
                static_cast<unsigned long long>(agent.stats().readings),
                agent.stats().known_sensors);

    // Administrator workflow: publish units/scales, define the derived
    // metrics as virtual sensors (paper: "we defined aggregated metrics
    // in DCDB using the virtual sensors").
    lib::Connection conn(cluster, meta);
    auto publish = [&conn](const std::string& topic, const char* unit,
                           double scale) {
        SensorMetadata md;
        md.topic = topic;
        md.unit = unit;
        md.scale = scale;
        conn.metadata().publish(md);
    };
    for (int r = 0; r < loop.racks(); ++r)
        publish("/fac/cooling/snmp/racks/rack" + std::to_string(r), "W",
                1.0);
    publish("/fac/cooling/rest/loop/inlet_temp", "mC", 1.0);
    publish("/fac/cooling/rest/loop/outlet_temp", "mC", 1.0);
    publish("/fac/cooling/rest/loop/flow", "l/s", 0.001);

    conn.define_virtual("/fac/vs/total_power",
                        "/fac/cooling/snmp/racks/rack0 + "
                        "/fac/cooling/snmp/racks/rack1 + "
                        "/fac/cooling/snmp/racks/rack2",
                        "W");
    conn.define_virtual("/fac/vs/heat_removed",
                        "(/fac/cooling/rest/loop/outlet_temp - "
                        "/fac/cooling/rest/loop/inlet_temp) * "
                        "/fac/cooling/rest/loop/flow * 4186",
                        "W");
    conn.define_virtual("/fac/vs/efficiency",
                        "/fac/vs/heat_removed / /fac/vs/total_power", "",
                        0.001);

    const auto power = conn.query("/fac/vs/total_power", t0, t1);
    const auto heat = conn.query("/fac/vs/heat_removed", t0, t1);
    const auto eff = conn.query("/fac/vs/efficiency", t0, t1);
    const auto inlet = conn.query("/fac/cooling/rest/loop/inlet_temp", t0, t1);
    if (eff.empty() || power.empty()) {
        std::fprintf(stderr, "no data collected, aborting\n");
        return 1;
    }

    // Hourly rows like the paper's 25-hour trace.
    analysis::Table table({"time [h]", "inlet [C]", "power [kW]",
                           "heat removed [kW]", "efficiency"});
    const std::size_t stride = std::max<std::size_t>(1, eff.size() / 25);
    for (std::size_t i = 0; i < eff.size(); i += stride) {
        const double hours = static_cast<double>(eff[i].ts - t0) / 1e9 *
                             kAcceleration / 3600.0;
        table.cell(hours, 1)
            .cell(lib::interpolate_at(inlet, eff[i].ts) / 1000.0, 1)
            .cell(lib::interpolate_at(power, eff[i].ts) / 1000.0, 2)
            .cell(lib::interpolate_at(heat, eff[i].ts) / 1000.0, 2)
            .cell(eff[i].value, 3)
            .end_row();
    }
    std::fputs(table.str().c_str(), stdout);

    std::vector<double> eff_values, inlet_at_eff;
    for (const auto& s : eff) {
        eff_values.push_back(s.value);
        inlet_at_eff.push_back(lib::interpolate_at(inlet, s.ts) / 1000.0);
    }
    const double avg_eff = analysis::mean(eff_values);
    const auto fit = analysis::linear_fit(inlet_at_eff, eff_values);
    std::printf(
        "\naverage heat-removal efficiency: %.1f%% (paper: ~90%%)\n"
        "efficiency sensitivity to inlet temperature: %.4f per degC "
        "(paper: flat; R^2 = %.3f)\n",
        avg_eff * 100.0, fit.slope, fit.r2);
    return 0;
}
