// Tests for the simulation substrate: architecture models, the HPL
// analog, app models, the cluster DES, device models and their protocol
// codecs (IPMI, SNMP/BER, BACnet).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/apps.hpp"
#include "sim/arch.hpp"
#include "sim/bacnet_device.hpp"
#include "sim/bmc.hpp"
#include "sim/cluster_des.hpp"
#include "sim/cooling.hpp"
#include "sim/fabric.hpp"
#include "sim/fs_stats.hpp"
#include "sim/gpu.hpp"
#include "sim/hpl.hpp"
#include "sim/pdu.hpp"
#include "sim/perf_counters.hpp"
#include "sim/power.hpp"
#include "sim/snmp_agent.hpp"

namespace dcdb::sim {
namespace {

// ------------------------------------------------------------------ arch

TEST(Arch, Table1Configurations) {
    const auto sky = skylake();
    EXPECT_EQ(sky.hardware_threads(), 96);   // 2 x 24 x 2
    EXPECT_EQ(sky.production_sensors, 2477);
    const auto has = haswell();
    EXPECT_EQ(has.hardware_threads(), 28);   // 2 x 14
    const auto knl = knights_landing();
    EXPECT_EQ(knl.hardware_threads(), 256);  // 64 x 4
    EXPECT_GT(knl.read_cost_factor(), sky.read_cost_factor())
        << "KNL's weak single-thread perf must cost more per read";
    EXPECT_THROW(arch_by_name("epyc"), Error);
}

// ------------------------------------------------------------------- hpl

TEST(Hpl, FixedWorkIsReproduciblyTimed) {
    HplAnalog hpl(2, 96);
    hpl.set_repetitions(2);
    const auto r1 = hpl.run();
    EXPECT_GT(r1.seconds, 0.0);
    EXPECT_GT(r1.gflops, 0.01);
}

// Durations below are the workers' CPU time, not wall time: under a
// parallel ctest the workers wait for cores, which stretches wall time
// by however busy the machine is, but not the CPU time the work takes.
TEST(Hpl, CalibrationHitsTargetDuration) {
    HplAnalog hpl(2, 96);
    hpl.calibrate(0.3);
    const auto r = hpl.run();
    const double per_worker_s = r.cpu_seconds / hpl.threads();
    EXPECT_GT(per_worker_s, 0.05);
    EXPECT_LT(per_worker_s, 2.0);
}

// One repetition is under a millisecond of CPU per worker, so a cold
// start or a stolen time slice can outweigh it: an untimed warm-up runs
// first, and each repetition count is timed by the minimum of three runs.
TEST(Hpl, MoreWorkTakesLonger) {
    HplAnalog hpl(2, 96);
    hpl.set_repetitions(1);
    hpl.run();
    const auto min_cpu_of_three = [&hpl](std::size_t repetitions) {
        hpl.set_repetitions(repetitions);
        double best = hpl.run().cpu_seconds;
        for (int i = 0; i < 2; ++i)
            best = std::min(best, hpl.run().cpu_seconds);
        return best;
    };
    const double t1 = min_cpu_of_three(1);
    const double t4 = min_cpu_of_three(4);
    EXPECT_GT(t4, 2.0 * t1);
}

// ------------------------------------------------------------------ apps

TEST(Apps, AllFourCoral2ModelsExist) {
    EXPECT_EQ(coral2_apps().size(), 4u);
    EXPECT_NO_THROW(app_by_name("amg"));
    EXPECT_NO_THROW(app_by_name("lammps"));
    EXPECT_NO_THROW(app_by_name("kripke"));
    EXPECT_NO_THROW(app_by_name("quicksilver"));
    EXPECT_THROW(app_by_name("hpcg"), Error);
}

TEST(Apps, AmgIsTheCommunicationHeavyOutlier) {
    const auto a = amg();
    for (const auto& other : {quicksilver(), lammps(), kripke()}) {
        EXPECT_GT(a.comm_fraction, 2 * other.comm_fraction);
        EXPECT_GT(a.net_sensitivity, 2 * other.net_sensitivity);
    }
}

TEST(Apps, PhaseCyclingIsPeriodic) {
    const auto app = lammps();
    const double cycle = app.cycle_length_s();
    EXPECT_GT(cycle, 0.0);
    EXPECT_EQ(&app.phase_at(0.1), &app.phase_at(0.1 + cycle));
    // Second phase reached after the first's duration.
    EXPECT_NE(app.phase_at(0.0).ipc,
              app.phase_at(app.phases[0].duration_s + 0.01).ipc);
}

TEST(Apps, ComputeDensityOrdering) {
    // Kripke/Quicksilver dense; AMG low IPC (paper, Figure 10).
    const auto peak_ipc = [](const AppModel& m) {
        double best = 0;
        for (const auto& p : m.phases) best = std::max(best, p.ipc);
        return best;
    };
    EXPECT_GT(peak_ipc(kripke()), peak_ipc(lammps()));
    EXPECT_GT(peak_ipc(quicksilver()), peak_ipc(amg()));
}

// ------------------------------------------------------------------- DES

TEST(Des, UnmonitoredReferenceIsDeterministic) {
    ClusterDes des(amg(), 64, 7);
    const auto a = des.run(MonitoringConfig{});
    const auto b = des.run(MonitoringConfig{});
    EXPECT_DOUBLE_EQ(a.runtime_s, b.runtime_s);
}

TEST(Des, MonitoringAddsOverhead) {
    ClusterDes des(amg(), 128, 7);
    MonitoringConfig mon;
    mon.sensors = 2477;
    mon.interval_s = 1.0;
    EXPECT_GT(des.overhead_percent(mon), 0.0);
}

TEST(Des, AmgOverheadGrowsWithNodeCount) {
    MonitoringConfig mon;
    mon.sensors = 2477;
    mon.interval_s = 1.0;
    const double o128 = ClusterDes(amg(), 128, 7).overhead_percent(mon);
    const double o1024 = ClusterDes(amg(), 1024, 7).overhead_percent(mon);
    EXPECT_GT(o1024, 1.5 * o128)
        << "AMG's interference must grow with scale (paper Fig. 4)";
}

TEST(Des, ComputeBoundAppsStayFlatWithScale) {
    MonitoringConfig mon;
    mon.sensors = 2477;
    mon.interval_s = 1.0;
    const double o128 = ClusterDes(kripke(), 128, 7).overhead_percent(mon);
    const double o1024 = ClusterDes(kripke(), 1024, 7).overhead_percent(mon);
    EXPECT_LT(o1024, 3.0);
    EXPECT_LT(o1024 - o128, 2.0);
}

TEST(Des, AmgDominatedByNetworkNotPluginCost) {
    // "core" config (tester plugin, ~free reads) vs "total" config: for
    // AMG the network term dominates, so both are close (paper Fig. 4).
    MonitoringConfig total;
    total.sensors = 2477;
    total.per_read_cost_us = 7.0;
    MonitoringConfig core = total;
    core.per_read_cost_us = 0.5;
    ClusterDes des(amg(), 512, 7);
    const double o_total = des.overhead_percent(total);
    const double o_core = des.overhead_percent(core);
    EXPECT_GT(o_core, 0.5 * o_total);
}

TEST(Des, BurstModeHelpsAmg) {
    MonitoringConfig continuous;
    continuous.sensors = 2477;
    MonitoringConfig burst = continuous;
    burst.burst_mode = true;
    ClusterDes des(amg(), 512, 7);
    EXPECT_LT(des.overhead_percent(burst),
              des.overhead_percent(continuous))
        << "paper: AMG performs best with twice-per-minute bursts";
}

TEST(Des, MoreSensorsMoreOverhead) {
    ClusterDes des(amg(), 256, 7);
    MonitoringConfig small, large;
    small.sensors = 100;
    large.sensors = 10000;
    EXPECT_GT(des.overhead_percent(large), des.overhead_percent(small));
}

// ----------------------------------------------------------------- power

TEST(Power, WithinEnvelopeAndPhaseCorrelated) {
    const auto arch = skylake();
    NodePowerModel power(arch, kripke(), 3);
    double lo = 1e9, hi = 0;
    for (double t = 0; t < 60; t += 0.1) {
        const double p = power.power_w(t);
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    EXPECT_GT(lo, 50.0);
    EXPECT_LT(hi, 600.0);
    EXPECT_GT(hi, lo);
}

// --------------------------------------------------------- perf counters

TEST(PerfCounters, MonotonicAccumulation) {
    PerfCounterModel pmu(haswell(), kripke());
    pmu.advance_to(1.0);
    const auto a = pmu.core(0);
    pmu.advance_to(2.0);
    const auto b = pmu.core(0);
    EXPECT_GT(b.instructions, a.instructions);
    EXPECT_GT(b.cycles, a.cycles);
    EXPECT_GE(b.cache_misses, a.cache_misses);
}

TEST(PerfCounters, BackwardAdvanceIsIgnored) {
    PerfCounterModel pmu(haswell(), kripke());
    pmu.advance_to(1.0);
    const auto a = pmu.core(0);
    pmu.advance_to(0.5);
    EXPECT_EQ(pmu.core(0).instructions, a.instructions);
}

TEST(PerfCounters, IpcReflectsAppDensity) {
    PerfCounterModel dense(skylake(), kripke(), 1);
    PerfCounterModel sparse(skylake(), amg(), 1);
    dense.advance_to(10.0);
    sparse.advance_to(10.0);
    const double ipc_dense =
        static_cast<double>(dense.core(0).instructions) /
        static_cast<double>(dense.core(0).cycles);
    const double ipc_sparse =
        static_cast<double>(sparse.core(0).instructions) /
        static_cast<double>(sparse.core(0).cycles);
    EXPECT_GT(ipc_dense, 1.5 * ipc_sparse);
}

TEST(PerfCounters, CoreCountMatchesArchitecture) {
    PerfCounterModel pmu(knights_landing(), amg());
    EXPECT_EQ(pmu.core_count(), 256u);
}

// --------------------------------------------------------------- cooling

TEST(Cooling, EfficiencyNearNinetyPercent) {
    CoolingLoopModel loop;
    std::vector<double> efficiencies;
    for (double t = 0; t < 25 * 3600; t += 600) {
        loop.advance_to(t);
        efficiencies.push_back(loop.true_efficiency());
    }
    double sum = 0;
    for (const double e : efficiencies) sum += e;
    const double avg = sum / static_cast<double>(efficiencies.size());
    EXPECT_NEAR(avg, 0.90, 0.02);
}

TEST(Cooling, EfficiencyIndependentOfInletTemperature) {
    // The case study's finding: rising inlet temperature does not widen
    // the gap between power and heat removed.
    CoolingLoopModel loop;
    std::vector<double> early, late;
    for (double t = 0; t < 4 * 3600; t += 300) {
        loop.advance_to(t);
        early.push_back(loop.true_efficiency());
    }
    for (double t = 21 * 3600; t < 25 * 3600; t += 300) {
        loop.advance_to(t);
        late.push_back(loop.true_efficiency());
    }
    const auto avg = [](const std::vector<double>& v) {
        double s = 0;
        for (const double x : v) s += x;
        return s / static_cast<double>(v.size());
    };
    EXPECT_NEAR(avg(early), avg(late), 0.03);
}

TEST(Cooling, HeatBalanceConsistent) {
    // Q = flow * cp * (T_out - T_in) must reproduce the true heat flux
    // from the raw sensors alone (what the virtual sensor computes).
    CoolingLoopModel loop;
    loop.advance_to(3600);
    const double q_from_sensors = loop.flow_ls() * 4186.0 *
                                  (loop.outlet_temp_c() - loop.inlet_temp_c());
    EXPECT_NEAR(q_from_sensors, loop.true_heat_removed_w(),
                loop.true_heat_removed_w() * 0.01);
}

TEST(Cooling, InletSweepsUpward) {
    CoolingLoopModel loop;
    loop.advance_to(60);
    const double early = loop.inlet_temp_c();
    loop.advance_to(24.9 * 3600);
    EXPECT_GT(loop.inlet_temp_c(), early + 10.0);
}

TEST(Cooling, PowerStaysInBand) {
    CoolingLoopModel loop;
    for (double t = 0; t < 25 * 3600; t += 900) {
        loop.advance_to(t);
        EXPECT_GT(loop.true_total_power_w(), 3000.0);
        EXPECT_LT(loop.true_total_power_w(), 40000.0);
    }
}

// ------------------------------------------------------------------- BMC

TEST(Bmc, GetSensorReadingRoundTrip) {
    BmcModel bmc(1);
    bmc.add_typical_server_sensors();
    const std::uint8_t req[] = {kIpmiNetFnSensor, kIpmiCmdGetSensorReading, 1};
    const auto resp = bmc.handle(req);
    ASSERT_GE(resp.size(), 2u);
    EXPECT_EQ(resp[0], kIpmiCompletionOk);
    // Convert raw back with the SDR factors: value = M*raw + B.
    const auto sdrs = bmc.sdr_repository();
    const auto& sdr = sdrs[0];
    const double value = sdr.m * resp[1] + sdr.b;
    EXPECT_NEAR(value, bmc.value_of(1), sdr.m);  // quantization <= 1 raw
}

TEST(Bmc, UnknownSensorAndCommandRejected) {
    BmcModel bmc(1);
    bmc.add_typical_server_sensors();
    const std::uint8_t bad_sensor[] = {kIpmiNetFnSensor,
                                       kIpmiCmdGetSensorReading, 99};
    EXPECT_EQ(bmc.handle(bad_sensor)[0], kIpmiCompletionInvalidSensor);
    const std::uint8_t bad_cmd[] = {kIpmiNetFnSensor, 0x77, 1};
    EXPECT_EQ(bmc.handle(bad_cmd)[0], kIpmiCompletionInvalidCmd);
    const std::uint8_t bad_netfn[] = {0x06, kIpmiCmdGetSensorReading, 1};
    EXPECT_EQ(bmc.handle(bad_netfn)[0], kIpmiCompletionInvalidCmd);
}

TEST(Bmc, ValuesEvolveWithTicks) {
    BmcModel bmc(1);
    bmc.add_typical_server_sensors();
    const double before = bmc.value_of(1);
    for (int i = 0; i < 50; ++i) bmc.tick(1.0);
    EXPECT_NE(bmc.value_of(1), before);
    EXPECT_NEAR(bmc.value_of(1), 58.0, 15.0);  // mean-reverting
}

TEST(Bmc, SdrRepositoryListsAllSensors) {
    BmcModel bmc(1);
    bmc.add_typical_server_sensors();
    EXPECT_EQ(bmc.sdr_repository().size(), 6u);
}

// ------------------------------------------------------------------ SNMP

TEST(Snmp, OidParseAndPrint) {
    const Oid oid = parse_oid("1.3.6.1.4.1.1000.7");
    EXPECT_EQ(oid.size(), 8u);
    EXPECT_EQ(oid_to_string(oid), "1.3.6.1.4.1.1000.7");
    EXPECT_THROW(parse_oid("not.an.oid"), Error);
    EXPECT_THROW(parse_oid("1"), Error);
}

TEST(Snmp, BerMessageRoundTrip) {
    SnmpMessage msg;
    msg.community = "dcdb";
    msg.pdu_type = 0xA0;
    msg.request_id = 12345;
    SnmpVarBind vb;
    vb.oid = parse_oid("1.3.6.1.4.1.1000.1");
    msg.varbinds.push_back(vb);
    SnmpVarBind vb2;
    vb2.oid = parse_oid("1.3.6.1.2.1.1.3.0");
    vb2.value = -987654321;  // exercises signed integer encoding
    vb2.is_null = false;
    msg.varbinds.push_back(vb2);

    const auto decoded = snmp_decode(snmp_encode(msg));
    EXPECT_EQ(decoded.community, "dcdb");
    EXPECT_EQ(decoded.request_id, 12345);
    ASSERT_EQ(decoded.varbinds.size(), 2u);
    EXPECT_TRUE(decoded.varbinds[0].is_null);
    EXPECT_EQ(decoded.varbinds[1].value, -987654321);
    EXPECT_EQ(oid_to_string(decoded.varbinds[1].oid), "1.3.6.1.2.1.1.3.0");
}

TEST(Snmp, BerRejectsGarbage) {
    const std::vector<std::uint8_t> junk = {0x13, 0x37, 0xFF};
    EXPECT_THROW(snmp_decode(junk), ProtocolError);
}

TEST(Snmp, AgentServesGetOverUdp) {
    SnmpAgentSim agent("public");
    std::int64_t temperature = 42;
    agent.register_oid("1.3.6.1.4.1.1000.1", [&] { return temperature; });
    agent.register_oid("1.3.6.1.4.1.1000.2", [] { return std::int64_t{7}; });

    const auto values = snmp_get(agent.port(), "public",
                                 {"1.3.6.1.4.1.1000.1",
                                  "1.3.6.1.4.1.1000.2"});
    ASSERT_TRUE(values.has_value());
    ASSERT_EQ(values->size(), 2u);
    EXPECT_EQ((*values)[0], 42);
    EXPECT_EQ((*values)[1], 7);

    temperature = 43;
    const auto again =
        snmp_get(agent.port(), "public", {"1.3.6.1.4.1.1000.1"});
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ((*again)[0], 43);
    EXPECT_EQ(agent.requests_served(), 2u);
}

TEST(Snmp, AgentRejectsWrongCommunityAndUnknownOid) {
    SnmpAgentSim agent("secret");
    agent.register_oid("1.3.6.1.4.1.1000.1", [] { return std::int64_t{1}; });
    EXPECT_FALSE(
        snmp_get(agent.port(), "public", {"1.3.6.1.4.1.1000.1"}, 300)
            .has_value());
    EXPECT_FALSE(
        snmp_get(agent.port(), "secret", {"1.3.6.1.4.1.9.9.9"}, 300)
            .has_value());
}

// ---------------------------------------------------------------- BACnet

TEST(Bacnet, ReadPropertyRoundTrip) {
    BacnetDeviceSim device;
    device.add_object(101, "chiller_inlet", [] { return 17.25; });
    const auto resp = device.handle(bacnet_read_request(101));
    double value = 0;
    ASSERT_TRUE(bacnet_parse_response(resp, value));
    EXPECT_NEAR(value, 17.25, 1e-3);
}

TEST(Bacnet, UnknownObjectFails) {
    BacnetDeviceSim device;
    const auto resp = device.handle(bacnet_read_request(5));
    double value = 0;
    EXPECT_FALSE(bacnet_parse_response(resp, value));
    EXPECT_EQ(resp[0], kBacnetStatusUnknownObject);
}

// ---------------------------------------------------------- fabric & fs

TEST(Fabric, CountersMonotonicAndCommScaled) {
    FabricPortModel busy(amg(), 12.5, 1);
    FabricPortModel quiet(kripke(), 12.5, 1);
    busy.advance_to(10.0);
    quiet.advance_to(10.0);
    EXPECT_GT(busy.counters().xmit_data_bytes, 0u);
    // AMG sends smaller packets: more packets per byte.
    const double busy_ratio =
        static_cast<double>(busy.counters().xmit_packets) /
        static_cast<double>(busy.counters().xmit_data_bytes);
    const double quiet_ratio =
        static_cast<double>(quiet.counters().xmit_packets) /
        static_cast<double>(quiet.counters().xmit_data_bytes);
    EXPECT_GT(busy_ratio, 5 * quiet_ratio);
}

TEST(FsStats, CheckpointBurstsDominateWrites) {
    FsStatsModel fs(1, 60.0);
    fs.advance_to(120.0);  // two checkpoint periods
    const auto c = fs.counters();
    EXPECT_GT(c.write_bytes, c.read_bytes);
    EXPECT_GT(c.writes, 0u);
    EXPECT_GT(c.opens, 0u);
}

// ------------------------------------------------------------------- GPU

TEST(Gpu, SamplesWithinPhysicalEnvelope) {
    GpuDeviceModel gpus(4, 1);
    for (double t = 1; t < 120; t += 1.0) {
        gpus.advance_to(t);
        for (int d = 0; d < gpus.device_count(); ++d) {
            const auto s = gpus.sample(d);
            EXPECT_GE(s.utilization_pct, 0.0);
            EXPECT_LE(s.utilization_pct, 100.0);
            EXPECT_GE(s.memory_used_mb, 0.0);
            EXPECT_LE(s.memory_used_mb, gpus.memory_total_mb());
            EXPECT_GT(s.power_w, 20.0);
            EXPECT_LT(s.power_w, 450.0);
            EXPECT_GT(s.sm_clock_mhz, 700.0);
            EXPECT_LT(s.sm_clock_mhz, 1800.0);
        }
    }
}

TEST(Gpu, TemperatureTracksUtilizationWithLag) {
    GpuDeviceModel gpus(1, 2);
    gpus.advance_to(0.1);
    const double cold = gpus.sample(0).temperature_c;
    for (double t = 1; t <= 300; t += 1.0) gpus.advance_to(t);
    const auto hot = gpus.sample(0);
    // After minutes at ~70% mean utilization the die is far above start.
    EXPECT_GT(hot.temperature_c, cold + 10.0);
    EXPECT_LT(hot.temperature_c, 90.0);
}

TEST(Gpu, DevicesEvolveIndependently) {
    GpuDeviceModel gpus(2, 3);
    for (double t = 1; t <= 60; t += 1.0) gpus.advance_to(t);
    EXPECT_NE(gpus.sample(0).utilization_pct,
              gpus.sample(1).utilization_pct);
}

// ------------------------------------------------------------------- PDU

TEST(Pdu, EnergyIntegratesPower) {
    PduModel pdu(8, 250.0, 1);
    pdu.advance_to(3600.0);  // one hour
    // 8 outlets x ~250 W x 1 h ~ 2000 Wh.
    EXPECT_NEAR(pdu.energy_wh(), 2000.0, 400.0);
    EXPECT_NEAR(pdu.total_power_w(), 2000.0, 400.0);
    EXPECT_GT(pdu.outlet_power_w(0), 0.0);
}

}  // namespace
}  // namespace dcdb::sim
