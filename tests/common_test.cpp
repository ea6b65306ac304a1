// Unit tests for the common substrate: strings, config property trees,
// units, byte buffers, clocks, RNG and self-metering.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/bytebuf.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/proc_metrics.hpp"
#include "common/random.hpp"
#include "common/string_utils.hpp"
#include "common/units.hpp"

namespace dcdb {
namespace {

TEST(StringUtils, SplitKeepsEmptyFields) {
    const auto parts = split("a//b/", '/');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(StringUtils, SplitNonemptyDropsEmptyFields) {
    const auto parts = split_nonempty("/sys//rack01/node3/", '/');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "sys");
    EXPECT_EQ(parts[2], "node3");
}

TEST(StringUtils, TrimStripsWhitespaceOnly) {
    EXPECT_EQ(trim("  a b \t\n"), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t "), "");
}

TEST(StringUtils, ParseI64RejectsJunk) {
    EXPECT_EQ(parse_i64("42").value(), 42);
    EXPECT_EQ(parse_i64("-7").value(), -7);
    EXPECT_FALSE(parse_i64("42x").has_value());
    EXPECT_FALSE(parse_i64("").has_value());
    EXPECT_FALSE(parse_i64("4 2").has_value());
}

TEST(StringUtils, ParseU64RejectsNegative) {
    EXPECT_EQ(parse_u64("18446744073709551615").value(),
              18446744073709551615ull);
    EXPECT_FALSE(parse_u64("-1").has_value());
}

TEST(StringUtils, ParseDurationDefaultsToMilliseconds) {
    EXPECT_EQ(parse_duration_ns("1000").value(), 1000ull * kNsPerMs);
    EXPECT_EQ(parse_duration_ns("100ms").value(), 100ull * kNsPerMs);
    EXPECT_EQ(parse_duration_ns("2s").value(), 2ull * kNsPerSec);
    EXPECT_EQ(parse_duration_ns("1m").value(), 60ull * kNsPerSec);
    EXPECT_EQ(parse_duration_ns("500us").value(), 500000ull);
    EXPECT_FALSE(parse_duration_ns("fast").has_value());
    EXPECT_FALSE(parse_duration_ns("10 parsecs").has_value());
}

TEST(StringUtils, ParseBoolVariants) {
    EXPECT_TRUE(parse_bool("true").value());
    EXPECT_TRUE(parse_bool("ON").value());
    EXPECT_FALSE(parse_bool("off").value());
    EXPECT_FALSE(parse_bool("maybe").has_value());
}

TEST(StringUtils, JoinRoundTripsSplit) {
    const std::vector<std::string> parts{"sys", "rack01", "node3", "power"};
    EXPECT_EQ(join(parts, '/'), "sys/rack01/node3/power");
}

TEST(Clock, NextAlignedIsStrictlyAfter) {
    EXPECT_EQ(next_aligned(0, 1000), 1000u);
    EXPECT_EQ(next_aligned(999, 1000), 1000u);
    EXPECT_EQ(next_aligned(1000, 1000), 2000u);
    EXPECT_EQ(next_aligned(1001, 1000), 2000u);
}

TEST(Clock, AlignedTicksAgreeAcrossIndependentObservers) {
    // The NTP-style property the Pusher relies on: two components that
    // align independently to the same interval produce the same deadline.
    const TimestampNs interval = 100 * kNsPerMs;
    const TimestampNs t = now_ns();
    const TimestampNs a = next_aligned(t, interval);
    const TimestampNs b = next_aligned(t + 1, interval);
    EXPECT_TRUE(a == b || b == a + interval);
    EXPECT_EQ(a % interval, 0u);
}

TEST(Config, ParsesNestedTree) {
    const auto root = parse_config(R"(
        global {
            mqttBroker 127.0.0.1:1883
            threads 2
        }
        group cpu {
            interval 1000ms
            sensor instructions {
                type perfevents
            }
            sensor cycles {
                type perfevents
            }
        }
    )");
    EXPECT_EQ(root.get_string("global.mqttBroker"), "127.0.0.1:1883");
    EXPECT_EQ(root.get_i64("global.threads"), 2);
    const ConfigNode* group = root.child("group");
    ASSERT_NE(group, nullptr);
    EXPECT_EQ(group->value(), "cpu");
    EXPECT_EQ(group->children_named("sensor").size(), 2u);
    EXPECT_EQ(group->get_duration_ns_or("interval", 0), kNsPerSec);
}

TEST(Config, QuotedValuesAndComments) {
    const auto root = parse_config(
        "# leading comment\n"
        "path \"/var/run/my dir\" # trailing comment\n"
        "a 1 ; b 2\n"
        "empty \"\"\n");
    EXPECT_EQ(root.get_string("path"), "/var/run/my dir");
    EXPECT_EQ(root.get_string("empty"), "");
    // ';' separates entries on one line.
    EXPECT_EQ(root.get_i64("a"), 1);
    EXPECT_EQ(root.get_i64("b"), 2);
}

TEST(Config, MissingKeyThrowsAndFallbacksApply) {
    const auto root = parse_config("a 1\n");
    EXPECT_THROW(root.get_string("b"), ConfigError);
    EXPECT_EQ(root.get_string_or("b", "x"), "x");
    EXPECT_EQ(root.get_i64_or("b", 9), 9);
    EXPECT_EQ(root.get_i64("a"), 1);
}

TEST(Config, MalformedInputThrowsWithDiagnostics) {
    EXPECT_THROW(parse_config("a {"), ConfigError);
    EXPECT_THROW(parse_config("}"), ConfigError);
    EXPECT_THROW(parse_config("a \"unterminated"), ConfigError);
}

TEST(Config, IncludeDirectivePullsInOtherFiles) {
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() /
                     ("dcdb_cfg_inc_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    {
        std::ofstream common(dir / "common.conf");
        common << "global { threads 4 }\n";
        std::ofstream main(dir / "main.conf");
        main << "include common.conf\nplugins { tester { } }\n";
    }
    const auto root = parse_config_file((dir / "main.conf").string());
    EXPECT_EQ(root.get_i64("global.threads"), 4);
    EXPECT_NE(root.child("plugins"), nullptr);
    EXPECT_THROW(parse_config_file((dir / "missing.conf").string()),
                 ConfigError);
    {
        std::ofstream bad(dir / "bad.conf");
        bad << "include nonexistent.conf\n";
    }
    EXPECT_THROW(parse_config_file((dir / "bad.conf").string()),
                 ConfigError);
    fs::remove_all(dir);
}

TEST(Config, DeepNestingRoundTrips) {
    const auto root =
        parse_config("a { b { c { d { e leaf } } } }");
    EXPECT_EQ(root.get_string("a.b.c.d.e"), "leaf");
    const auto again = parse_config(root.to_string());
    EXPECT_EQ(again.get_string("a.b.c.d.e"), "leaf");
}

TEST(Config, RoundTripThroughToString) {
    const auto root = parse_config(
        "global {\n  broker 127.0.0.1:1883\n  name \"with space\"\n}\n");
    const auto again = parse_config(root.to_string());
    EXPECT_EQ(again.get_string("global.broker"), "127.0.0.1:1883");
    EXPECT_EQ(again.get_string("global.name"), "with space");
}

TEST(Units, PowerPrefixesConvert) {
    const Unit mw = parse_unit("mW");
    const Unit kw = parse_unit("kW");
    EXPECT_NEAR(convert_unit(1.5e6, mw, kw), 1.5, 1e-9)
        << "1.5e6 mW = 1.5 kW";
    EXPECT_NEAR(convert_unit(2.0, kw, parse_unit("W")), 2000.0, 1e-9);
}

TEST(Units, TemperatureAffineConversions) {
    const Unit c = parse_unit("C");
    const Unit f = parse_unit("F");
    const Unit k = parse_unit("K");
    const Unit mc = parse_unit("mC");
    EXPECT_NEAR(convert_unit(100.0, c, f), 212.0, 1e-9);
    EXPECT_NEAR(convert_unit(32.0, f, c), 0.0, 1e-9);
    EXPECT_NEAR(convert_unit(0.0, c, k), 273.15, 1e-9);
    EXPECT_NEAR(convert_unit(45000.0, mc, c), 45.0, 1e-9);
}

TEST(Units, IncompatibleDimensionsThrow) {
    EXPECT_THROW(convert_unit(1.0, parse_unit("W"), parse_unit("C")), Error);
}

TEST(Units, DimensionlessPassesThrough) {
    EXPECT_EQ(convert_unit(42.0, parse_unit(""), parse_unit("kW")), 42.0);
    EXPECT_EQ(convert_unit(42.0, parse_unit("instructions"), parse_unit("")),
              42.0);
}

TEST(Units, EnergyWattHours) {
    EXPECT_NEAR(convert_unit(1.0, parse_unit("kWh"), parse_unit("J")), 3.6e6,
                1e-3);
}

TEST(ByteBuf, BigEndianRoundTrip) {
    ByteWriter w;
    w.u8(0xAB);
    w.u16be(0x1234);
    w.u32be(0xDEADBEEF);
    w.u64be(0x0123456789ABCDEFull);
    w.i64be(-42);
    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16be(), 0x1234);
    EXPECT_EQ(r.u32be(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64be(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64be(), -42);
    EXPECT_TRUE(r.empty());
}

TEST(ByteBuf, MqttStringRoundTrip) {
    ByteWriter w;
    w.mqtt_str("/sys/node0/power");
    ByteReader r(w.data());
    EXPECT_EQ(r.mqtt_str(), "/sys/node0/power");
}

TEST(ByteBuf, VarintBoundaries) {
    // MQTT remaining-length encoding boundaries from the 3.1.1 spec.
    for (std::uint32_t v : {0u, 127u, 128u, 16383u, 16384u, 2097151u,
                            2097152u, 268435455u}) {
        ByteWriter w;
        w.varint(v);
        ByteReader r(w.data());
        EXPECT_EQ(r.varint(), v);
    }
    ByteWriter w;
    w.varint(127);
    EXPECT_EQ(w.size(), 1u);
    ByteWriter w2;
    w2.varint(128);
    EXPECT_EQ(w2.size(), 2u);
}

TEST(ByteBuf, UnderrunThrows) {
    ByteWriter w;
    w.u8(1);
    ByteReader r(w.data());
    r.u8();
    EXPECT_THROW(r.u8(), ProtocolError);
}

TEST(Random, XoshiroIsDeterministicPerSeed) {
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Random, UniformInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Random, GaussianMomentsApproximatelyStandard) {
    Rng rng(42);
    double sum = 0, sum2 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian();
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Random, OuProcessRevertsToMean) {
    OuProcess ou(50.0, /*theta=*/2.0, /*sigma=*/0.5, /*seed=*/1);
    double v = 0;
    for (int i = 0; i < 5000; ++i) v = ou.step(0.01);
    EXPECT_NEAR(v, 50.0, 5.0);
}

TEST(ProcMetrics, CpuLoadReflectsBusyWork) {
    // Spin until this thread has burned 50 ms of CPU, however long a
    // loaded machine takes to grant it. The meter's window lies inside
    // the wall time measured around it and encloses the spin, and the
    // process's CPU is never below this thread's, so the load it reports
    // is at least the thread's CPU over that wall time.
    const std::uint64_t wall_start = steady_ns();
    CpuLoadMeter meter;
    const std::uint64_t cpu_start = thread_cpu_ns();
    volatile double x = 1.0;
    while (thread_cpu_ns() - cpu_start < 50 * kNsPerMs) x = x * 1.0000001;
    const std::uint64_t cpu = thread_cpu_ns() - cpu_start;
    const double load = meter.load_percent();
    const std::uint64_t wall = steady_ns() - wall_start;
    EXPECT_GE(load, 100.0 * static_cast<double>(cpu) /
                        static_cast<double>(wall));
}

TEST(ProcMetrics, RssIsNonZero) {
    CpuLoadMeter meter;
    EXPECT_GT(meter.rss_bytes(), 1u << 20);
}

TEST(ProcMetrics, ThreadCpuClockAdvancesWithWork) {
    const std::uint64_t before = thread_cpu_ns();
    volatile double x = 1.0;
    for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
    EXPECT_GT(thread_cpu_ns(), before);
}

}  // namespace
}  // namespace dcdb
