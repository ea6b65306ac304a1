// Micro-benchmarks and design ablations not tied to a single paper
// figure: component costs on the hot paths (MQTT codec, SID translation,
// storage inserts/queries, virtual sensor evaluation) and the two design
// choices DESIGN.md calls out — hierarchy-aware vs hash partitioning
// (paper Section 4.3) and the reduced publish-only broker vs a full
// pub/sub broker (paper Section 4.2).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>

#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "common/clock.hpp"
#include "core/payload.hpp"
#include "core/sensor_id.hpp"
#include "core/sensor_index.hpp"
#include "libdcdb/connection.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "mqtt/packet.hpp"
#include "store/cluster.hpp"

using namespace dcdb;

namespace {

// ------------------------------------------------------------ MQTT codec

void BM_MqttEncodePublish(benchmark::State& state) {
    mqtt::Publish p;
    p.topic = "/lrz/cm3/rack02/node17/cpu03/instructions";
    p.payload = encode_readings({{now_ns(), 123456}});
    for (auto _ : state) {
        benchmark::DoNotOptimize(mqtt::encode(p));
    }
}
BENCHMARK(BM_MqttEncodePublish);

void BM_MqttDecodePublish(benchmark::State& state) {
    mqtt::Publish p;
    p.topic = "/lrz/cm3/rack02/node17/cpu03/instructions";
    p.payload = encode_readings({{now_ns(), 123456}});
    const auto bytes = mqtt::encode(p);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mqtt::decode(bytes[0],
                         std::span(bytes).subspan(2)));
    }
}
BENCHMARK(BM_MqttDecodePublish);

// ---------------------------------------------------------- SID mapping

void BM_TopicToSidCached(benchmark::State& state) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    const std::string topic = "/lrz/cm3/rack02/node17/cpu03/instructions";
    mapper.to_sid(topic);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.to_sid(topic));
    }
}
BENCHMARK(BM_TopicToSidCached);

// The Collect Agent's per-section work on a known sensor, in the
// pipeline benchmark's wide_fanin shape (4 sessions x 8 groups x 250
// sensors, one reading per section): SensorIndex::resolve before the
// store insert, and the push through the resolved cache slot after it.
// Each benchmark thread is one broker session walking its own 2,000
// topics, so Threads(4) shows what the sessions cost each other.
// cpu_per_section is the CPU time of all threads per section.
struct KnownSensors {
    static constexpr int kSessions = 4;

    KnownSensors() : index(meta, 120 * kNsPerSec) {
        for (int s = 0; s < kSessions; ++s)
            for (int g = 0; g < 8; ++g)
                for (int k = 0; k < 250; ++k)
                    topics.push_back("/bench/s" + std::to_string(s) +
                                     "/tester/g" + std::to_string(g) +
                                     "/s" + std::to_string(k));
        for (const auto& topic : topics)
            index.publish(topic, index.resolve(topic)).push({kNsPerSec, 0});
    }

    store::MetaStore meta;
    SensorIndex index;
    std::vector<std::string> topics;
};

void BM_KnownSectionBookkeeping(benchmark::State& state) {
    static KnownSensors known;  // shared by the benchmark's threads
    const std::size_t per_session =
        known.topics.size() / KnownSensors::kSessions;
    const auto first = known.topics.begin() +
                       static_cast<std::ptrdiff_t>(
                           static_cast<std::size_t>(state.thread_index()) *
                           per_session);
    const auto last = first + static_cast<std::ptrdiff_t>(per_session);
    TimestampNs ts = 2 * kNsPerSec;
    for (auto _ : state) {
        ts += kNsPerSec;
        for (auto it = first; it != last; ++it) {
            const SensorIndex::Handle sensor = known.index.resolve(*it);
            benchmark::DoNotOptimize(sensor.sid);
            known.index.publish(*it, sensor).push({ts, 1});
        }
    }
    const auto sections =
        static_cast<double>(state.iterations() * per_session);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(per_session));
    state.counters["cpu_per_section"] = benchmark::Counter(
        sections, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KnownSectionBookkeeping)->Threads(1)->Threads(4);

void BM_PayloadDecode64Readings(benchmark::State& state) {
    std::vector<Reading> readings;
    for (int i = 0; i < 64; ++i)
        readings.push_back({static_cast<TimestampNs>(i), i});
    const auto payload = encode_readings(readings);
    for (auto _ : state) {
        benchmark::DoNotOptimize(decode_readings(payload));
    }
}
BENCHMARK(BM_PayloadDecode64Readings);

// -------------------------------------------------------------- storage

void BM_StoreInsert(benchmark::State& state) {
    static bench::ScratchDir scratch("micro_insert");
    static store::StoreCluster cluster(
        {scratch.str(), 1, 1, "hierarchy", 256u << 20, false});
    store::Key key;
    key.sid[0] = 1;
    // Monotone across benchmark re-entries, or the memtable's
    // out-of-order repair path would dominate the measurement.
    static TimestampNs ts = 0;
    for (auto _ : state) {
        cluster.insert(key, ++ts, 42);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreInsert);

/// Reports CPU time per row, for a query of `rows` rows per iteration.
void count_rows(benchmark::State& state, std::int64_t rows) {
    state.SetItemsProcessed(state.iterations() * rows);
    state.counters["cpu_per_row"] = benchmark::Counter(
        static_cast<double>(state.iterations() * rows),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_StoreQueryHour(benchmark::State& state) {
    static bench::ScratchDir scratch("micro_query");
    static store::StoreCluster cluster(
        {scratch.str(), 1, 1, "hierarchy", 256u << 20, false});
    static bool seeded = false;
    store::Key key;
    key.sid[0] = 2;
    if (!seeded) {
        for (TimestampNs ts = 0; ts < 3600; ++ts)
            cluster.insert(key, ts * kNsPerSec, 42);
        cluster.flush_all();
        seeded = true;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster.query(key, 0, 3600 * kNsPerSec));
    }
    count_rows(state, 3600);
}
BENCHMARK(BM_StoreQueryHour);

// Dashboard's query shape: an hour of one key's one-second rows, the
// first 1,200 in one SSTable, the next 1,200 in a second and the last
// 1,200 in the memtable, read as one window that merges all three.
void BM_QueryWindow(benchmark::State& state) {
    static bench::ScratchDir scratch("micro_window");
    static store::StoreCluster cluster(
        {scratch.str(), 1, 1, "hierarchy", 256u << 20, false});
    static bool seeded = false;
    store::Key key;
    key.sid[0] = 3;
    if (!seeded) {
        for (TimestampNs ts = 0; ts < 3600; ++ts) {
            cluster.insert(key, ts * kNsPerSec, 42);
            if (ts == 1199 || ts == 2399) cluster.flush_all();
        }
        seeded = true;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster.query(key, 0, 3600 * kNsPerSec));
    }
    count_rows(state, 3600);
}
BENCHMARK(BM_QueryWindow);

// ------------------------------------------------------- virtual sensor

void BM_VirtualSensorEvaluate(benchmark::State& state) {
    static bench::ScratchDir scratch("micro_vs");
    static store::StoreCluster cluster(
        {scratch.str(), 1, 1, "hierarchy", 256u << 20, false});
    static store::MetaStore meta;
    static lib::Connection conn(cluster, meta);
    static bool seeded = false;
    if (!seeded) {
        for (TimestampNs ts = kNsPerSec; ts <= 600 * kNsPerSec;
             ts += kNsPerSec) {
            conn.insert("/m/a", {ts, 100});
            conn.insert("/m/b", {ts, 50});
        }
        conn.define_virtual("/m/sum", "/m/a + /m/b", "W");
        seeded = true;
    }
    TimestampNs nonce = 0;
    for (auto _ : state) {
        // Vary the window so the write-back cache cannot satisfy it.
        ++nonce;
        benchmark::DoNotOptimize(conn.query(
            "/m/sum", kNsPerSec, (400 + (nonce % 100)) * kNsPerSec));
    }
}
BENCHMARK(BM_VirtualSensorEvaluate);

// ---------------------------------------------- ablation: partitioners

void partitioner_ablation() {
    bench::print_header("Ablation: hierarchy vs murmur3 partitioner",
                        "paper Section 4.3 locality claim");
    analysis::Table table({"partitioner", "local writes", "total writes",
                           "locality [%]", "node imbalance (max/avg)"});
    for (const char* name : {"hierarchy", "murmur3"}) {
        bench::ScratchDir scratch(std::string("micro_part_") + name);
        store::StoreCluster cluster(
            {scratch.str(), 4, 1, name, 256u << 20, false});
        store::MetaStore meta;
        TopicMapper mapper(meta);

        // One Collect Agent per rack subtree, colocated with the store
        // node owning that subtree; every write carries the hint.
        for (int rack = 0; rack < 8; ++rack) {
            const std::string rack_prefix =
                "/lrz/sys/rack" + std::to_string(rack);
            const SensorId probe = mapper.to_sid(rack_prefix + "/probe");
            const int home = static_cast<int>(
                cluster.primary_node(sensor_key(probe, 0)));
            for (int node = 0; node < 8; ++node) {
                for (int s = 0; s < 16; ++s) {
                    const SensorId sid = mapper.to_sid(
                        rack_prefix + "/node" + std::to_string(node) +
                        "/s" + std::to_string(s));
                    for (TimestampNs ts = kNsPerSec; ts <= 10 * kNsPerSec;
                         ts += kNsPerSec)
                        cluster.insert(sensor_key(sid, ts), ts, 1, 0, home);
                }
            }
        }
        const auto stats = cluster.stats();
        std::uint64_t max_writes = 0, sum_writes = 0;
        for (const auto& ns : stats.per_node) {
            max_writes = std::max(max_writes, ns.writes);
            sum_writes += ns.writes;
        }
        table.cell(name)
            .cell(stats.local_writes)
            .cell(stats.total_writes)
            .cell(100.0 * static_cast<double>(stats.local_writes) /
                      static_cast<double>(stats.total_writes),
                  1)
            .cell(static_cast<double>(max_writes) /
                      (static_cast<double>(sum_writes) /
                       static_cast<double>(stats.per_node.size())),
                  2)
            .end_row();
    }
    std::fputs(table.str().c_str(), stdout);
    std::printf(
        "Expected: hierarchy gives ~100%% locality (writes stay on the\n"
        "rack's node, avoiding network hops) at acceptable balance;\n"
        "murmur3 balances perfectly but scatters every subtree.\n\n");
}

// ---------------------------------------- ablation: reduced vs full broker

void broker_ablation() {
    bench::print_header("Ablation: reduced vs full MQTT broker",
                        "paper Section 4.2 'avoids additional overhead "
                        "for filtering MQTT topics'");
    constexpr int kMessages = 30000;
    constexpr int kIdleSubscriptions = 64;
    analysis::Table table(
        {"broker mode", "idle subscriptions", "ingest rate [msg/s]"});
    for (const bool full : {false, true}) {
        std::atomic<std::uint64_t> count{0};
        mqtt::MqttBroker broker(
            full ? mqtt::BrokerMode::kFull : mqtt::BrokerMode::kReduced,
            [&count](const mqtt::Publish&) {
                count.fetch_add(1, std::memory_order_relaxed);
            },
            0, /*listen_tcp=*/false);

        // Non-matching subscriptions that a full broker must test every
        // message against (the filtering work the reduced broker skips).
        std::vector<std::unique_ptr<mqtt::MqttClient>> subscribers;
        if (full) {
            for (int i = 0; i < kIdleSubscriptions; ++i) {
                auto sub = std::make_unique<mqtt::MqttClient>(
                    broker.connect_inproc(), "sub" + std::to_string(i));
                sub->connect();
                sub->subscribe({"/other/tree" + std::to_string(i) + "/#"});
                subscribers.push_back(std::move(sub));
            }
        }

        mqtt::MqttClient publisher(broker.connect_inproc(), "pub");
        publisher.connect();
        const auto payload = encode_readings({{now_ns(), 1}});
        const ScopeTimer timer;
        for (int i = 0; i < kMessages; ++i)
            publisher.publish("/lrz/sys/rack0/node0/s", payload, 0);
        while (count.load() < kMessages)
            std::this_thread::yield();
        const double rate = kMessages / timer.elapsed_s();
        publisher.disconnect();
        for (auto& sub : subscribers) sub->disconnect();

        table.cell(full ? "full (pub/sub)" : "reduced (publish-only)")
            .cell(static_cast<std::uint64_t>(full ? kIdleSubscriptions : 0))
            .cell(rate, 0)
            .end_row();
    }
    std::fputs(table.str().c_str(), stdout);
    std::printf(
        "Expected: the reduced broker ingests faster because it never\n"
        "matches topics against subscription filters.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
    partitioner_ablation();
    broker_ablation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
