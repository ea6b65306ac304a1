// Ingest hot path: batched vs per-reading store inserts, and the
// allocation discipline of the batch payload decode path.
//
// The batch pipeline (coalesced publishes -> decode_batch views ->
// insert_batch -> one commit-log record per batch) exists to amortize
// the per-reading costs of the old path: one writer-lock acquisition,
// one commit-log record, and (at tight durability settings) one
// fdatasync PER READING. `bench_ingest --smoke` (wired into ctest)
// enforces the contracts that keep it honest:
//
//   1. insert_batch at batch 64 sustains >= 5x the readings/sec of the
//      per-reading path under the same durability bound
//      (commitlog_sync_every = 1, i.e. no reading may be lost), and
//      loses nothing.
//   2. decode_batch into a reused view performs ZERO heap allocations in
//      steady state — the agent decodes on broker session threads, and
//      per-reading allocation there is the first thing batching wins.
//   3. Per-section bookkeeping on KNOWN sensors performs ZERO heap
//      allocations: the agent's SensorIndex::resolve and the push
//      through the resolved cache slot (also for an
//      unnormalized spelling of a known topic), and the Pusher's
//      SensorGroup::read_all plus the per-sensor peek and release that
//      push_once does around a publish.
//   5. The byte path from the Pusher's encoder to the commit-log record
//      performs ZERO heap allocations per round trip once warm: encode
//      into a reused buffer, write_publish over an in-proc pair,
//      read_packet into a reused Packet, decode_batch, build one
//      mutation per section, encode the commit-log record, then write and read
//      the PUBACK. And a header that declares a 64 MiB body which never
//      arrives pins under 1 MiB before it ends in ProtocolError.
//   6. CollectAgent::on_publish on KNOWN sensors performs ZERO heap
//      allocations, the store insert included: a publish through the
//      agent's in-proc broker session is decoded, resolved, stored as
//      one mutation per section (commit-log record and memtable) and
//      cached before its PUBACK. It is measured after one memtable flush
//      and one round that recreates the partitions: the memtable keeps
//      its arena blocks across the flush.
//
// It also re-checks the storage-side half of the bargain: a monotone
// sensor series stored through the v2 SSTable writer costs <= 4 bytes
// per reading on disk (Gorilla blocks, DESIGN.md §10).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <vector>

#include "bench_util.hpp"
#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "core/payload.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "core/sensor_index.hpp"
#include "mqtt/transport.hpp"
#include "pusher/sensor_group.hpp"
#include "store/cluster.hpp"
#include "store/commitlog.hpp"
#include "store/metastore.hpp"
#include "store/node.hpp"
#include "store/sstable.hpp"

using namespace dcdb;

// ------------------------------------------------- allocation counting
//
// Global operator new override counting every heap allocation in the
// process, and the bytes asked for; the smoke check reads the counters
// around the decode, bookkeeping and byte-path loops.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Out of line: inlined into a caller, GCC pairs the free() with that
// caller's operator new and warns of a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

constexpr int kBatch = 64;

store::Key bench_key(std::uint8_t tag, TimestampNs ts) {
    store::Key k;
    k.sid.fill(0);
    k.sid[0] = tag;
    k.bucket = time_bucket(ts);
    return k;
}

store::NodeConfig tight_durability_config(const std::string& dir) {
    store::NodeConfig config;
    config.data_dir = dir;
    config.memtable_flush_bytes = 64u << 20;  // keep flushes out of the loop
    config.commitlog_enabled = true;
    // The paper's strictest loss bound: no acknowledged reading may be
    // lost, so the log syncs as soon as a record lands. This is where
    // batching pays: one fdatasync per batch instead of per reading.
    config.commitlog_sync_every = 1;
    return config;
}

/// Insert `total` readings one at a time; returns elapsed ns.
std::uint64_t run_single(store::StorageNode& node, int total) {
    const TimestampNs start = steady_ns();
    for (int i = 0; i < total; ++i) {
        const TimestampNs ts = static_cast<TimestampNs>(i + 1);
        node.insert(bench_key(1, ts), ts, i);
    }
    return steady_ns() - start;
}

/// Insert `total` readings in batches of `batch`; returns elapsed ns.
std::uint64_t run_batched(store::StorageNode& node, int total, int batch) {
    std::vector<store::BatchEntry> entries;
    entries.reserve(static_cast<std::size_t>(batch));
    const TimestampNs start = steady_ns();
    for (int i = 0; i < total; i += batch) {
        entries.clear();
        for (int j = i; j < i + batch && j < total; ++j) {
            const TimestampNs ts = static_cast<TimestampNs>(j + 1);
            entries.push_back({bench_key(2, ts), ts, j, 0});
        }
        node.insert_batch(entries);
    }
    return steady_ns() - start;
}

std::vector<std::uint8_t> make_batch_payload(int sections,
                                             int readings_each) {
    static std::vector<std::string> topics;
    static std::vector<std::vector<Reading>> readings;
    topics.clear();
    readings.clear();
    for (int s = 0; s < sections; ++s) {
        topics.push_back("/bench/node0/plugin/group/s" + std::to_string(s));
        std::vector<Reading> section;
        for (int i = 0; i < readings_each; ++i)
            section.push_back({static_cast<TimestampNs>(i + 1) * kNsPerSec,
                               s * 1000 + i});
        readings.push_back(std::move(section));
    }
    std::vector<SensorBatch> batches;
    for (int s = 0; s < sections; ++s)
        batches.push_back({topics[static_cast<std::size_t>(s)],
                           readings[static_cast<std::size_t>(s)]});
    return encode_batch(batches);
}

/// Pusher group whose sensors all read the group's read count.
class CountingGroup final : public pusher::SensorGroup {
  public:
    using SensorGroup::SensorGroup;

  protected:
    bool do_read(TimestampNs, std::vector<Value>& out) override {
        ++reads_;
        for (auto& v : out) v = reads_;
        return true;
    }

  private:
    Value reads_{0};
};

// ---------------------------------------------------------- benchmarks

void BM_InsertSingle(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        bench::ScratchDir scratch("ingest_single");
        store::StorageNode node(tight_durability_config(scratch.str()));
        state.ResumeTiming();
        run_single(node, static_cast<int>(state.range(0)));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertSingle)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_InsertBatched(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        bench::ScratchDir scratch("ingest_batched");
        store::StorageNode node(tight_durability_config(scratch.str()));
        state.ResumeTiming();
        run_batched(node, static_cast<int>(state.range(0)), kBatch);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertBatched)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_DecodeBatch(benchmark::State& state) {
    const auto payload = make_batch_payload(8, 8);
    BatchPayloadView view;
    for (auto _ : state) {
        decode_batch(payload, view);
        benchmark::DoNotOptimize(view.total_readings);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DecodeBatch);

// ------------------------------------------------------------- smoke

constexpr int kSmokeReadings = 8192;
constexpr double kMinSpeedup = 5.0;
constexpr int kDecodeIterations = 10000;
constexpr int kBookkeepRounds = 2000;
constexpr int kByteRoundTrips = 2000;

/// Check 5: Pusher encoder -> MQTT frame -> agent decode -> commit-log
/// record -> PUBACK, 32 sensors x 32 readings per publish.
int byte_path_smoke() {
    constexpr int kSensors = 32;
    constexpr int kReadingsEach = 32;
    store::MetaStore meta;
    TopicMapper mapper(meta);
    std::vector<std::string> topics;
    std::vector<std::vector<Reading>> readings(
        kSensors, std::vector<Reading>(kReadingsEach));
    std::vector<SensorBatch> sections;
    for (int s = 0; s < kSensors; ++s)
        topics.push_back("/bench/node0/plugin/group/s" + std::to_string(s));
    for (int s = 0; s < kSensors; ++s) {
        sections.push_back({topics[static_cast<std::size_t>(s)],
                            readings[static_cast<std::size_t>(s)]});
    }
    auto [pusher_side, agent_side] = mqtt::make_inproc_pair();
    mqtt::PacketStream pusher_end(std::move(pusher_side));
    mqtt::PacketStream agent_end(std::move(agent_side));
    std::vector<std::uint8_t> payload;
    mqtt::Packet packet;
    mqtt::Packet ack;
    BatchPayloadView view;
    std::vector<store::Row> rows(kSensors * kReadingsEach);
    std::vector<store::Mutation> mutations;
    std::vector<std::uint8_t> record;
    std::uint64_t stored = 0;
    std::uint64_t acked = 0;
    const auto round_trip = [&](int round) {
        // Fresh readings each round, written into the same storage.
        for (int s = 0; s < kSensors; ++s) {
            auto& rs = readings[static_cast<std::size_t>(s)];
            for (int i = 0; i < kReadingsEach; ++i) {
                const auto ts = static_cast<TimestampNs>(
                    round * kReadingsEach + i + 1) * kNsPerSec;
                rs[static_cast<std::size_t>(i)] = {ts, s + round};
            }
        }
        const auto id = static_cast<std::uint16_t>(round % 0xFFFF + 1);
        encode_batch(sections, {}, payload);
        pusher_end.write_publish(topics[0], payload, 1, id);
        if (!agent_end.read_packet(packet)) return;
        const auto* pub = std::get_if<mqtt::Publish>(&packet);
        if (pub == nullptr) return;
        decode_batch(pub->payload, view);
        // One mutation per section: every round stays in day bucket 0.
        mutations.clear();
        std::size_t n = 0;
        for (const auto& section : view.sections) {
            const SensorId sid = mapper.to_sid(section.topic);
            const std::size_t begin = n;
            for (std::size_t i = 0; i < section.readings.size(); ++i) {
                const Reading r = section.readings[i];
                rows[n++] = {r.ts, r.value, 0};
            }
            mutations.push_back(
                {sensor_key(sid, rows[begin].ts),
                 std::span<const store::Row>(rows).subspan(begin, n - begin)});
        }
        store::CommitLog::encode_record(mutations, record);
        stored += n;
        agent_end.write_packet(mqtt::Puback{pub->packet_id});
        if (!pusher_end.read_packet(ack)) return;
        const auto* puback = std::get_if<mqtt::Puback>(&ack);
        if (puback != nullptr && puback->packet_id == id) ++acked;
    };
    // Warm-up: first sightings, buffers and pipes grow once.
    for (int round = 0; round < 4; ++round) round_trip(round);
    stored = 0;
    acked = 0;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 4; round < 4 + kByteRoundTrips; ++round)
        round_trip(round);
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    std::printf("ingest smoke: %d byte-path round trips of %d readings "
                "(%zu-byte payload), %llu heap allocations\n",
                kByteRoundTrips, kSensors * kReadingsEach, payload.size(),
                static_cast<unsigned long long>(allocs));
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kByteRoundTrips) * kSensors * kReadingsEach;
    if (stored != expected ||
        acked != static_cast<std::uint64_t>(kByteRoundTrips) ||
        record.size() !=
            4 + kSensors * (24 + kReadingsEach * 20) + 4) {
        std::fprintf(stderr, "ingest smoke: byte path lost a reading or "
                             "an acknowledgement\n");
        return 1;
    }
    if (allocs != 0) {
        std::fprintf(stderr,
                     "ingest smoke: byte path allocated %llu times — "
                     "encode, framing, read_packet, decode, the record "
                     "and the PUBACK must reuse their buffers\n",
                     static_cast<unsigned long long>(allocs));
        return 1;
    }

    // A PUBLISH header declaring 64 MiB, 10 body bytes, then EOF: the
    // reader must grow with the bytes that arrived, not the declared
    // length.
    auto [writer, reader_side] = mqtt::make_inproc_pair();
    mqtt::PacketStream reader(std::move(reader_side));
    const std::uint8_t header[] = {0x30, 0x80, 0x80, 0x80, 0x20};
    const std::uint8_t body[10] = {};
    writer->send(header);
    writer->send(body);
    writer->close();
    const std::uint64_t bytes_before =
        g_allocated_bytes.load(std::memory_order_relaxed);
    bool protocol_error = false;
    try {
        reader.read_packet(packet);
    } catch (const ProtocolError&) {
        protocol_error = true;
    }
    const std::uint64_t pinned =
        g_allocated_bytes.load(std::memory_order_relaxed) - bytes_before;
    std::printf("ingest smoke: 64 MiB declared, 10 bytes sent: %llu bytes "
                "allocated (budget %u), %s\n",
                static_cast<unsigned long long>(pinned), 1u << 20,
                protocol_error ? "ProtocolError" : "no ProtocolError");
    if (!protocol_error || pinned >= (1u << 20)) {
        std::fprintf(stderr,
                     "ingest smoke: a declared length pinned memory before "
                     "its bytes arrived, or the stalled frame was not "
                     "refused\n");
        return 1;
    }
    return 0;
}

/// Check 6: publishes of 32 known sensors x 32 readings through the
/// Collect Agent into its store.
int agent_publish_smoke() {
    constexpr int kSensors = 32;
    constexpr int kReadingsEach = 32;
    constexpr int kMeasuredRounds = 40;  // fewer than a memtable holds
    bench::ScratchDir scratch("ingest_smoke_agent");
    store::StoreCluster cluster(
        {scratch.str(), 1, 1, "hierarchy", std::size_t{1} << 20, true});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    mqtt::PacketStream pusher(agent.connect_inproc());
    mqtt::Packet packet;
    pusher.write_packet(mqtt::Connect{"bench", 60, true});
    if (!pusher.read_packet(packet) ||
        std::get_if<mqtt::Connack>(&packet) == nullptr) {
        std::fprintf(stderr, "ingest smoke: agent refused the session\n");
        return 1;
    }

    std::vector<std::string> topics;
    std::vector<std::vector<Reading>> readings(
        kSensors, std::vector<Reading>(kReadingsEach));
    std::vector<SensorBatch> sections;
    for (int s = 0; s < kSensors; ++s)
        topics.push_back("/bench/node0/agent/group/s" + std::to_string(s));
    for (int s = 0; s < kSensors; ++s)
        sections.push_back({topics[static_cast<std::size_t>(s)],
                            readings[static_cast<std::size_t>(s)]});
    std::vector<std::uint8_t> payload;
    std::uint64_t acked = 0;
    int round = 0;
    // Every round stays in day bucket 0, so no partition is new after the
    // first round of a memtable.
    const auto publish_round = [&] {
        for (int s = 0; s < kSensors; ++s) {
            auto& rs = readings[static_cast<std::size_t>(s)];
            for (int i = 0; i < kReadingsEach; ++i) {
                const auto ts = static_cast<TimestampNs>(
                    round * kReadingsEach + i + 1) * kNsPerSec;
                rs[static_cast<std::size_t>(i)] = {ts, s + round};
            }
        }
        const auto id = static_cast<std::uint16_t>(round % 0xFFFF + 1);
        ++round;
        encode_batch(sections, {}, payload);
        pusher.write_publish(topics[0], payload, 1, id);
        if (!pusher.read_packet(packet)) return;
        const auto* puback = std::get_if<mqtt::Puback>(&packet);
        if (puback != nullptr && puback->packet_id == id) ++acked;
    };
    store::StorageNode& node = cluster.node(0);
    while (node.stats().flushes == 0 && round < 1000) publish_round();
    publish_round();  // recreates the partitions
    const std::uint64_t warm = acked;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < kMeasuredRounds; ++i) publish_round();
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    std::printf("ingest smoke: %d agent publishes of %d readings on known "
                "sensors, after %llu warm-up rounds and 1 flush, %llu heap "
                "allocations\n",
                kMeasuredRounds, kSensors * kReadingsEach,
                static_cast<unsigned long long>(warm),
                static_cast<unsigned long long>(allocs));
    const auto stored = agent.query_stored(topics[kSensors - 1], 0,
                                           kTimestampMax);
    if (acked != static_cast<std::uint64_t>(round) ||
        node.stats().flushes != 1 ||
        stored.size() != static_cast<std::size_t>(round) * kReadingsEach ||
        agent.stats().readings !=
            static_cast<std::uint64_t>(round) * kSensors * kReadingsEach) {
        std::fprintf(stderr, "ingest smoke: the agent lost a publish or a "
                             "reading, or flushed while measured\n");
        return 1;
    }
    if (allocs != 0) {
        std::fprintf(stderr,
                     "ingest smoke: the agent's publish path allocated "
                     "%llu times — decode, resolve, the mutations, the "
                     "commit-log record, the memtable insert and the "
                     "cache push must not touch the heap\n",
                     static_cast<unsigned long long>(allocs));
        return 1;
    }
    return 0;
}

int smoke() {
    // 1. Batched vs per-reading throughput under the same loss bound.
    std::uint64_t single_ns = 0;
    std::uint64_t batched_ns = 0;
    std::size_t single_rows = 0;
    std::size_t batched_rows = 0;
    {
        bench::ScratchDir scratch("ingest_smoke_single");
        store::StorageNode node(tight_durability_config(scratch.str()));
        single_ns = run_single(node, kSmokeReadings);
        // All smoke timestamps land in time bucket 0.
        single_rows = node.query(bench_key(1, 1), 0, kTimestampMax).size();
    }
    {
        bench::ScratchDir scratch("ingest_smoke_batched");
        store::StorageNode node(tight_durability_config(scratch.str()));
        batched_ns = run_batched(node, kSmokeReadings, kBatch);
        batched_rows = node.query(bench_key(2, 1), 0, kTimestampMax).size();
    }
    const double single_rate =
        kSmokeReadings / (static_cast<double>(single_ns) / kNsPerSec);
    const double batched_rate =
        kSmokeReadings / (static_cast<double>(batched_ns) / kNsPerSec);
    const double speedup = batched_rate / single_rate;
    std::printf("ingest smoke: per-reading %.0f r/s, batch-%d %.0f r/s "
                "(%.1fx, floor %.1fx)\n",
                single_rate, kBatch, batched_rate, speedup, kMinSpeedup);
    if (single_rows != kSmokeReadings || batched_rows != kSmokeReadings) {
        std::fprintf(stderr,
                     "ingest smoke: lost readings (single %zu, batched "
                     "%zu, expected %d) — no durability regression "
                     "allowed\n",
                     single_rows, batched_rows, kSmokeReadings);
        return 1;
    }
    if (speedup < kMinSpeedup) {
        std::fprintf(stderr,
                     "ingest smoke: batch speedup %.1fx under the %.1fx "
                     "floor — the batched path stopped amortizing "
                     "per-reading costs\n",
                     speedup, kMinSpeedup);
        return 1;
    }

    // 2. Zero steady-state allocations on the decode path.
    const auto payload = make_batch_payload(8, 8);
    BatchPayloadView view;
    decode_batch(payload, view);  // warm-up: scratch vectors size up once
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    std::uint64_t total = 0;
    for (int i = 0; i < kDecodeIterations; ++i) {
        decode_batch(payload, view);
        total += view.total_readings;
    }
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    std::printf("ingest smoke: %d decodes (%llu readings), %llu heap "
                "allocations\n",
                kDecodeIterations, static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(allocs));
    if (total != static_cast<std::uint64_t>(kDecodeIterations) * 64) {
        std::fprintf(stderr, "ingest smoke: decode dropped readings\n");
        return 1;
    }
    if (allocs != 0) {
        std::fprintf(stderr,
                     "ingest smoke: decode path allocated %llu times in "
                     "steady state — reused views must not touch the "
                     "heap\n",
                     static_cast<unsigned long long>(allocs));
        return 1;
    }

    // 3. Zero allocations per section on known sensors, agent and
    // Pusher side. Readings are a second apart so the 120 s caches
    // evict instead of growing. The agent also sees one unnormalized
    // spelling of a known sensor, which must resolve to the same slot
    // (and SID) without allocating.
    {
        store::MetaStore meta;
        SensorIndex index(meta, 120 * kNsPerSec);
        CacheSet pusher_cache(120 * kNsPerSec);
        CountingGroup group("g", kNsPerSec);
        std::vector<std::string> topics;
        for (int s = 0; s < 8; ++s) {
            topics.push_back("/bench/node0/plugin/group/s" +
                             std::to_string(s));
            group.add_sensor(std::make_unique<pusher::SensorBase>(
                "s" + std::to_string(s), topics.back()));
        }
        std::vector<std::string> agent_topics = topics;
        agent_topics.push_back("bench//node0/plugin/group/s0/");
        std::vector<Reading> drain;
        std::vector<std::uint64_t> ends(topics.size());
        std::uint64_t resolved = 0;
        std::uint64_t released = 0;
        const auto round = [&](TimestampNs ts) {
            for (const auto& topic : agent_topics) {
                const SensorIndex::Handle sensor = index.resolve(topic);
                resolved += sensor.slot != nullptr ? 1 : 0;
                index.publish(topic, sensor).push({ts, 1});
            }
            group.read_all(ts, &pusher_cache);
            drain.clear();
            for (std::size_t s = 0; s < ends.size(); ++s)
                group.sensors()[s]->peek_pending_into(drain, ends[s]);
            for (std::size_t s = 0; s < ends.size(); ++s)
                released += group.sensors()[s]->release_pending(ends[s]);
        };
        // Warm-up: first sightings, cache slots, pending rings, buffers.
        // It spans more than one 120 s cache window, so s0's slot, fed
        // under both spellings (two readings a second), has grown its
        // ring to its steady size.
        constexpr int kWarmupRounds = 130;
        for (int i = 1; i <= kWarmupRounds; ++i)
            round(static_cast<TimestampNs>(i) * kNsPerSec);
        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        resolved = 0;
        released = 0;
        for (int i = 0; i < kBookkeepRounds; ++i)
            round(static_cast<TimestampNs>(i + kWarmupRounds + 1) *
                  kNsPerSec);
        const std::uint64_t allocs =
            g_allocations.load(std::memory_order_relaxed) - before;
        std::printf("ingest smoke: %d bookkeeping rounds of %zu known "
                    "sensors (%zu agent spellings), %llu heap "
                    "allocations\n",
                    kBookkeepRounds, topics.size(), agent_topics.size(),
                    static_cast<unsigned long long>(allocs));
        if (resolved != kBookkeepRounds * agent_topics.size() ||
            released != kBookkeepRounds * topics.size() ||
            drain.size() != topics.size() ||
            index.mapper().known_topics() != topics.size() ||
            index.cache().sensor_count() != topics.size() ||
            index.hierarchy().sensor_count() != topics.size() ||
            index.cache().view(topics[0], 0, kTimestampMax).empty()) {
            std::fprintf(stderr, "ingest smoke: bookkeeping lost or "
                                 "duplicated a sensor, or lost a "
                                 "reading\n");
            return 1;
        }
        if (allocs != 0) {
            std::fprintf(stderr,
                         "ingest smoke: known-sensor bookkeeping "
                         "allocated %llu times — SensorIndex::resolve, "
                         "the slot push, read_all and the pending peek "
                         "and release must not touch the heap\n",
                         static_cast<unsigned long long>(allocs));
            return 1;
        }
    }

    // 4. Compressed block density on the acceptance workload.
    {
        bench::ScratchDir scratch("ingest_smoke_blocks");
        std::map<store::Key, std::vector<store::Row>> parts;
        const store::Key k = bench_key(3, kNsPerSec);
        auto& rows = parts[k];
        for (TimestampNs i = 0; i < 4096; ++i)
            rows.push_back(store::Row{(i + 1) * kNsPerSec,
                                      static_cast<Value>(40 + (i % 2)),
                                      3600});
        const auto table =
            store::SsTable::write(scratch.str() + "/t.db", 1, parts);
        const double bytes_per_row =
            static_cast<double>(table->data_bytes()) / 4096.0;
        std::printf("ingest smoke: %.2f bytes/reading on disk (budget "
                    "4.00)\n",
                    bytes_per_row);
        if (bytes_per_row > 4.0) {
            std::fprintf(stderr,
                         "ingest smoke: compressed blocks over the 4 "
                         "bytes/reading budget\n");
            return 1;
        }
    }

    // 5. Zero allocations on the byte path, and no memory pinned by a
    // declared length.
    if (const int failed = byte_path_smoke()) return failed;

    // 6. Zero allocations in the agent's publish path, store included.
    return agent_publish_smoke();
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) return smoke();
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
