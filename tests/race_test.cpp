// Race-provoking stress tests.
//
// Deterministic multi-threaded workloads that hammer the structures the
// Clang thread-safety annotations guard (see DESIGN.md, "Concurrency
// model & how it is checked"). They pass under plain ctest and are the
// primary customers of the `check-tsan` build tree: every test drives
// the exact interleavings that turned up real races (the broker's
// Session::connected flag, the sampler's running() probe, the commit-log
// stats counters) so a regression re-surfaces as a TSan report, not as a
// one-in-a-million production corruption.
//
// Iteration counts are tuned to finish in a few seconds on one core —
// TSan multiplies runtime ~10x and CI machines are small.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "collectagent/collect_agent.hpp"
#include "common/fault.hpp"
#include "common/random.hpp"
#include "core/hierarchy.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "core/sensor_index.hpp"
#include "core/topic_table.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "net/http.hpp"
#include "pusher/pusher.hpp"
#include "pusher/sampler.hpp"
#include "pusher/sensor_group.hpp"
#include "store/cluster.hpp"
#include "store/commitlog.hpp"
#include "store/metastore.hpp"
#include "store/node.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"

namespace dcdb {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    TempDir() {
        path_ = fs::temp_directory_path() /
                ("dcdb_race_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    static inline std::atomic<int> counter_{0};
    fs::path path_;
};

store::Key make_key(std::uint8_t tag) {
    store::Key k;
    k.sid.fill(0);
    k.sid[0] = tag;
    k.bucket = 0;
    return k;
}

// --------------------------------------------------------------- CacheSet

// N producers hammer overlapping topics while readers iterate the whole
// set (topics/latest/view/average/memory_bytes). The reader calls touch
// every cache while producers grow and evict them.
TEST(CacheSetRace, ProducersVersusIterators) {
    constexpr int kProducers = 4;
    constexpr int kReaders = 2;
    constexpr int kPushes = 2000;

    CacheSet cache(/*window_ns=*/10 * kNsPerSec);
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            while (!go.load()) std::this_thread::yield();
            for (int i = 0; i < kPushes; ++i) {
                // Two producers share each topic so one slot sees
                // concurrent writers.
                const std::string topic =
                    "/rack0/node" + std::to_string(p % 2) + "/power";
                cache.push(topic,
                           Reading{static_cast<TimestampNs>(i) * kNsPerMs,
                                   p * 1000 + i},
                           kNsPerMs);
            }
        });
    }

    // The readers are pure stressors: on a loaded single-core machine
    // they may never get scheduled while the producers run, so nothing
    // here may assert on how much they observed.
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            while (!done.load()) {
                for (const auto& topic : cache.topics()) {
                    cache.latest(topic);
                    cache.view(topic, 0, kTimestampMax);
                    cache.average(topic, kNsPerSec);
                }
                cache.memory_bytes();
                cache.sensor_count();
            }
        });
    }

    go.store(true);
    for (auto& t : producers) t.join();
    done.store(true);
    for (auto& t : readers) t.join();

    EXPECT_EQ(cache.sensor_count(), 2u);
    for (const auto& topic : cache.topics()) {
        const auto latest = cache.latest(topic);
        ASSERT_TRUE(latest.has_value());
        // Both producers of a topic end on i == kPushes-1, so whichever
        // pushed last left that timestamp.
        EXPECT_EQ(latest->ts, (kPushes - 1) * kNsPerMs);
        const auto rows = cache.view(topic, 0, kTimestampMax);
        ASSERT_FALSE(rows.empty());
        EXPECT_EQ(rows.back().ts, (kPushes - 1) * kNsPerMs);
    }
}

// ------------------------------------------------------------ TopicMapper

// Broker sessions that see one new topic at the same moment all race
// into to_sid's first-sighting path, then push to the agent-side cache
// and tree; meanwhile readers probe the mapper (lookup, to_topic) and
// iterate the cache. The topic must get one SID and one `topics/`
// record, and the cache one slot holding every reading.
TEST(TopicMapperRace, NewTopicResolvedOnceWhileReadersProbe) {
    constexpr int kResolvers = 4;
    constexpr int kReaders = 2;
    constexpr int kPushes = 500;
    const std::string topic = "/race/rack0/node0/power";
    const char* const spellings[] = {"/race/rack0/node0/power",
                                     "race//rack0/node0/power/"};

    store::MetaStore meta;
    TopicMapper mapper(meta);
    CacheSet cache(/*window_ns=*/10 * kNsPerSec);
    SensorTree tree;
    std::vector<SensorId> sids(kResolvers);
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};

    std::vector<std::thread> resolvers;
    for (int r = 0; r < kResolvers; ++r) {
        resolvers.emplace_back([&, r] {
            while (!go.load()) std::this_thread::yield();
            const char* spelling = spellings[r % 2];
            sids[static_cast<std::size_t>(r)] = mapper.to_sid(spelling);
            tree.add(spelling);
            // Half the sessions push by topic, half through a resolved
            // slot handle.
            CacheSet::Slot& slot = cache.slot(topic);
            for (int i = 0; i < kPushes; ++i) {
                const Reading reading{
                    static_cast<TimestampNs>(r * kPushes + i + 1), i};
                if (r % 2 == 0) {
                    cache.push(topic, reading);
                } else {
                    slot.push(reading);
                }
                mapper.to_sid(spellings[i % 2]);
            }
        });
    }

    // Pure stressors, like the CacheSet readers above.
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            while (!done.load()) {
                SensorId sid;
                if (mapper.lookup(topic, sid)) {
                    EXPECT_EQ(mapper.to_topic(sid), topic);
                }
                for (const auto& t : cache.topics()) {
                    cache.latest(t);
                    cache.view(t, 0, kTimestampMax);
                }
                cache.memory_bytes();
                tree.is_sensor(topic);
                tree.children("/race");
            }
        });
    }

    go.store(true);
    for (auto& t : resolvers) t.join();
    done.store(true);
    for (auto& t : readers) t.join();

    for (const auto& sid : sids) EXPECT_EQ(sid, sids[0]);
    EXPECT_EQ(mapper.known_topics(), 1u);
    const auto records = meta.scan_prefix("topics/");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].first, "topics/" + topic);
    EXPECT_EQ(records[0].second, sids[0].hex());
    EXPECT_EQ(cache.sensor_count(), 1u);
    EXPECT_EQ(cache.view(topic, 0, kTimestampMax).size(),
              static_cast<std::size_t>(kResolvers * kPushes));
    EXPECT_EQ(tree.sensor_count(), 1u);
}

// ------------------------------------------------------------ SensorIndex

// Four broker sessions resolve overlapping topic sets through the agent's
// index, publish each slot as after a stored batch, and push readings.
// Every new topic is a first sighting for two sessions at once, in two
// spellings; every session also resolves the topics cached before the
// start. One session owns each topic's pushes, so its last reading is
// the newest, while a reader walks the cache's topics(), latest() and
// memory_bytes(). Each normalized topic must end with one slot and one
// SID of its own.
TEST(SensorIndexRace, SessionsResolveFirstSightingsAndKnownTopics) {
    constexpr std::size_t kSessions = 4;
    constexpr std::size_t kNew = 64;
    constexpr std::size_t kKnown = 64;
    constexpr std::size_t kTopics = kNew + kKnown;
    constexpr TimestampNs kRounds = 40;

    // Topic t: new for t < kNew, resolved by sessions t % 4 and
    // (t + 1) % 4; known otherwise, resolved by every session. Session
    // s spells each topic canonically when s is even.
    std::vector<std::string> canonical;
    std::vector<std::string> unnormalized;
    for (std::size_t t = 0; t < kTopics; ++t) {
        const std::string path = (t < kNew ? "race/new/n" : "race/known/k") +
                                 std::to_string(t);
        canonical.push_back("/" + path);
        unnormalized.push_back(path.substr(0, 5) + "//" + path.substr(5) +
                               "/");
    }
    const auto resolves = [&](std::size_t s, std::size_t t) {
        return t >= kNew || t % kSessions == s || (t + 1) % kSessions == s;
    };
    const auto owns = [&](std::size_t s, std::size_t t) {
        return t % kSessions == s;
    };

    store::MetaStore meta;
    SensorIndex index(meta, /*window_ns=*/10 * kNsPerSec);
    for (std::size_t t = kNew; t < kTopics; ++t)
        index.publish(canonical[t], index.resolve(canonical[t]));

    std::vector<std::vector<SensorId>> sids(
        kSessions, std::vector<SensorId>(kTopics));
    std::atomic<std::size_t> mismatches{0};
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};

    std::vector<std::thread> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
        sessions.emplace_back([&, s] {
            while (!go.load()) std::this_thread::yield();
            const auto& spellings = s % 2 == 0 ? canonical : unnormalized;
            for (TimestampNs round = 1; round <= kRounds; ++round) {
                for (std::size_t t = 0; t < kTopics; ++t) {
                    if (!resolves(s, t)) continue;
                    const SensorIndex::Handle sensor =
                        index.resolve(spellings[t]);
                    CacheSet::Slot& slot =
                        index.publish(spellings[t], sensor);
                    SensorId& seen = sids[s][t];
                    if (round == 1) seen = sensor.sid;
                    if (sensor.sid != seen || slot.sid() != seen)
                        mismatches.fetch_add(1);
                    if (owns(s, t))
                        slot.push({round, static_cast<Value>(t)});
                }
            }
        });
    }

    // Each topic has one pushing session, so what latest() serves never
    // goes back in time.
    std::thread reader([&] {
        std::map<std::string, TimestampNs> newest;
        while (!done.load()) {
            for (const auto& topic : index.cache().topics()) {
                const auto latest = index.cache().latest(topic);
                if (!latest) continue;
                TimestampNs& seen = newest[topic];
                if (latest->ts < seen) mismatches.fetch_add(1);
                seen = latest->ts;
            }
            index.cache().memory_bytes();
        }
    });

    go.store(true);
    for (auto& t : sessions) t.join();
    done.store(true);
    reader.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(index.cache().sensor_count(), kTopics);
    EXPECT_EQ(index.hierarchy().sensor_count(), kTopics);
    EXPECT_EQ(index.mapper().known_topics(), kTopics);
    EXPECT_EQ(meta.scan_prefix("topics/").size(), kTopics);
    std::vector<std::string> expected = canonical;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(index.cache().topics(), expected);

    std::set<std::string> distinct;
    for (std::size_t t = 0; t < kTopics; ++t) {
        const SensorId sid = index.mapper().to_sid(canonical[t]);
        distinct.insert(sid.hex());
        for (std::size_t s = 0; s < kSessions; ++s) {
            if (resolves(s, t)) {
                EXPECT_EQ(sids[s][t], sid) << canonical[t];
            }
        }
        for (const auto* spelling : {&canonical[t], &unnormalized[t]}) {
            const auto latest = index.cache().latest(*spelling);
            ASSERT_TRUE(latest.has_value()) << *spelling;
            EXPECT_EQ(latest->ts, kRounds) << *spelling;
            EXPECT_EQ(latest->value, static_cast<Value>(t)) << *spelling;
        }
    }
    EXPECT_EQ(distinct.size(), kTopics);
}

// ------------------------------------------------------------- TopicTable

// One writer inserts topics one by one, through a dozen doublings of the
// slot array (16 slots at half load -> 65,536), and publishes a count
// after each insert. Readers pick a random topic below the count they
// read: it must be found, with the value it was inserted with — whether
// the reader probes the array current at the insert or a newer one.
// They also probe the topic being inserted: found or not, it must never
// be seen half built, which only the table's own publication ensures.
TEST(TopicTableRace, ReadersFindEveryPublishedTopicWhileTheTableGrows) {
    constexpr std::size_t kTopics = 20000;
    constexpr std::size_t kReaders = 3;
    struct Value {
        std::size_t index;
        std::uint64_t check;
    };
    const auto check_of = [](std::size_t i) {
        return static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull;
    };
    std::vector<std::string> topics;
    topics.reserve(kTopics);
    for (std::size_t i = 0; i < kTopics; ++i)
        topics.push_back("/grow/rack" + std::to_string(i % 64) + "/s" +
                         std::to_string(i));

    TopicTable<Value> table;
    std::atomic<std::size_t> published{0};
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};

    const auto intact = [&](const Value* v, std::size_t i) {
        return v != nullptr && v->index == i && v->check == check_of(i);
    };
    std::vector<std::thread> readers;
    std::vector<std::size_t> bad(kReaders, 0);
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            Rng rng(r + 1);
            while (!go.load()) std::this_thread::yield();
            while (!done.load()) {
                const std::size_t count = published.load();
                if (count < kTopics) {
                    const Value* next = table.find(topics[count]);
                    if (next != nullptr && !intact(next, count)) ++bad[r];
                }
                if (count == 0) continue;
                const std::size_t i = rng.below(count);
                if (!intact(table.find(topics[i]), i)) ++bad[r];
            }
        });
    }

    go.store(true);
    for (std::size_t i = 0; i < kTopics; ++i) {
        EXPECT_TRUE(
            table.try_emplace(topics[i], Value{i, check_of(i)}).second);
        published.store(i + 1);
    }
    done.store(true);
    for (auto& t : readers) t.join();

    // Readers are stressors that may not get scheduled on a loaded
    // machine, so only what they did observe is checked.
    for (std::size_t r = 0; r < kReaders; ++r)
        EXPECT_EQ(bad[r], 0u) << "reader " << r;
    EXPECT_EQ(table.size(), kTopics);
    for (std::size_t i = 0; i < kTopics; ++i)
        EXPECT_TRUE(intact(table.find(topics[i]), i)) << topics[i];
}

// ----------------------------------------------------------------- Broker

// Connect/publish/disconnect churn on a full (routing) broker: the
// route() path iterates live sessions and reads their connected flag
// while other session threads are mid-handshake or tearing down. This is
// the minimal repro for the Session::connected data race (route() read
// an unsynchronized bool that each session thread wrote during CONNECT;
// it is atomic now).
TEST(BrokerRace, SessionChurnWhileRouting) {
    constexpr int kChurners = 3;
    constexpr int kRounds = 25;

    std::atomic<std::uint64_t> sunk{0};
    mqtt::MqttBroker broker(
        mqtt::BrokerMode::kFull,
        [&](const mqtt::Publish&) {
            sunk.fetch_add(1, std::memory_order_relaxed);
        },
        /*port=*/0, /*listen_tcp=*/false);

    // A long-lived subscriber keeps route() busy delivering.
    mqtt::MqttClient subscriber(broker.connect_inproc(), "sub");
    subscriber.connect();
    std::atomic<std::uint64_t> delivered{0};
    subscriber.set_message_handler([&](const mqtt::Publish&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
    });
    subscriber.subscribe({"/churn/#"});

    std::vector<std::thread> churners;
    for (int c = 0; c < kChurners; ++c) {
        churners.emplace_back([&, c] {
            for (int round = 0; round < kRounds; ++round) {
                mqtt::MqttClient client(
                    broker.connect_inproc(),
                    "churn-" + std::to_string(c) + "-" +
                        std::to_string(round));
                client.connect();
                const std::string topic =
                    "/churn/c" + std::to_string(c) + "/value";
                client.publish(topic, std::string("1"), /*qos=*/1);
                client.publish(topic, std::string("2"), /*qos=*/0);
                client.disconnect();
            }
        });
    }
    for (auto& t : churners) t.join();

    // stop() joins every session thread; only after that are the final
    // QoS-0 frames guaranteed processed (QoS-1 acks gate the publishers,
    // QoS-0 frames are merely buffered when disconnect() returns).
    subscriber.disconnect();
    broker.stop();
    EXPECT_EQ(sunk.load(), 2u * kChurners * kRounds);
    const auto stats = broker.stats();
    EXPECT_EQ(stats.publishes, 2u * kChurners * kRounds);
    EXPECT_GT(stats.forwarded, 0u);
}

// Four threads publish QoS-1 payloads of distinct contents and sizes on
// ONE client: every frame is built in the stream's shared frame scratch
// under its write mutex, so a race there shows as a torn or mixed-up
// payload at the sink, which checks every byte.
TEST(MqttClientRace, ConcurrentPublishersShareOneFrameBuffer) {
    constexpr int kThreads = 4;
    constexpr int kPublishes = 150;
    // Thread t's i-th payload: 8 header bytes (t, i) then a pattern.
    const auto payload_size = [](int t, int i) {
        return static_cast<std::size_t>(8 + (t * 977 + i * 131) % 5000);
    };
    const auto pattern = [](int t, int i, std::size_t k) {
        return static_cast<std::uint8_t>(t * 61 + i * 7 + k * 13);
    };

    std::atomic<std::uint64_t> good{0};
    std::atomic<std::uint64_t> bad{0};
    mqtt::MqttBroker broker(
        mqtt::BrokerMode::kReduced,
        [&](const mqtt::Publish& p) {
            const auto& b = p.payload;
            if (b.size() < 8) {
                bad.fetch_add(1);
                return;
            }
            const int t = (b[0] << 24) | (b[1] << 16) | (b[2] << 8) | b[3];
            const int i = (b[4] << 24) | (b[5] << 16) | (b[6] << 8) | b[7];
            bool ok = t >= 0 && t < kThreads && i >= 0 && i < kPublishes &&
                      b.size() == payload_size(t, i) &&
                      p.topic == "/race/t" + std::to_string(t);
            for (std::size_t k = 8; ok && k < b.size(); ++k)
                ok = b[k] == pattern(t, i, k);
            (ok ? good : bad).fetch_add(1);
        },
        /*port=*/0, /*listen_tcp=*/false);
    mqtt::MqttClient client(broker.connect_inproc(), "shared");
    client.connect();

    std::atomic<int> failures{0};
    std::vector<std::thread> publishers;
    for (int t = 0; t < kThreads; ++t) {
        publishers.emplace_back([&, t] {
            const std::string topic = "/race/t" + std::to_string(t);
            std::vector<std::uint8_t> payload;
            for (int i = 0; i < kPublishes; ++i) {
                payload.assign(payload_size(t, i), 0);
                for (int k = 0; k < 4; ++k) {
                    payload[static_cast<std::size_t>(k)] =
                        static_cast<std::uint8_t>(t >> (24 - 8 * k));
                    payload[static_cast<std::size_t>(4 + k)] =
                        static_cast<std::uint8_t>(i >> (24 - 8 * k));
                }
                for (std::size_t k = 8; k < payload.size(); ++k)
                    payload[k] = pattern(t, i, k);
                try {
                    client.publish(topic, payload, /*qos=*/1);
                } catch (const std::exception&) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (auto& t : publishers) t.join();
    client.disconnect();
    broker.stop();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(good.load(), static_cast<std::uint64_t>(kThreads) * kPublishes);
    EXPECT_EQ(client.acks_received(),
              static_cast<std::uint64_t>(kThreads) * kPublishes);
}

// -------------------------------------------------------------- CommitLog

// Concurrent appends + sync against rotation (reset) and stats probes;
// replay afterwards must parse a valid prefix. Rotation discards
// records, so the invariant is structural: replay never sees garbage.
TEST(CommitLogRace, AppendSyncRotateReplay) {
    constexpr int kAppenders = 3;
    constexpr int kAppends = 400;

    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    {
        store::CommitLog log(path,
                             [](const store::Key&,
                                std::span<const store::Row>) {});
        std::vector<std::thread> appenders;
        for (int a = 0; a < kAppenders; ++a) {
            appenders.emplace_back([&, a] {
                std::vector<std::uint8_t> record;
                for (int i = 0; i < kAppends; ++i) {
                    const store::Row row{static_cast<TimestampNs>(i), i, 0};
                    const store::Mutation mutation{
                        make_key(static_cast<std::uint8_t>(a + 1)),
                        {&row, 1}};
                    store::CommitLog::encode_record({&mutation, 1}, record);
                    log.append(record, 1);
                    if (i % 64 == 0) log.sync();
                }
            });
        }
        std::thread rotator([&] {
            for (int i = 0; i < 5; ++i) {
                log.reset();
                log.records_appended();  // lock-free stats probe
                log.syncs();
                std::this_thread::yield();
            }
        });
        for (auto& t : appenders) t.join();
        rotator.join();
        log.sync();
    }

    const auto size = fs::file_size(path);
    std::uint64_t replayed = 0;
    const store::CommitLog reopened(
        path, [&](const store::Key&, std::span<const store::Row> rows) {
            replayed += rows.size();
        });
    EXPECT_EQ(reopened.records_appended(), replayed);
    EXPECT_EQ(fs::file_size(path), size);  // no torn bytes to truncate
    EXPECT_LE(replayed,
              static_cast<std::uint64_t>(kAppenders) * kAppends);
}

// ------------------------------------------------------------ StorageNode

// Writers insert while readers query and a maintenance thread flushes and
// compacts — the memtable/SSTable handoff under the node's shared_mutex.
TEST(StorageNodeRace, InsertQueryFlushCompact) {
    constexpr int kWriters = 2;
    constexpr int kInserts = 500;

    TempDir dir;
    store::NodeConfig config;
    config.data_dir = dir.str();
    config.memtable_flush_bytes = 1u << 14;  // force frequent flushes
    store::StorageNode node(config);

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < kInserts; ++i) {
                node.insert(make_key(static_cast<std::uint8_t>(w + 1)),
                            static_cast<TimestampNs>(i) * kNsPerMs, i);
            }
        });
    }
    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load()) {
            node.query(make_key(1), 0, kTimestampMax);
            node.stats();
        }
    });
    std::thread maintenance([&] {
        for (int i = 0; i < 10; ++i) {
            node.flush();
            if (i % 4 == 3) node.compact();
            std::this_thread::yield();
        }
    });
    for (auto& t : writers) t.join();
    maintenance.join();
    done.store(true);
    reader.join();

    node.flush();
    for (int w = 0; w < kWriters; ++w) {
        const auto rows = node.query(
            make_key(static_cast<std::uint8_t>(w + 1)), 0, kTimestampMax);
        EXPECT_EQ(rows.size(), static_cast<std::size_t>(kInserts));
    }
}

// Inserts, flushes and queries must make progress while a compaction's
// streaming merge runs: the kStoreCompact delay pins the compactor
// inside its unlocked merge phase, so everything the writer thread does
// here overlaps the merge. The final swap must preserve the tables those
// concurrent flushes created.
TEST(StorageNodeRace, InsertsAndQueriesProceedDuringCompaction) {
    constexpr int kSeedRows = 200;
    constexpr int kConcurrentInserts = 3000;

    TempDir dir;
    store::NodeConfig config;
    config.data_dir = dir.str();
    config.memtable_flush_bytes = 1u << 14;  // force flushes mid-merge
    config.commitlog_enabled = false;
    store::StorageNode node(config);

    // Seed a few tables so the merge has real inputs.
    for (int t = 0; t < 4; ++t) {
        for (int i = 0; i < kSeedRows; ++i)
            node.insert(make_key(1),
                        static_cast<TimestampNs>(t * kSeedRows + i), 1);
        node.flush();
    }

    ScopedFault fault(FaultPoint::kStoreCompact,
                      {.delay_prob = 1.0, .delay_ns = 100 * kNsPerMs,
                       .max_triggers = 1});
    std::thread compactor([&] { node.compact(); });
    std::thread writer([&] {
        for (int i = 0; i < kConcurrentInserts; ++i)
            node.insert(make_key(2), static_cast<TimestampNs>(i), i);
    });
    std::thread reader([&] {
        for (int i = 0; i < 200; ++i) {
            node.query(make_key(1), 0, kTimestampMax);
            node.stats();
        }
    });
    writer.join();
    reader.join();
    compactor.join();

    node.flush();
    EXPECT_EQ(node.stats().compactions, 1u);
    EXPECT_EQ(node.query(make_key(1), 0, kTimestampMax).size(),
              static_cast<std::size_t>(4 * kSeedRows));
    EXPECT_EQ(node.query(make_key(2), 0, kTimestampMax).size(),
              static_cast<std::size_t>(kConcurrentInserts));
}

// ---------------------------------------------------------------- Sampler

class TickGroup final : public pusher::SensorGroup {
  public:
    TickGroup(std::string name, TimestampNs interval)
        : SensorGroup(std::move(name), interval) {}

  protected:
    bool do_read(TimestampNs, std::vector<Value>& out) override {
        for (auto& v : out) v = 1;
        return true;
    }
};

// Sampler threads read their groups into one cache set (each sensor
// resolving and then reusing its slot) while a push thread peeks each
// group's slots into one reused buffer and releases what it peeked, as a
// push round does after a publish, and a REST-like reader walks the
// cache. `release_at` is how many pending readings a sensor needs before
// the push thread releases them; one round in three releases nothing, as
// after a failed publish. Every reading must end up released, still
// pending, or counted dropped, and no reading is released twice or out
// of order.
void samplers_versus_peeks_and_cache_readers(int reads,
                                            std::size_t release_at) {
    constexpr int kGroups = 2;
    constexpr int kSensors = 8;

    CacheSet cache(/*window_ns=*/2 * static_cast<TimestampNs>(reads) *
                   kNsPerMs);
    telemetry::MetricRegistry registry;
    telemetry::Counter& dropped = registry.counter("race.dropped");
    std::vector<std::unique_ptr<TickGroup>> groups;
    for (int g = 0; g < kGroups; ++g) {
        groups.push_back(
            std::make_unique<TickGroup>("g" + std::to_string(g), kNsPerMs));
        groups.back()->set_pending(&dropped, /*keep=*/true);
        for (int s = 0; s < kSensors; ++s) {
            groups.back()->add_sensor(std::make_unique<pusher::SensorBase>(
                "s" + std::to_string(s), "/race/g" + std::to_string(g) +
                                             "/s" + std::to_string(s)));
        }
    }
    std::atomic<bool> go{false};
    std::atomic<int> sampling{kGroups};
    std::atomic<bool> done{false};

    std::vector<std::thread> samplers;
    for (int g = 0; g < kGroups; ++g) {
        samplers.emplace_back([&, g] {
            while (!go.load()) std::this_thread::yield();
            for (int i = 1; i <= reads; ++i)
                groups[static_cast<std::size_t>(g)]->read_all(
                    static_cast<TimestampNs>(i) * kNsPerMs, &cache);
            sampling.fetch_sub(1);
        });
    }
    std::uint64_t released = 0;
    bool in_order = true;
    std::thread pusher_thread([&] {
        struct Peeked {
            std::size_t begin, count;
            std::uint64_t end;
        };
        std::vector<Reading> buffer;
        std::vector<Peeked> peeked;
        std::vector<TimestampNs> last_released(kGroups * kSensors, 0);
        while (!go.load()) std::this_thread::yield();
        for (int round = 0; sampling.load() > 0; ++round) {
            std::size_t k = 0;
            for (const auto& group : groups) {
                buffer.clear();
                peeked.clear();
                for (const auto& sensor : group->sensors()) {
                    Peeked p{buffer.size(), 0, 0};
                    p.count = sensor->peek_pending_into(buffer, p.end);
                    peeked.push_back(p);
                }
                for (std::size_t i = 0; i < peeked.size(); ++i, ++k) {
                    const Peeked& p = peeked[i];
                    if (round % 3 == 0 || p.count < release_at) continue;
                    const std::size_t n =
                        group->sensors()[i]->release_pending(p.end);
                    released += n;
                    // The cap overwrote the oldest of the peek since, so
                    // the release took its newest n.
                    if (n > p.count) {
                        in_order = false;
                        continue;
                    }
                    const std::size_t stop = p.begin + p.count;
                    for (std::size_t r = stop - n; r < stop; ++r) {
                        if (buffer[r].ts <= last_released[k]) in_order = false;
                        last_released[k] = buffer[r].ts;
                    }
                }
            }
        }
    });
    std::thread reader([&] {
        while (!done.load()) {
            for (const auto& topic : cache.topics()) cache.latest(topic);
            cache.memory_bytes();
        }
    });

    go.store(true);
    for (auto& t : samplers) t.join();
    pusher_thread.join();
    done.store(true);
    reader.join();

    EXPECT_TRUE(in_order) << "a reading was released twice or out of order";
    for (const auto& group : groups) {
        for (const auto& sensor : group->sensors()) {
            EXPECT_EQ(cache.view(sensor->topic(), 0, kTimestampMax).size(),
                      static_cast<std::size_t>(reads));
        }
    }
    EXPECT_EQ(released + cache.pending() + dropped.value(),
              static_cast<std::uint64_t>(kGroups) * kSensors *
                  static_cast<std::uint64_t>(reads));
    if (static_cast<std::size_t>(reads) > SensorCache::kMaxPending) {
        EXPECT_GT(dropped.value(), 0u) << "releases never met the cap";
    }
    EXPECT_EQ(cache.sensor_count(), static_cast<std::size_t>(kGroups) *
                                        kSensors);
}

TEST(SensorBaseRace, SamplersVersusDrainsAndCacheReaders) {
    // Below the cap: rings only grow and shrink.
    samplers_versus_peeks_and_cache_readers(2000, 1);
    // Above it: each release meets a full ring that the samplers keep
    // overwriting between the peek and the release.
    samplers_versus_peeks_and_cache_readers(
        3 * static_cast<int>(SensorCache::kMaxPending),
        SensorCache::kMaxPending);
}

// Two threads push while a third stops the Pusher, with publishes
// failing at `point`: every round, reconnect and the final flush share
// one push lock, the push thread's wait wakes on stop(), and every
// sampled reading is still accounted for.
void push_now_versus_stop(const std::string& global,
                          std::unique_ptr<mqtt::Transport> transport,
                          FaultPoint point, FaultSpec spec) {
    // One sensor per group, so one sample is one reading.
    pusher::Pusher pusher(
        parse_config("global { topicPrefix /race ; pushInterval 5ms ; " +
                     global +
                     " }\n"
                     "plugins { tester {\n"
                     "  group a { sensors 1 ; interval 2ms }\n"
                     "  group b { sensors 1 ; interval 3ms } } }\n"),
        std::move(transport));
    ScopedFault fault(point, spec);
    pusher.start();

    std::atomic<bool> stopped{false};
    std::vector<std::thread> pushers;
    for (int t = 0; t < 2; ++t) {
        pushers.emplace_back([&] {
            for (int i = 0; i < 200 || !stopped.load(); ++i) {
                pusher.push_now();
                std::this_thread::yield();
            }
        });
    }
    std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        pusher.stop();
        stopped.store(true);
    });
    stopper.join();
    for (auto& t : pushers) t.join();

    const auto s = pusher.stats();
    EXPECT_GT(s.samples_taken, 0u);
    EXPECT_GT(s.publish_failures, 0u);
    EXPECT_EQ(s.readings_dropped, 0u);
    EXPECT_EQ(s.readings_pushed + s.readings_dropped + s.readings_pending,
              s.samples_taken);
}

TEST(PusherRace, PushNowVersusStopWithFlakySends) {
    {
        // Half of all MQTT sends fail on an in-process session.
        mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr, 0,
                                /*listen_tcp=*/false);
        push_now_versus_stop("", broker.connect_inproc(),
                             FaultPoint::kMqttSend, {.error_prob = 0.5});
    }
    // A TCP agent refuses ~30% of the store inserts. Each refusal ends
    // its session, so the rounds and the flush reconnect on the backoff.
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp true }"), &cluster, &meta);
    push_now_versus_stop("mqttBroker 127.0.0.1:" +
                             std::to_string(agent.mqtt_port()) +
                             " ; qos 1 ; reconnectBackoffMin 1ms ;"
                             " reconnectBackoffMax 5ms",
                         nullptr, FaultPoint::kStoreInsert,
                         {.error_prob = 0.3});
}

// Reloads run while the sampler reads a 1 ms group, push rounds publish
// and REST clients poll /stats, /plugins and /config: a reload waits out
// the reads and rounds in flight and keeps the walkers out, and the
// rebuilt sensors continue their slots, so every sampled reading is still
// pushed, dropped or pending.
TEST(PusherRace, ReloadVersusSamplingPushingAndStats) {
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr, 0,
                            /*listen_tcp=*/false);
    // One sensor per group, so one sample is one reading.
    pusher::Pusher pusher(
        parse_config("global { topicPrefix /race ; pushInterval 2ms ;\n"
                     "  restApi true }\n"
                     "plugins { tester {\n"
                     "  group a { sensors 1 ; interval 1ms }\n"
                     "  group b { sensors 1 ; interval 1ms } } }\n"),
        broker.connect_inproc());
    pusher.start();
    const std::uint16_t port = pusher.rest_port();

    std::atomic<bool> done{false};
    std::thread pushing([&] {
        while (!done.load()) pusher.push_now();
    });
    std::vector<std::thread> clients;
    for (const char* path : {"/stats", "/plugins", "/config"}) {
        clients.emplace_back([&, path] {
            while (!done.load())
                EXPECT_EQ(http_get("127.0.0.1", port, path).status, 200);
        });
    }
    for (int i = 0; i < 50; ++i) {
        pusher.reload_plugin("tester");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
    pushing.join();
    for (auto& t : clients) t.join();
    pusher.stop();

    const auto s = pusher.stats();
    EXPECT_GT(s.samples_taken, 0u);
    EXPECT_GT(s.readings_pushed, 0u);
    EXPECT_EQ(s.readings_dropped, 0u);
    EXPECT_EQ(s.readings_pushed + s.readings_dropped + s.readings_pending,
              s.samples_taken);
    EXPECT_EQ(pusher.cache().sensor_count(), 2u);
}

// Start/stop churn while an observer polls the lock-free running() probe
// (previously an unsynchronized bool read racing the worker threads).
TEST(SamplerRace, StartStopChurnWithRunningProbe) {
    CacheSet cache;
    pusher::Sampler sampler(2, &cache);
    TickGroup group("g", kNsPerMs);
    group.add_sensor(
        std::make_unique<pusher::SensorBase>("s", "/race/sampler/s"));
    sampler.add_group(&group);

    std::atomic<bool> done{false};
    std::thread prober([&] {
        while (!done.load()) {
            sampler.running();
            sampler.samples_taken();
        }
    });
    for (int i = 0; i < 10; ++i) {
        sampler.start();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        sampler.stop();
    }
    done.store(true);
    prober.join();
    EXPECT_FALSE(sampler.running());
    EXPECT_GT(sampler.samples_taken(), 0u);
}

// -------------------------------------------------------------- telemetry

// Writers hammer every metric kind while readers concurrently take
// snapshots, walk entries() and run the Prometheus exporter, and other
// threads race get-or-create on the same names. The telemetry hot path
// is advertised as lock-free and safe from any thread (metrics.hpp);
// under TSan this test is the proof.
TEST(TelemetryRace, WritersVersusSnapshotsAndRegistration) {
    constexpr int kWriters = 4;
    constexpr int kOps = 20'000;

    telemetry::MetricRegistry registry;
    telemetry::Counter& counter = registry.counter("race.events");
    telemetry::Gauge& gauge = registry.gauge("race.depth");
    telemetry::Histogram& hist = registry.histogram("race.latency");

    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < kOps; ++i) {
                counter.add(1);
                gauge.add(1);
                hist.record(static_cast<std::uint64_t>(i) << (w & 3));
                gauge.sub(1);
                // Re-registration of a live name must be safe too.
                registry.counter("race.events").add(1);
                registry.counter("race.late." + std::to_string(w));
            }
        });
    }
    std::thread reader([&] {
        while (!done.load()) {
            (void)counter.value();
            (void)hist.snapshot().quantile(0.99);
            for (const auto& entry : registry.entries()) {
                if (entry.counter) (void)entry.counter->value();
                if (entry.gauge) (void)entry.gauge->value();
                if (entry.histogram) (void)entry.histogram->snapshot();
            }
            (void)telemetry::to_prometheus(registry);
        }
    });
    for (auto& t : writers) t.join();
    done.store(true);
    reader.join();

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(2 * kWriters * kOps));
    EXPECT_EQ(gauge.value(), 0);
    EXPECT_EQ(hist.snapshot().count(),
              static_cast<std::uint64_t>(kWriters * kOps));
    EXPECT_EQ(registry.size(), 3u + kWriters);
}

}  // namespace
}  // namespace dcdb
