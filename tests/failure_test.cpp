// Failure-injection tests: every component must degrade gracefully when
// its neighbors misbehave — brokers die mid-run, clients send garbage,
// files are torn by crashes, data sources disappear.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "core/payload.hpp"
#include "core/sensor_id.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "net/http.hpp"
#include "pusher/pusher.hpp"
#include "store/cluster.hpp"
#include "store/metastore.hpp"
#include "store/node.hpp"

namespace dcdb {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    TempDir() {
        static std::atomic<int> counter{0};
        path_ = fs::temp_directory_path() /
                ("dcdb_failure_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1)));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }
    fs::path path() const { return path_; }

  private:
    fs::path path_;
};

// ------------------------------------------------------- broker failures

TEST(Failure, PusherSurvivesBrokerDeath) {
    auto broker = std::make_unique<mqtt::MqttBroker>(
        mqtt::BrokerMode::kReduced, nullptr);
    auto config = parse_config(
        "global { mqttBroker 127.0.0.1:" +
        std::to_string(broker->port()) +
        " ; topicPrefix /f ; pushInterval 100ms }\n"
        "plugins { tester { group g { sensors 5 ; interval 100ms } } }\n");
    pusher::Pusher pusher(std::move(config));
    pusher.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Kill the broker under the Pusher's feet.
    broker->stop();
    broker.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // Sampling must continue into the local cache; stop() must not hang.
    const auto samples_before = pusher.stats().samples_taken;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_GT(pusher.stats().samples_taken, samples_before);
    EXPECT_TRUE(pusher.cache().latest("/f/tester/g/s0").has_value());
    pusher.stop();
}

TEST(Failure, BrokerSurvivesAbruptClientDisconnect) {
    std::atomic<std::uint64_t> received{0};
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced,
                            [&](const mqtt::Publish&) { received++; });
    {
        // Client vanishes without DISCONNECT (socket torn down).
        TcpStream raw = TcpStream::connect("127.0.0.1", broker.port());
        const auto connect = mqtt::encode(mqtt::Connect{"rude", 60, true});
        raw.write_all(connect);
        std::uint8_t ack[4];
        ASSERT_TRUE(raw.read_exact(ack));
        raw.shutdown_both();
    }
    // Broker still serves new clients afterwards.
    auto client = mqtt::MqttClient::connect_tcp("127.0.0.1", broker.port(),
                                                "polite");
    client->publish("/t", encode_readings({{1, 1}}), 1);
    EXPECT_EQ(received.load(), 1u);
    client->disconnect();
}

TEST(Failure, BrokerRejectsGarbageBytesWithoutDying) {
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr);
    {
        TcpStream raw = TcpStream::connect("127.0.0.1", broker.port());
        const std::uint8_t junk[] = {0xFF, 0xFF, 0x00, 0x13, 0x37, 0x99,
                                     0x00, 0x00, 0x00, 0x00};
        raw.write_all(std::span<const std::uint8_t>(junk, sizeof junk));
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    // Still alive for proper clients.
    auto client = mqtt::MqttClient::connect_tcp("127.0.0.1", broker.port(),
                                                "ok");
    client->ping();
    client->disconnect();
}

TEST(Failure, PublishBeforeConnectIsRejected) {
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr);
    TcpStream raw = TcpStream::connect("127.0.0.1", broker.port());
    mqtt::Publish p;
    p.topic = "/sneaky";
    raw.write_all(mqtt::encode(p));
    // Session must close (EOF on our side) without a broker crash.
    raw.set_recv_timeout_ms(500);
    std::uint8_t buf[8];
    try {
        EXPECT_EQ(raw.read_some(buf), 0u);
    } catch (const NetError&) {
        // timeout also acceptable: session dropped without reply
    }
    EXPECT_EQ(broker.stats().publishes, 0u);
}

TEST(Failure, PusherReconnectsAfterAgentRestart) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;

    // First agent incarnation on an ephemeral port.
    auto agent = std::make_unique<collectagent::CollectAgent>(
        parse_config("global { listenTcp true }"), &cluster, &meta);
    const std::uint16_t port = agent->mqtt_port();

    auto config = parse_config(
        "global { mqttBroker 127.0.0.1:" + std::to_string(port) +
        " ; topicPrefix /rc ; pushInterval 100ms }\n"
        "plugins { tester { group g { sensors 3 ; interval 100ms } } }\n");
    pusher::Pusher pusher(std::move(config));
    pusher.start();
    for (int spin = 0; spin < 100 && agent->stats().readings < 6; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_GE(agent->stats().readings, 6u);

    // Agent dies; Pusher keeps sampling and retries with backoff.
    agent.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_FALSE(pusher.mqtt_connected());

    // Agent returns on the SAME port; Pusher must reconnect and resume
    // delivery, including readings buffered during the outage.
    auto agent2 = std::make_unique<collectagent::CollectAgent>(
        parse_config("global { listenTcp true ; mqttPort " +
                     std::to_string(port) + " }"),
        &cluster, &meta);
    bool recovered = false;
    const auto deadline = steady_ns() + 10 * kNsPerSec;
    while (steady_ns() < deadline) {
        if (agent2->stats().readings >= 6) {
            recovered = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(recovered) << "pusher never reconnected";
    EXPECT_TRUE(pusher.mqtt_connected());
    pusher.stop();
}

TEST(Failure, PendingBufferIsBounded) {
    CacheSet cache(60 * kNsPerSec);
    pusher::SensorBase sensor("s", "/t/s");
    std::uint64_t dropped = 0;
    for (std::uint64_t i = 0; i < SensorCache::kMaxPending + 500; ++i)
        dropped += sensor.store_reading({i + 1, static_cast<Value>(i)}, cache,
                                        kNsPerSec);
    CacheSet::Slot& slot = *sensor.slot();
    EXPECT_EQ(slot.pending(), SensorCache::kMaxPending);
    EXPECT_EQ(dropped, 500u);
    std::vector<Reading> drained;
    std::uint64_t end = 0;
    slot.peek_pending(drained, end);
    // Oldest were dropped: the buffer holds the freshest readings.
    EXPECT_EQ(drained.front().ts, 501u);
    EXPECT_EQ(drained.back().ts, SensorCache::kMaxPending + 500);
}

// -------------------------------------------------------- HTTP failures

TEST(Failure, HttpServerSurvivesMalformedRequests) {
    HttpServer server(0, [](const HttpRequest&) {
        return HttpResponse::ok("fine");
    });
    {
        TcpStream raw = TcpStream::connect("127.0.0.1", server.port());
        raw.write_all(std::string("THIS IS NOT HTTP\r\ngarbage\r\n\r\n"));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    {
        TcpStream raw = TcpStream::connect("127.0.0.1", server.port());
        raw.write_all(std::string("GET /x HTTP/1.1\r\nContent-Length: "
                                  "99999999999999999999\r\n\r\n"));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(http_get("127.0.0.1", server.port(), "/").status, 200);
}

// ------------------------------------------------------- store failures

/// Overwrite an SSTable's footer partition count: the u64 20 bytes
/// before the end (then u64 generation, u32 magic).
void patch_partition_count(const fs::path& table, std::uint64_t count) {
    std::fstream f(table, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(table)) - 20);
    char be[8];
    for (int i = 0; i < 8; ++i)
        be[i] = static_cast<char>(count >> (56 - 8 * i));
    f.write(be, sizeof be);
}

TEST(Failure, NodeQuarantinesCorruptSsTableAndServesTheRest) {
    // The second of two tables goes bad three ways: a torn write (crash
    // during flush/compaction), and a footer partition count of 2 or
    // 2^60 where the table holds 1.
    for (int corruption = 0; corruption < 3; ++corruption) {
        SCOPED_TRACE(corruption);
        TempDir dir;
        store::Key key;
        key.sid[0] = 1;
        {
            store::StorageNode node({dir.str(), 1u << 20, false});
            node.insert(key, 100, 1);
            node.flush();
            node.insert(key, 200, 2);
            node.flush();
        }
        std::vector<fs::path> tables;
        for (const auto& entry : fs::directory_iterator(dir.path())) {
            if (entry.path().extension() == ".db")
                tables.push_back(entry.path());
        }
        ASSERT_EQ(tables.size(), 2u);
        std::sort(tables.begin(), tables.end());
        if (corruption == 0)
            fs::resize_file(tables[1], fs::file_size(tables[1]) / 2);
        else
            patch_partition_count(tables[1], corruption == 1
                                                 ? std::uint64_t{2}
                                                 : std::uint64_t{1} << 60);

        store::StorageNode recovered({dir.str(), 1u << 20, false});
        const auto rows = recovered.query(key, 0, kTimestampMax);
        ASSERT_EQ(rows.size(), 1u) << "intact table must still be served";
        EXPECT_EQ(rows[0].value, 1);
        // The corrupt file is quarantined, not deleted.
        EXPECT_TRUE(fs::exists(tables[1].string() + ".corrupt"));
        // New writes go to a fresh generation without clashing.
        recovered.insert(key, 300, 3);
        recovered.flush();
        EXPECT_EQ(recovered.query(key, 0, kTimestampMax).size(), 2u);
    }
}

void append_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Offset of the last record in a record log: walks the
/// `u32 len | body | u32 crc` frames behind the 8-byte header.
std::uintmax_t last_record_offset(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)), {});
    std::uintmax_t last = 8;
    for (std::uintmax_t off = 8; off + 4 <= bytes.size();) {
        last = off;
        std::uintmax_t len = 0;
        for (int i = 0; i < 4; ++i)
            len = (len << 8) | static_cast<unsigned char>(bytes[off + i]);
        off += 8 + len;
    }
    return last;
}

TEST(Failure, TornMetaStoreTailIsTruncatedSoSidsStayUnique) {
    // What a crash or a bad sector leaves in the file; each tear returns
    // the length of the intact prefix in front of it.
    struct Tear {
        const char* name;
        std::function<std::uintmax_t(const std::string&)> apply;
    };
    const Tear tears[] = {
        {"torn 3-byte record",
         [](const std::string& path) {
             const auto intact = fs::file_size(path);
             append_bytes(path, "\x5A\x5A\x5A");
             return intact;
         }},
        {"64 zero bytes",
         [](const std::string& path) {
             const auto intact = fs::file_size(path);
             append_bytes(path, std::string(64, '\0'));
             return intact;
         }},
        {"one flipped byte in the last record",
         [](const std::string& path) {
             const auto intact = last_record_offset(path);
             std::fstream f(path,
                            std::ios::binary | std::ios::in | std::ios::out);
             f.seekg(-5, std::ios::end);  // the body's last byte
             const char byte = static_cast<char>(f.get());
             f.seekp(-5, std::ios::end);
             f.put(static_cast<char>(byte ^ 0x01));
             return intact;
         }},
    };
    for (const Tear& tear : tears) {
        SCOPED_TRACE(tear.name);
        TempDir dir;
        const std::string path = dir.str() + "/meta.db";
        SensorId temp, fan;
        std::vector<std::pair<std::string, std::string>> before;
        {
            store::MetaStore meta(path);
            TopicMapper mapper(meta);
            temp = mapper.to_sid("/site/rack1/node7/temp");
            before = meta.scan_prefix("");
        }
        const std::uintmax_t intact = tear.apply(path);
        {
            // Nothing of the tear loads, and the file is cut back to its
            // intact prefix, so the records below land right behind it.
            store::MetaStore meta(path);
            EXPECT_EQ(fs::file_size(path), intact);
            for (const auto& entry : meta.scan_prefix("")) {
                EXPECT_NE(std::find(before.begin(), before.end(), entry),
                          before.end())
                    << "loaded from the tear: '" << entry.first << "' = '"
                    << entry.second << "'";
            }
            TopicMapper mapper(meta);
            fan = mapper.to_sid("/site/rack2/node9/fan");
        }
        // Next restart: the dictionary entries written after the tear
        // must still be there, or their SIDs are handed to new topics.
        store::MetaStore meta(path);
        TopicMapper mapper(meta);
        SensorId found;
        ASSERT_TRUE(mapper.lookup("/site/rack2/node9/fan", found))
            << "entries appended after a torn tail were lost";
        EXPECT_EQ(found, fan);
        const SensorId volt = mapper.to_sid("/site/rack3/node1/volt");
        EXPECT_NE(volt, fan) << volt.hex();
        EXPECT_NE(volt, temp) << volt.hex();
        EXPECT_EQ(mapper.to_sid("/site/rack1/node7/temp"), temp);
    }
}

/// While in scope, a write that would grow any file of this process past
/// `bytes` fails with EFBIG (SIGXFSZ ignored), the way a full disk fails
/// it with ENOSPC.
class FileSizeLimit {
  public:
    explicit FileSizeLimit(std::uintmax_t bytes)
        : old_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
        ::getrlimit(RLIMIT_FSIZE, &old_);
        rlimit limit = old_;
        limit.rlim_cur = static_cast<rlim_t>(bytes);
        ::setrlimit(RLIMIT_FSIZE, &limit);
    }
    ~FileSizeLimit() {
        ::setrlimit(RLIMIT_FSIZE, &old_);
        std::signal(SIGXFSZ, old_handler_);
    }

    FileSizeLimit(const FileSizeLimit&) = delete;
    FileSizeLimit& operator=(const FileSizeLimit&) = delete;

  private:
    void (*old_handler_)(int);
    rlimit old_{};
};

// A dictionary write the disk refuses must fail the first sighting: a SID
// served from memory but missing from the file would go to another topic
// after a restart.
TEST(Failure, DictionaryWriteFailureIsNeverServed) {
    TempDir dir;
    const std::string path = dir.str() + "/meta.log";
    std::map<std::string, SensorId> served;  // every SID handed out
    auto sight = [&](TopicMapper& mapper, const std::string& topic) {
        const SensorId sid = mapper.to_sid(topic);
        served.emplace(topic, sid);
        return sid;
    };
    {
        store::MetaStore meta(path);
        TopicMapper mapper(meta);
        const SensorId x = sight(mapper, "/a/x");
        const FileSizeLimit full(fs::file_size(path));
        EXPECT_THROW(sight(mapper, "/a/y"), StoreError);
        SensorId sid;
        EXPECT_FALSE(mapper.lookup("/a/y", sid));
        EXPECT_EQ(mapper.to_sid("/a/x"), x);  // known: no write
    }
    store::MetaStore meta(path);
    TopicMapper mapper(meta);
    EXPECT_EQ(mapper.to_sid("/a/x"), served.at("/a/x"));
    for (const std::string topic : {"/a/w", "/a/y"}) {
        const SensorId sid = mapper.to_sid(topic);
        for (const auto& [other, other_sid] : served) {
            if (other == topic) continue;
            EXPECT_NE(sid, other_sid)
                << topic << " got the SID served for " << other;
        }
    }
}

TEST(Failure, TornCommitLogRecoversPrefix) {
    TempDir dir;
    store::Key key;
    key.sid[0] = 2;
    {
        store::StorageNode node({dir.str(), 1u << 20, true});
        node.insert(key, 1, 10);
        node.insert(key, 2, 20);
    }
    // Torn final record: append half a record.
    {
        std::ofstream log(dir.str() + "/commit.log",
                          std::ios::binary | std::ios::app);
        const char torn[21] = {0};
        log.write(torn, sizeof torn);
    }
    store::StorageNode recovered({dir.str(), 1u << 20, true});
    const auto rows = recovered.query(key, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1].value, 20);
}

TEST(Failure, TornCommitLogTailIsTruncatedAndAppendable) {
    TempDir dir;
    store::Key key;
    key.sid[0] = 3;
    {
        store::StorageNode node({dir.str(), 1u << 20, true});
        node.insert(key, 1, 10);
        node.insert(key, 2, 20);
    }
    const std::string log = dir.str() + "/commit.log";
    const auto intact_bytes = fs::file_size(log);
    {
        // Crash mid-append: garbage tail shorter than one record.
        std::ofstream f(log, std::ios::binary | std::ios::app);
        const char torn[13] = {0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A,
                               0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A};
        f.write(torn, sizeof torn);
    }
    {
        // Reopen: replay recovers the intact prefix AND truncates the
        // tail, so the next append lands where the garbage was.
        store::StorageNode node({dir.str(), 1u << 20, true});
        EXPECT_EQ(fs::file_size(log), intact_bytes);
        ASSERT_EQ(node.query(key, 0, kTimestampMax).size(), 2u);
        node.insert(key, 3, 30);
        // Crash again before any flush.
    }
    store::StorageNode recovered({dir.str(), 1u << 20, true});
    const auto rows = recovered.query(key, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 3u) << "post-truncation append must replay";
    EXPECT_EQ(rows[2].value, 30);
}

// Once a write fails, a partial record may sit on disk, and a record
// appended behind it would be lost at the next replay: both logs refuse
// every later write, even after the disk recovers, until reopened.
TEST(Failure, FailedLogWriteRefusesLaterWritesUntilReopened) {
    TempDir dir;
    const std::string meta_path = dir.str() + "/meta.log";
    {
        store::MetaStore meta(meta_path);
        meta.put("a", "1");
        {
            const FileSizeLimit full(fs::file_size(meta_path));
            EXPECT_THROW(meta.put("b", "2"), StoreError);
        }
        EXPECT_FALSE(meta.contains("b"));
        EXPECT_THROW(meta.put("c", "3"), StoreError);
        EXPECT_THROW(meta.erase("a"), StoreError);
        EXPECT_EQ(meta.get("a"), "1");
    }
    {
        store::MetaStore meta(meta_path);
        EXPECT_EQ(meta.get("a"), "1");
        meta.put("c", "3");
    }
    EXPECT_EQ(store::MetaStore(meta_path).get("c"), "3");

    const std::string log_path = dir.str() + "/commit.log";
    const auto ignore = [](const store::Key&, std::span<const store::Row>) {};
    std::vector<std::uint8_t> record;
    const store::Row row{1, 10, 0};
    const store::Mutation mutation{store::Key{}, {&row, 1}};
    store::CommitLog::encode_record({&mutation, 1}, record);
    {
        store::CommitLog log(log_path, ignore);
        log.append(record, 1);
        {
            const FileSizeLimit full(fs::file_size(log_path));
            EXPECT_THROW(log.append(record, 1), StoreError);
        }
        EXPECT_THROW(log.append(record, 1), StoreError);
        EXPECT_THROW(log.sync(), StoreError);
        EXPECT_THROW(log.reset(), StoreError);
    }
    std::uint64_t replayed = 0;
    store::CommitLog log(log_path, [&](const store::Key&,
                                       std::span<const store::Row> rows) {
        replayed += rows.size();
    });
    log.append(record, 1);
    log.sync();
    EXPECT_EQ(log.records_appended(), replayed + 1);
}

/// The child of KilledWriterKeepsEveryReturnedAppend: `batches` inserts
/// of `rows` rows into a StorageNode with the default sync cadence, each
/// followed by one MetaStore put, and one byte on `report` per returned
/// pair. Then it waits for its SIGKILL.
[[noreturn]] void run_killed_writer(const std::string& dir,
                                    std::size_t batches, std::size_t rows,
                                    int report) {
    try {
        store::StorageNode node({dir});
        store::MetaStore meta(dir + "/meta.log");
        store::Key key;
        key.sid[0] = 4;
        std::vector<store::BatchEntry> batch(rows);
        for (std::size_t b = 0; b < batches; ++b) {
            for (std::size_t r = 0; r < rows; ++r) {
                const TimestampNs ts = b * rows + r + 1;
                batch[r] = {key, ts, static_cast<Value>(ts * 10), 0};
            }
            node.insert_batch(batch);
            meta.put("k" + std::to_string(b), std::to_string(b));
            const char returned = 1;
            if (::write(report, &returned, 1) != 1) ::_exit(1);
        }
        for (;;) ::pause();
    } catch (...) {
        ::_exit(1);
    }
}

// A killed process loses only what it still buffers itself. Every insert
// and put that returned before the SIGKILL must replay: records smaller
// than a stdio buffer (48 B) and larger (10 KB) alike, short of the sync
// cadence (1, 50, 255 rows) and past it (300).
TEST(Failure, KilledWriterKeepsEveryReturnedAppend) {
    struct Case {
        std::size_t batches;
        std::size_t rows;
    };
    for (const Case c : {Case{1, 1}, Case{50, 1}, Case{255, 1}, Case{300, 1},
                         Case{3, 250}}) {
        SCOPED_TRACE(std::to_string(c.batches) + " batches of " +
                     std::to_string(c.rows));
        TempDir dir;
        int report[2];
        ASSERT_EQ(::pipe(report), 0);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(report[0]);
            run_killed_writer(dir.str(), c.batches, c.rows, report[1]);
        }
        ::close(report[1]);
        std::size_t returned = 0;
        char byte = 0;
        while (returned < c.batches) {
            const ssize_t n = ::read(report[0], &byte, 1);
            if (n < 0 && errno == EINTR) continue;
            if (n != 1) break;  // the writer failed
            ++returned;
        }
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        ::close(report[0]);
        ASSERT_EQ(returned, c.batches) << "the writer failed";
        ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

        store::StorageNode node({dir.str()});
        store::Key key;
        key.sid[0] = 4;
        const auto rows = node.query(key, 0, kTimestampMax);
        EXPECT_EQ(rows.size(), c.batches * c.rows);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(rows[i].ts, i + 1);
            EXPECT_EQ(rows[i].value, static_cast<Value>((i + 1) * 10));
        }
        store::MetaStore meta(dir.str() + "/meta.log");
        EXPECT_EQ(meta.size(), c.batches);
        for (std::size_t b = 0; b < c.batches; ++b)
            EXPECT_EQ(meta.get("k" + std::to_string(b)), std::to_string(b));
    }
}

// ------------------------------------------------- collect agent inputs

TEST(Failure, AgentKeepsRunningThroughBadTopicsAndPayloads) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    mqtt::MqttClient client(agent.connect_inproc(), "mixed");
    client.connect();

    client.publish("/ok/s", encode_readings({{1, 1}}), 1);
    // 9 levels: exceeds the SID hierarchy -> decode error, not death.
    client.publish("/a/b/c/d/e/f/g/h/i", encode_readings({{1, 1}}), 1);
    // Payload not a multiple of the record size.
    client.publish("/ok/s2", std::string("12345"), 1);
    client.publish("/ok/s3", encode_readings({{2, 2}}), 1);
    client.disconnect();

    const auto stats = agent.stats();
    EXPECT_EQ(stats.decode_errors, 2u);
    EXPECT_EQ(stats.readings, 2u);
    EXPECT_EQ(agent.query_stored("/ok/s3", 0, kTimestampMax).size(), 1u);
}

// A QoS-1 PUBACK means stored. A publish the store refuses ends its
// session with no PUBACK, so the publisher still holds the readings, and
// its resend on a new session stores each of them once. Its torn tail
// counts as a decode error once, when the resend is stored.
TEST(Failure, AgentLeavesARefusedPublishUnacknowledged) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    auto payload = encode_readings({{1, 1}, {2, 2}});
    payload.insert(payload.end(), {0xAB, 0xCD, 0xEF});
    {
        mqtt::MqttClient client(agent.connect_inproc(), "flaky-store");
        client.connect();
        ScopedFault fault(FaultPoint::kStoreInsert, {.error_prob = 1.0});
        EXPECT_THROW(client.publish("/ok/s", payload, 1), NetError);
        EXPECT_FALSE(client.connected());
    }
    {
        const auto stats = agent.stats();
        EXPECT_EQ(stats.store_errors, 1u);
        EXPECT_EQ(stats.refused, 2u);
        EXPECT_EQ(stats.readings, 0u);
        EXPECT_EQ(stats.decode_errors, 0u);
        EXPECT_EQ(stats.salvaged, 0u);
        EXPECT_TRUE(agent.query_stored("/ok/s", 0, kTimestampMax).empty());
        EXPECT_FALSE(agent.cache().latest("/ok/s").has_value());
    }

    mqtt::MqttClient client(agent.connect_inproc(), "flaky-store");
    client.connect();
    client.publish("/ok/s", payload, 1);
    client.disconnect();

    const auto stats = agent.stats();
    EXPECT_EQ(stats.readings, 2u);
    EXPECT_EQ(stats.refused, 2u);
    EXPECT_EQ(stats.decode_errors, 1u);
    EXPECT_EQ(stats.salvaged, 2u);
    const auto rows = agent.query_stored("/ok/s", 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].ts, 1u);
    EXPECT_EQ(rows[1].ts, 2u);
}

// A first sighting whose dictionary record the disk refuses is a store
// failure, not a decode error: the publish is refused whole, and the
// agent is not ready while the dictionary's log has failed.
TEST(Failure, AgentRefusesAPublishWhoseDictionaryWriteFails) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    const std::string meta_path = dir.str() + "/meta.log";
    store::MetaStore meta(meta_path);
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    mqtt::MqttClient client(agent.connect_inproc(), "full-disk");
    client.connect();
    {
        const FileSizeLimit full(fs::file_size(meta_path));
        EXPECT_THROW(
            client.publish("/new/s", encode_readings({{1, 1}}), 1),
            NetError);
    }

    const auto stats = agent.stats();
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.store_errors, 1u);
    EXPECT_EQ(stats.refused, 1u);
    EXPECT_EQ(stats.readings, 0u);
    SensorId sid;
    EXPECT_FALSE(agent.mapper().lookup("/new/s", sid));
    const Readiness ready = agent.readiness();
    EXPECT_FALSE(ready.ready);
    EXPECT_EQ(ready.reason, "topic dictionary not writable");
}

// After one failed commit-log append the node refuses every insert until
// it is reopened: every later publish goes unacknowledged, even once the
// disk has room again, and the agent reports itself not ready.
TEST(Failure, FailedCommitLogRefusesEveryPublishAndIsNotReady) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 true});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    const std::string log_path = dir.str() + "/node0/commit.log";
    {
        mqtt::MqttClient client(agent.connect_inproc(), "log");
        client.connect();
        client.publish("/ok/s", encode_readings({{1, 1}}), 1);
        EXPECT_TRUE(agent.readiness().ready);
        const FileSizeLimit full(fs::file_size(log_path));
        EXPECT_THROW(client.publish("/ok/s", encode_readings({{2, 2}}), 1),
                     NetError);
    }
    for (TimestampNs ts = 3; ts <= 5; ++ts) {
        mqtt::MqttClient client(agent.connect_inproc(), "log");
        client.connect();
        EXPECT_THROW(client.publish("/ok/s", encode_readings({{ts, 1}}), 1),
                     NetError);
    }

    const auto stats = agent.stats();
    EXPECT_EQ(stats.store_errors, 4u);
    EXPECT_EQ(stats.refused, 4u);
    EXPECT_EQ(stats.readings, 1u);
    const auto rows = agent.query_stored("/ok/s", 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].ts, 1u);
    const Readiness ready = agent.readiness();
    EXPECT_FALSE(ready.ready);
    EXPECT_EQ(ready.reason, "store not writable");
}

// A flush that fails leaves its rows in the memtable, and every insert
// retries it: the node is not ready from the failed flush until one
// succeeds, and the failure is counted.
TEST(Failure, FailedFlushMakesTheNodeNotReadyUntilAFlushSucceeds) {
    TempDir dir;
    telemetry::MetricRegistry registry;
    store::ClusterConfig config{dir.str(), 1, 1, "hierarchy", 64, false};
    config.registry = &registry;
    store::StoreCluster cluster(config);
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    store::StorageNode& node = cluster.node(0);
    const store::Key key{};
    {
        ScopedFault fault(FaultPoint::kStoreFlush,
                          {.error_prob = 1.0, .max_triggers = 1});
        EXPECT_THROW(node.insert(key, 1, 10), StoreError);
    }
    EXPECT_FALSE(node.writable());
    const Readiness ready = agent.readiness();
    EXPECT_FALSE(ready.ready);
    EXPECT_EQ(ready.reason, "store not writable");
    EXPECT_EQ(registry.counter("store.node0.flush.errors").value(), 1u);

    node.insert(key, 2, 20);  // flushes both rows
    EXPECT_TRUE(node.writable());
    EXPECT_TRUE(agent.readiness().ready);
    EXPECT_EQ(node.stats().memtable_rows, 0u);
    EXPECT_EQ(node.query(key, 0, kTimestampMax).size(), 2u);
}

TEST(Failure, AgentRefusesWholeBatchAtomicallyAndRecovers) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    {
        mqtt::MqttClient client(agent.connect_inproc(), "dead-store");
        client.connect();
        ScopedFault fault(FaultPoint::kStoreInsert,
                          {.error_prob = 1.0, .max_triggers = 1});
        EXPECT_THROW(client.publish("/ok/s",
                                    encode_readings({{1, 1}, {2, 2}, {3, 3},
                                                     {4, 4}, {5, 5}}),
                                    1),
                     NetError);
    }

    // The batch is the unit of work: it lands atomically or every
    // reading in it is refused — refused stays a count of READINGS,
    // never a count of batches.
    {
        const auto stats = agent.stats();
        EXPECT_EQ(stats.refused, 5u);
        EXPECT_EQ(stats.store_errors, 1u);
        EXPECT_EQ(stats.readings, 0u);
        EXPECT_TRUE(agent.query_stored("/ok/s", 0, kTimestampMax).empty());
        EXPECT_FALSE(agent.cache().latest("/ok/s").has_value());
    }

    // A refused batch must not wedge the pipeline: the next message, on
    // a new session (fault budget exhausted), persists fully.
    mqtt::MqttClient client(agent.connect_inproc(), "dead-store");
    client.connect();
    client.publish("/ok/s", encode_readings({{6, 6}, {7, 7}}), 1);
    client.disconnect();

    const auto stats = agent.stats();
    EXPECT_EQ(stats.refused, 5u);
    EXPECT_EQ(stats.readings, 2u);
    const auto rows = agent.query_stored("/ok/s", 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].ts, 6u);
    ASSERT_TRUE(agent.cache().latest("/ok/s").has_value());
    EXPECT_EQ(agent.cache().latest("/ok/s")->ts, 7u);
}

// A first sighting joins the hierarchy and the agent's sensor index only
// once its batch is stored. A refused first batch keeps its SID
// reserved in the dictionary but serves no cached reading, adds no tree
// leaf and is not a known sensor; the next stored batch, in another
// spelling and through ingest, indexes it under that same SID.
TEST(Failure, RefusedFirstSightingIsIndexedOnlyOnceStored) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false }"), &cluster, &meta);
    mqtt::MqttClient client(agent.connect_inproc(), "first-sighting");
    client.connect();
    {
        ScopedFault fault(FaultPoint::kStoreInsert,
                          {.error_prob = 1.0, .max_triggers = 1});
        EXPECT_THROW(
            client.publish("/first/s", encode_readings({{1, 1}, {2, 2}}), 1),
            NetError);
    }

    SensorId reserved;
    ASSERT_TRUE(agent.mapper().lookup("/first/s", reserved));
    EXPECT_EQ(agent.stats().refused, 2u);
    EXPECT_EQ(agent.stats().known_sensors, 0u);
    EXPECT_EQ(agent.cache().sensor_count(), 0u);
    EXPECT_FALSE(agent.cache().latest("/first/s").has_value());
    EXPECT_FALSE(agent.hierarchy().is_sensor("/first/s"));

    agent.ingest("first//s/", {3, 3});
    EXPECT_EQ(agent.stats().known_sensors, 1u);
    EXPECT_TRUE(agent.hierarchy().is_sensor("/first/s"));
    EXPECT_EQ(agent.cache().topics(), std::vector<std::string>{"/first/s"});
    ASSERT_TRUE(agent.cache().latest("/first/s").has_value());
    EXPECT_EQ(agent.cache().latest("/first/s")->ts, 3u);
    SensorId sid;
    ASSERT_TRUE(agent.mapper().lookup("/first/s", sid));
    EXPECT_EQ(sid, reserved);
    const auto rows = agent.query_stored("/first/s", 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].ts, 3u);
}

// --------------------------------------------- pusher delivery pipeline

TEST(Failure, PusherPendingRingBoundsLossAndDrainsOnRecovery) {
    constexpr std::uint64_t kReads = 5000;
    constexpr std::uint64_t kCap = SensorCache::kMaxPending;
    std::atomic<std::uint64_t> received{0};
    mqtt::MqttBroker broker(
        mqtt::BrokerMode::kReduced, [&](const mqtt::Publish& p) {
            BatchPayloadView view;
            decode_batch(p.payload, view);
            received.fetch_add(view.total_readings);
        });
    auto config = parse_config(
        "global { topicPrefix /rq ; qos 1 }\n"
        "plugins { tester { group g { sensors 1 ; interval 1s } } }\n");
    pusher::Pusher pusher(std::move(config), broker.connect_inproc());
    pusher::SensorGroup& group = *pusher.plugins().front()->groups().front();

    {
        // Network down for every publish: the readings stay in the
        // sensor's ring, whose cap overwrites the oldest (counted,
        // never silent).
        ScopedFault fault(FaultPoint::kMqttSend, FaultSpec{.error_prob = 1.0});
        for (TimestampNs i = 1; i <= kReads; ++i) {
            group.read_all(i * kNsPerSec, &pusher.cache());
            if (i % 500 == 0) pusher.push_now();
        }
        const auto mid = pusher.stats();
        EXPECT_EQ(mid.publish_failures, kReads / 500);
        EXPECT_EQ(mid.readings_pushed, 0u);
        EXPECT_EQ(mid.readings_dropped, kReads - kCap);
    }

    // Network heals: one round delivers the freshest kCap readings.
    pusher.push_now();
    const auto s = pusher.stats();
    EXPECT_EQ(s.readings_pushed, kCap);
    EXPECT_EQ(group.sensors().front()->slot()->pending(), 0u);
    // Zero-loss ledger: every sampled reading was either delivered to
    // the broker or counted as dropped at the ring's cap. (QoS 1 means
    // the broker sink ran before each publish returned.)
    EXPECT_EQ(received.load(), s.readings_pushed);
    EXPECT_EQ(s.readings_pushed + s.readings_dropped, kReads);
}

// An agent that accepts sessions but refuses every publish (a failed
// commit log, /readyz 503) is redialled on the backoff, not every round:
// a handshake advances the backoff as a failed attempt does, and only a
// round that published resets it.
TEST(Failure, PusherBacksOffFromAnAgentThatRefusesEveryPublish) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp true }"), &cluster, &meta);
    ScopedFault fault(FaultPoint::kStoreInsert, {.error_prob = 1.0});
    pusher::Pusher pusher(parse_config(
        "global { mqttBroker 127.0.0.1:" + std::to_string(agent.mqtt_port()) +
        " ; topicPrefix /refuse ; qos 1 ; reconnectBackoffMin 5s }\n"
        "plugins { tester { group g { sensors 3 ; interval 1s } } }\n"));
    pusher::SensorGroup& group = *pusher.plugins().front()->groups().front();
    for (TimestampNs i = 1; i <= 5; ++i)
        group.read_all(i * kNsPerSec, &pusher.cache());
    for (int round = 0; round < 20; ++round) pusher.push_now();

    const auto ps = pusher.stats();
    EXPECT_LE(ps.reconnects, 1u);
    EXPECT_EQ(ps.readings_pushed, 0u);
    EXPECT_EQ(ps.readings_pending, 15u);
    const auto as = agent.stats();
    EXPECT_LE(as.store_errors, 2u);
    EXPECT_EQ(as.readings, 0u);
}

// An orderly shutdown delivers the backlog through a refused flush: the
// refusal ends the flush's session, and the flush reconnects on the
// backoff and sends the readings again.
TEST(Failure, StopDeliversTheBacklogThroughARefusedFlush) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp true }"), &cluster, &meta);
    // No push round runs before stop(): the flush carries every reading.
    pusher::Pusher pusher(parse_config(
        "global { mqttBroker 127.0.0.1:" + std::to_string(agent.mqtt_port()) +
        " ; topicPrefix /flush ; pushInterval 1h ; qos 1 }\n"
        "plugins { tester { group g { sensors 3 ; interval 20ms } } }\n"));
    pusher.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    {
        ScopedFault fault(FaultPoint::kStoreInsert,
                          {.error_prob = 1.0, .max_triggers = 1});
        pusher.stop();
    }

    const auto ps = pusher.stats();
    EXPECT_EQ(ps.readings_pending, 0u);
    EXPECT_EQ(ps.readings_dropped, 0u);
    EXPECT_EQ(ps.reconnects, 1u);
    EXPECT_EQ(agent.stats().store_errors, 1u);
    for (int i = 0; i < 3; ++i) {
        const std::string topic = "/flush/tester/g/s" + std::to_string(i);
        const auto sampled = pusher.cache().view(topic, 0, kTimestampMax);
        const auto stored = agent.query_stored(topic, 0, kTimestampMax);
        ASSERT_FALSE(sampled.empty()) << topic;
        ASSERT_EQ(stored.size(), sampled.size()) << topic;
        for (std::size_t k = 0; k < sampled.size(); ++k)
            EXPECT_EQ(stored[k].ts, sampled[k].ts) << topic << " #" << k;
    }
}

TEST(Failure, EndToEndNoLossThroughAgentRestartAndStoreFaults) {
    TempDir dir;
    store::StoreCluster cluster({dir.str(), 1, 1, "hierarchy", 1u << 20,
                                 false});
    store::MetaStore meta;
    const std::string agent_conf = "global { listenTcp true";

    auto agent = std::make_unique<collectagent::CollectAgent>(
        parse_config(agent_conf + " }"), &cluster, &meta);
    const std::uint16_t port = agent->mqtt_port();

    // ~10% of store inserts fail transiently for the whole run, the
    // orderly shutdown included; the Pusher's resends of the
    // unacknowledged publishes must absorb every one.
    std::optional<ScopedFault> store_fault;
    store_fault.emplace(FaultPoint::kStoreInsert,
                        FaultSpec{.error_prob = 0.1});

    auto config = parse_config(
        "global { mqttBroker 127.0.0.1:" + std::to_string(port) +
        " ; topicPrefix /e2e ; pushInterval 50ms ; qos 1 ;\n"
        "  reconnectBackoffMin 20ms ; reconnectBackoffMax 100ms }\n"
        "plugins { tester { group g { sensors 3 ; interval 25ms } } }\n");
    pusher::Pusher pusher(std::move(config));
    pusher.start();
    for (int spin = 0; spin < 200 && agent->stats().readings < 12; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_GE(agent->stats().readings, 12u);

    {
        // Fail one full push round, so its readings must stay pending
        // and go out again later.
        ScopedFault send_fault(FaultPoint::kMqttSend,
                               {.error_prob = 1.0, .max_triggers = 3});
        const auto failure_deadline = steady_ns() + 10 * kNsPerSec;
        while (steady_ns() < failure_deadline &&
               pusher.stats().publish_failures == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_GT(pusher.stats().publish_failures, 0u);
    }

    // Broker killed mid-run; Pusher keeps sampling and backs off.
    agent.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Broker returns on the same port, backed by the same store.
    auto agent2 = std::make_unique<collectagent::CollectAgent>(
        parse_config(agent_conf + " ; mqttPort " + std::to_string(port) +
                     " }"),
        &cluster, &meta);

    // Let the pusher reconnect, replay its backlog, and keep sampling
    // for a while under the 10% store-fault regime.
    // The store fault rolls once per BATCH (the batch is the unit of
    // work), so also wait until it demonstrably fired.
    const auto run_deadline = steady_ns() + 20 * kNsPerSec;
    while (steady_ns() < run_deadline &&
           (agent2->stats().readings < 60 ||
            agent2->stats().store_errors == 0 ||
            !pusher.mqtt_connected()))
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(pusher.mqtt_connected()) << "pusher never reconnected";

    // Orderly shutdown flushes every remaining pending reading (QoS 1:
    // each publish returns only once the agent stored it). A flush the
    // store refuses reconnects and sends again.
    pusher.stop();
    store_fault.reset();

    const auto ps = pusher.stats();
    EXPECT_GT(ps.publish_failures, 0u);
    EXPECT_GE(ps.reconnects, 1u);
    EXPECT_GE(ps.reconnect_failures, 1u);
    EXPECT_EQ(ps.readings_dropped, 0u);
    EXPECT_EQ(ps.readings_pending, 0u);

    const auto as = agent2->stats();
    EXPECT_GT(as.store_errors, 0u) << "fault injection never fired";

    // 100% delivery, by count and content: every reading the Pusher ever
    // sampled (== its cache, window 2m >> test length) must be in the
    // store exactly once.
    std::uint64_t total = 0;
    for (int i = 0; i < 3; ++i) {
        const std::string topic = "/e2e/tester/g/s" + std::to_string(i);
        const auto sampled = pusher.cache().view(topic, 0, kTimestampMax);
        const auto stored = agent2->query_stored(topic, 0, kTimestampMax);
        ASSERT_EQ(stored.size(), sampled.size()) << topic;
        for (std::size_t k = 0; k < sampled.size(); ++k) {
            EXPECT_EQ(stored[k].ts, sampled[k].ts) << topic << " #" << k;
            EXPECT_EQ(stored[k].value, sampled[k].value)
                << topic << " #" << k;
        }
        total += sampled.size();
    }
    EXPECT_GT(total, 0u);
}

// ----------------------------------------------------- plugin resilience

TEST(Failure, PusherKeepsSamplingWhenDataSourceVanishes) {
    TempDir dir;
    const std::string path = dir.str() + "/value";
    {
        std::ofstream f(path);
        f << "42\n";
    }
    auto config = parse_config(
        "global { topicPrefix /f ; threads 1 }\n"
        "plugins { sysfs { group g {\n"
        "  interval 50ms\n"
        "  sensor v { path \"" + path + "\" }\n"
        "} } }\n");
    pusher::Pusher pusher(std::move(config));
    pusher.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(pusher.cache().latest("/f/sysfs/g/v").has_value());

    fs::remove(path);  // device driver unloaded / file gone
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    // No crash; sampler still alive. Restore the file: data flows again.
    {
        std::ofstream f(path);
        f << "77\n";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(pusher.cache().latest("/f/sysfs/g/v")->value, 77);
    pusher.stop();
}

// ------------------------------------------------- storage crash windows

TEST(Failure, FlushCrashBeforeCommitLogResetLosesNothing) {
    TempDir dir;
    store::NodeConfig config;
    config.data_dir = dir.str();
    config.commitlog_sync_every = 1;  // every append durable immediately
    store::Key key;
    key.sid[0] = 1;
    {
        store::StorageNode node(config);
        for (TimestampNs ts = 1; ts <= 50; ++ts)
            node.insert(key, ts, static_cast<Value>(ts));
        // Crash exactly inside the durability window: the SSTable is
        // durably published (fsync -> rename -> dir fsync) but the commit
        // log has not been reset yet.
        ScopedFault fault(FaultPoint::kStoreFlush, {.error_prob = 1.0});
        EXPECT_THROW(node.flush(), StoreError);
    }  // destructor without cleanup = the rest of the "crash"

    // Recovery sees the rows twice (SSTable + commit-log replay into the
    // memtable); the query's newest-wins merge returns each exactly once.
    store::StorageNode recovered(config);
    const auto rows = recovered.query(key, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 50u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].ts, static_cast<TimestampNs>(i + 1));
        EXPECT_EQ(rows[i].value, static_cast<Value>(i + 1));
    }
    // A second reopen after the recovered node flushes normally must
    // still hold exactly one copy.
    recovered.flush();
    EXPECT_EQ(recovered.query(key, 0, kTimestampMax).size(), 50u);
}

TEST(Failure, CompactionErrorLeavesNodeServingAndRetryable) {
    TempDir dir;
    store::NodeConfig config;
    config.data_dir = dir.str();
    config.commitlog_enabled = false;
    store::Key key;
    key.sid[0] = 1;
    store::StorageNode node(config);
    node.insert(key, 100, 1);
    node.flush();
    node.insert(key, 100, 2);
    node.flush();
    {
        // The merge phase dies (disk error mid-compaction).
        ScopedFault fault(FaultPoint::kStoreCompact, {.error_prob = 1.0});
        EXPECT_THROW(node.compact(), StoreError);
    }
    // The table set is untouched and queries keep working...
    EXPECT_EQ(node.stats().sstables, 2u);
    auto rows = node.query(key, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 2);
    // ...and the next compaction succeeds.
    node.compact();
    EXPECT_EQ(node.stats().sstables, 1u);
    rows = node.query(key, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 2);
}

// A failed background round must not end the process: the maintenance
// thread logs and counts it, the node keeps serving, and a later round
// merges the tier.
TEST(Failure, MaintenanceThreadSurvivesAFailedRound) {
    TempDir dir;
    telemetry::MetricRegistry registry;
    store::ClusterConfig config;
    config.base_dir = dir.str();
    config.commitlog_enabled = false;
    config.registry = &registry;
    store::StoreCluster cluster(config);
    store::StorageNode& node = cluster.node(0);
    store::Key key;
    key.sid[0] = 1;
    for (TimestampNs ts = 1; ts <= 400; ++ts) {
        node.insert(key, ts, static_cast<Value>(ts * 10));
        if (ts % 100 == 0) node.flush();
    }
    ASSERT_EQ(node.stats().sstables, 4u);
    {
        ScopedFault fault(FaultPoint::kStoreCompact,
                          {.error_prob = 1.0, .max_triggers = 1});
        cluster.start_maintenance(std::chrono::milliseconds(5));
        const auto deadline = steady_ns() + 10 * kNsPerSec;
        while (steady_ns() < deadline && node.stats().sstables != 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_EQ(fault.injected(), 1u);
    }
    EXPECT_TRUE(cluster.maintenance_running());
    cluster.stop_maintenance();

    EXPECT_EQ(node.stats().sstables, 1u);
    EXPECT_EQ(registry.counter("store.cluster.maintenance.errors").value(),
              1u);
    const auto rows = node.query(key, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 400u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].ts, i + 1);
        EXPECT_EQ(rows[i].value, static_cast<Value>((i + 1) * 10));
    }
}

}  // namespace
}  // namespace dcdb
