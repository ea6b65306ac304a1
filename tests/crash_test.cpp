// Kill -9 drill through the Collect Agent.
//
// The test binary re-executes itself as the agent child: a StoreCluster,
// a MetaStore and a CollectAgent on one data directory, serving MQTT on
// an ephemeral port until it is killed. The parent publishes QoS-1
// readings, SIGKILLs the child after a seeded number of PUBACKs and
// restarts it on the same directory, life after life. A PUBACK says the
// readings are stored: each must come back after every kill, once, with
// its value, under the SID its topic got in its first life.
#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectagent/collect_agent.hpp"
#include "common/config.hpp"
#include "common/random.hpp"
#include "core/payload.hpp"
#include "core/sensor_id.hpp"
#include "mqtt/client.hpp"
#include "store/cluster.hpp"
#include "store/metastore.hpp"

extern char** environ;

namespace dcdb {
namespace {

namespace fs = std::filesystem;

constexpr const char* kAgentChildFlag = "--crash-agent-child";

/// The child's store: the commit log at its default sync cadence, and a
/// small memtable, so that flushes and log resets happen mid-drill.
store::ClusterConfig child_store(const std::string& dir) {
    return {dir, 1, 1, "hierarchy", 256u << 10};
}

/// The agent child: print the MQTT port on stdout, then serve until
/// killed.
int agent_child(const std::string& dir) {
    try {
        store::StoreCluster cluster(child_store(dir));
        store::MetaStore meta(dir + "/meta.log");
        collectagent::CollectAgent agent(
            parse_config("global { listenTcp true }"), &cluster, &meta);
        std::printf("%u\n", static_cast<unsigned>(agent.mqtt_port()));
        std::fflush(stdout);
        for (;;) ::pause();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crash agent child: %s\n", e.what());
        return 1;
    }
}

class TempDir {
  public:
    TempDir() {
        static std::atomic<int> counter{0};
        path_ = fs::temp_directory_path() /
                ("dcdb_crash_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1)));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/// One life of the agent child, SIGKILLed at the latest when it goes out
/// of scope.
class AgentChild {
  public:
    explicit AgentChild(const std::string& dir) {
        int out[2];
        if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&actions, out[0]);
        const char* self = "/proc/self/exe";
        const char* argv[] = {self, kAgentChildFlag, dir.c_str(), nullptr};
        const int rc = posix_spawn(&pid_, self, &actions, nullptr,
                                   const_cast<char**>(argv), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(out[1]);
        if (rc != 0) {
            ::close(out[0]);
            throw std::runtime_error("cannot spawn the agent child");
        }
        std::string line;
        char c = 0;
        for (;;) {
            const ssize_t n = ::read(out[0], &c, 1);
            if (n < 0 && errno == EINTR) continue;
            if (n != 1 || c == '\n') break;
            line.push_back(c);
        }
        ::close(out[0]);
        port_ = static_cast<std::uint16_t>(std::atoi(line.c_str()));
        if (port_ == 0) {
            kill();
            throw std::runtime_error("the agent child reported no port");
        }
    }
    ~AgentChild() { kill(); }

    AgentChild(const AgentChild&) = delete;
    AgentChild& operator=(const AgentChild&) = delete;

    std::uint16_t port() const { return port_; }

    /// SIGKILL the child and reap it.
    void kill() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }

  private:
    pid_t pid_{-1};
    std::uint16_t port_{0};
};

/// A reading's value names its topic and its timestamp, so a reading
/// stored under another sensor, or at another time, shows.
Value reading_value(std::size_t topic, TimestampNs ts) {
    return static_cast<Value>((static_cast<std::uint64_t>(topic) << 32) | ts);
}

constexpr std::uint64_t kSeed = 20191117;
constexpr int kLives = 24;
constexpr std::size_t kFirstTopics = 8;
constexpr std::size_t kTopicsPerLife = 4;
constexpr std::size_t kBatchSections = 250;

TEST(Crash, KilledAgentKeepsEveryAcknowledgedReading) {
    TempDir dir;
    Rng rng(kSeed);
    std::vector<std::string> topics;
    std::vector<TimestampNs> last_ts;  // per topic: its newest reading
    // Every acknowledged reading, per topic, by timestamp.
    std::vector<std::set<TimestampNs>> acked;
    std::map<std::string, std::string> first_sid;  // topic -> SID hex
    const auto add_topics = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            topics.push_back("/crash/r" + std::to_string(topics.size() % 3) +
                             "/n" + std::to_string(topics.size()) + "/power");
            last_ts.push_back(0);
            acked.emplace_back();
        }
    };
    add_topics(kFirstTopics);

    std::vector<Reading> section_readings(kBatchSections);
    std::vector<std::size_t> section_topics(kBatchSections);
    std::vector<SensorBatch> sections(kBatchSections);
    std::uint64_t pubacks = 0;
    for (int life = 0; life < kLives; ++life) {
        SCOPED_TRACE("life " + std::to_string(life));
        AgentChild agent(dir.str());
        auto client = mqtt::MqttClient::connect_tcp(
            "127.0.0.1", agent.port(), "crash-drill");
        const std::size_t life_acks = 16 + rng.below(32);
        for (std::size_t a = 0; a < life_acks; ++a) {
            // New topics join halfway, so first sightings happen mid-life.
            if (a == life_acks / 2) add_topics(kTopicsPerLife);
            if (rng.below(4) == 0) {
                // A v1 batch: one 10 KB commit-log record.
                for (std::size_t s = 0; s < kBatchSections; ++s) {
                    const std::size_t t = rng.below(topics.size());
                    const TimestampNs ts = ++last_ts[t];
                    section_topics[s] = t;
                    section_readings[s] = {ts, reading_value(t, ts)};
                    sections[s] = {topics[t], {&section_readings[s], 1}};
                }
                client->publish("/crash/batch", encode_batch(sections), 1);
                for (std::size_t s = 0; s < kBatchSections; ++s)
                    acked[section_topics[s]].insert(section_readings[s].ts);
            } else {
                // A v0 single reading: one 48-byte commit-log record.
                const std::size_t t = rng.below(topics.size());
                const TimestampNs ts = ++last_ts[t];
                client->publish(topics[t],
                                encode_readings({{ts, reading_value(t, ts)}}),
                                1);
                acked[t].insert(ts);
            }
            ++pubacks;
        }
        agent.kill();
        client.reset();

        // Between lives: each acknowledged topic is in the dictionary,
        // under a SID of its own, the one of its first life.
        store::MetaStore meta(dir.str() + "/meta.log");
        TopicMapper mapper(meta);
        std::set<std::string> distinct;
        for (std::size_t t = 0; t < topics.size(); ++t) {
            if (acked[t].empty()) continue;
            SensorId sid;
            ASSERT_TRUE(mapper.lookup(topics[t], sid)) << topics[t];
            const auto first = first_sid.emplace(topics[t], sid.hex()).first;
            EXPECT_EQ(sid.hex(), first->second) << topics[t];
            EXPECT_TRUE(distinct.insert(sid.hex()).second) << topics[t];
        }
    }
    EXPECT_GE(pubacks, static_cast<std::uint64_t>(kLives) * 16);

    store::StoreCluster cluster(child_store(dir.str()));
    store::MetaStore meta(dir.str() + "/meta.log");
    TopicMapper mapper(meta);
    std::uint64_t lost = 0;
    std::uint64_t misplaced = 0;
    std::uint64_t acknowledged = 0;
    for (std::size_t t = 0; t < topics.size(); ++t) {
        acknowledged += acked[t].size();
        SensorId sid;
        if (!mapper.lookup(topics[t], sid)) {
            lost += acked[t].size();
            continue;
        }
        std::set<TimestampNs> stored;
        for (const auto& row :
             cluster.query(sensor_key(sid, 0), 0, kBucketWidthNs - 1)) {
            if (row.value != reading_value(t, row.ts) ||
                !stored.insert(row.ts).second)
                ++misplaced;
        }
        for (const TimestampNs ts : acked[t])
            if (!stored.contains(ts)) ++lost;
    }
    EXPECT_EQ(lost, 0u) << "of " << acknowledged
                        << " acknowledged readings, lost over " << kLives
                        << " kills";
    EXPECT_EQ(misplaced, 0u) << "stored readings with a wrong value";
}

}  // namespace
}  // namespace dcdb

int main(int argc, char** argv) {
    if (argc == 3 && std::strcmp(argv[1], dcdb::kAgentChildFlag) == 0)
        return dcdb::agent_child(argv[2]);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
