// Tests for the Pusher framework: sensors, groups, the sampler's aligned
// scheduling, the MQTT push path, the REST API and plugin lifecycle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "common/fault.hpp"
#include "core/payload.hpp"
#include "mqtt/broker.hpp"
#include "net/http.hpp"
#include "pusher/pusher.hpp"
#include "pusher/sampler.hpp"
#include "pusher/sensor_base.hpp"
#include "pusher/sensor_group.hpp"

namespace dcdb::pusher {
namespace {

TEST(SensorBase, TopicIsNormalized) {
    SensorBase s("power", "node0//power/");
    EXPECT_EQ(s.topic(), "/node0/power");
}

/// Peek a sensor's pending readings and release them all.
std::vector<Reading> drain(const SensorBase& s) {
    std::vector<Reading> out;
    std::uint64_t end = 0;
    if (CacheSet::Slot* slot = s.slot()) {
        slot->peek_pending(out, end);
        slot->release_pending(end);
    }
    return out;
}

std::size_t pending(const SensorBase& s) {
    return s.slot() ? s.slot()->pending() : 0;
}

TEST(SensorBase, PendingAccumulatesAndDrains) {
    CacheSet cache(60 * kNsPerSec);
    SensorBase s("x", "/t/x");
    s.store_reading({1, 10}, cache, kNsPerSec);
    s.store_reading({2, 20}, cache, kNsPerSec);
    EXPECT_EQ(pending(s), 2u);
    const auto drained = drain(s);
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[1].value, 20);
    EXPECT_EQ(pending(s), 0u);
    // Released readings stay cached while inside the window.
    ASSERT_TRUE(s.slot()->latest().has_value());
    EXPECT_EQ(s.slot()->latest()->value, 20);
    EXPECT_EQ(cache.view("/t/x", 0, kTimestampMax).size(), 2u);
}

TEST(SensorBase, DeltaModePublishesDifferences) {
    CacheSet cache(60 * kNsPerSec);
    SensorBase s("ctr", "/t/ctr");
    s.set_delta(true);
    s.store_reading({1, 1000}, cache, kNsPerSec);  // baseline, swallowed
    s.store_reading({2, 1500}, cache, kNsPerSec);
    s.store_reading({3, 1800}, cache, kNsPerSec);
    const auto drained = drain(s);
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].value, 500);
    EXPECT_EQ(drained[1].value, 300);
}

TEST(SensorBase, ReadingsMirroredIntoCache) {
    CacheSet cache(60 * kNsPerSec);
    SensorBase s("x", "/t/x");
    s.store_reading({5, 55}, cache, kNsPerSec);
    ASSERT_TRUE(cache.latest("/t/x").has_value());
    EXPECT_EQ(cache.latest("/t/x")->value, 55);
    EXPECT_EQ(s.slot(), &cache.slot("/t/x"));
}

TEST(SensorBase, RingLivesInTheFirstSetItIsReadInto) {
    CacheSet first(60 * kNsPerSec);
    CacheSet second(60 * kNsPerSec);
    SensorBase s("x", "/t/x");
    EXPECT_EQ(s.slot(), nullptr) << "resolved on the first reading";
    s.store_reading({1, 10}, first, kNsPerSec);
    s.store_reading({2, 20}, second, kNsPerSec);
    EXPECT_EQ(s.slot(), &first.slot("/t/x"));
    EXPECT_EQ(first.view("/t/x", 0, kTimestampMax).size(), 2u);
    EXPECT_EQ(first.pending(), 2u);
    EXPECT_EQ(second.sensor_count(), 0u);
    EXPECT_EQ(second.pending(), 0u);
    // A sensor rebuilt under the same topic continues the same ring.
    SensorBase rebuilt("x", "//t/x/");
    rebuilt.store_reading({3, 30}, first, kNsPerSec);
    EXPECT_EQ(rebuilt.slot(), s.slot());
    const auto drained = drain(rebuilt);
    ASSERT_EQ(drained.size(), 3u);
    EXPECT_EQ(drained.front().value, 10);
    EXPECT_EQ(drained.back().value, 30);
}

TEST(SensorBase, FullPendingRingDropsOldestInOrder) {
    constexpr std::size_t kCap = SensorCache::kMaxPending;
    CacheSet cache(60 * kNsPerSec);
    SensorBase s("x", "/t/x");
    std::size_t dropped = 0;
    for (std::size_t i = 1; i <= 3 * kCap; ++i)
        dropped += s.store_reading({i, static_cast<Value>(i)}, cache,
                                   kNsPerSec);
    EXPECT_EQ(pending(s), kCap);
    EXPECT_EQ(dropped, 2 * kCap);
    const auto drained = drain(s);
    ASSERT_EQ(drained.size(), kCap);
    for (std::size_t i = 0; i < kCap; ++i)
        ASSERT_EQ(drained[i].ts, 2 * kCap + 1 + i) << "at " << i;
    EXPECT_EQ(pending(s), 0u);
}

TEST(SensorBase, DrainAppendsAndTheRingIsReused) {
    CacheSet cache(60 * kNsPerSec);
    SensorBase s("x", "/t/x");
    std::vector<Reading> out = {{1, 1}};
    std::uint64_t end = 0;
    std::size_t dropped = 0;
    for (TimestampNs round = 0; round < 5; ++round) {
        // Wrap the ring: three readings per round.
        for (TimestampNs i = 0; i < 3; ++i)
            dropped += s.store_reading({10 * round + i, 0}, cache, kNsPerSec);
        out.resize(1);
        EXPECT_EQ(s.slot()->peek_pending(out, end), 3u);
        ASSERT_EQ(out.size(), 4u);
        EXPECT_EQ(out[0].ts, 1u);
        for (TimestampNs i = 0; i < 3; ++i)
            EXPECT_EQ(out[1 + i].ts, 10 * round + i);
        EXPECT_EQ(pending(s), 3u) << "a peek keeps the readings";
        EXPECT_EQ(s.slot()->release_pending(end), 3u);
        EXPECT_EQ(s.slot()->release_pending(end), 0u) << "released once";
    }
    EXPECT_EQ(s.slot()->peek_pending(out, end), 0u);
    EXPECT_EQ(dropped, 0u);
}

TEST(SensorBase, ReleaseSkipsWhatTheCapOverwroteSinceThePeek) {
    constexpr std::size_t kCap = SensorCache::kMaxPending;
    CacheSet cache(60 * kNsPerSec);
    SensorBase s("x", "/t/x");
    for (std::size_t i = 1; i <= kCap; ++i)
        s.store_reading({i, 0}, cache, kNsPerSec);
    std::vector<Reading> peeked;
    std::uint64_t end = 0;
    ASSERT_EQ(s.slot()->peek_pending(peeked, end), kCap);
    // Ten fresher readings overwrite the ten oldest peeked ones.
    for (std::size_t i = kCap + 1; i <= kCap + 10; ++i)
        EXPECT_TRUE(s.store_reading({i, 0}, cache, kNsPerSec));
    EXPECT_EQ(s.slot()->release_pending(end), kCap - 10);
    const auto rest = drain(s);
    ASSERT_EQ(rest.size(), 10u);
    EXPECT_EQ(rest.front().ts, kCap + 1);
    EXPECT_EQ(rest.back().ts, kCap + 10);
}

namespace {

class CountingGroup final : public SensorGroup {
  public:
    CountingGroup(std::string name, TimestampNs interval)
        : SensorGroup(std::move(name), interval) {}

    std::vector<TimestampNs> timestamps;

  protected:
    bool do_read(TimestampNs ts, std::vector<Value>& out) override {
        timestamps.push_back(ts);
        for (auto& v : out) v = static_cast<Value>(ts);
        return true;
    }
};

class FailingGroup final : public SensorGroup {
  public:
    using SensorGroup::SensorGroup;

  protected:
    bool do_read(TimestampNs, std::vector<Value>&) override {
        throw std::runtime_error("backend unavailable");
    }
};

}  // namespace

TEST(SensorGroup, ReadAllStampsAllSensorsIdentically) {
    CacheSet cache(60 * kNsPerSec);
    CountingGroup group("g", kNsPerSec);
    group.add_sensor(std::make_unique<SensorBase>("a", "/t/a"));
    group.add_sensor(std::make_unique<SensorBase>("b", "/t/b"));
    group.read_all(42, &cache);
    EXPECT_EQ(cache.latest("/t/a")->ts, 42u);
    EXPECT_EQ(cache.latest("/t/b")->ts, 42u);
    EXPECT_EQ(group.reads_performed(), 1u);
}

TEST(SensorGroup, DisabledGroupSkipsReads) {
    CacheSet cache(60 * kNsPerSec);
    CountingGroup group("g", kNsPerSec);
    group.add_sensor(std::make_unique<SensorBase>("a", "/t/a"));
    group.set_enabled(false);
    group.read_all(42, &cache);
    EXPECT_EQ(group.reads_performed(), 0u);
    EXPECT_FALSE(cache.latest("/t/a").has_value());
}

TEST(SensorGroup, ExceptionInReadIsContained) {
    CacheSet cache(60 * kNsPerSec);
    FailingGroup group("g", kNsPerSec);
    group.add_sensor(std::make_unique<SensorBase>("a", "/t/a"));
    EXPECT_NO_THROW(group.read_all(42, &cache));
    EXPECT_EQ(group.reads_performed(), 0u);
    EXPECT_EQ(cache.sensor_count(), 0u);
}

TEST(Sampler, SamplesAtAlignedTimestamps) {
    CacheSet cache(60 * kNsPerSec);
    Sampler sampler(2, &cache);
    CountingGroup group("g", 100 * kNsPerMs);
    group.add_sensor(std::make_unique<SensorBase>("a", "/t/a"));
    sampler.add_group(&group);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(550));
    sampler.stop();

    ASSERT_GE(group.timestamps.size(), 3u);
    for (const auto ts : group.timestamps)
        EXPECT_EQ(ts % (100 * kNsPerMs), 0u)
            << "deadlines must be aligned to the interval";
    // Consecutive deadlines are exactly one interval apart.
    for (std::size_t i = 1; i < group.timestamps.size(); ++i)
        EXPECT_EQ(group.timestamps[i] - group.timestamps[i - 1],
                  100 * kNsPerMs);
}

TEST(Sampler, MultipleGroupsWithDifferentIntervals) {
    CacheSet cache(60 * kNsPerSec);
    Sampler sampler(2, &cache);
    CountingGroup fast("fast", 50 * kNsPerMs);
    fast.add_sensor(std::make_unique<SensorBase>("a", "/t/fa"));
    CountingGroup slow("slow", 200 * kNsPerMs);
    slow.add_sensor(std::make_unique<SensorBase>("a", "/t/sa"));
    sampler.add_group(&fast);
    sampler.add_group(&slow);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(650));
    sampler.stop();
    EXPECT_GT(fast.timestamps.size(), 2 * slow.timestamps.size());
    EXPECT_GE(slow.timestamps.size(), 2u);
}

TEST(Sampler, RemovedGroupStopsFiring) {
    CacheSet cache(60 * kNsPerSec);
    Sampler sampler(1, &cache);
    CountingGroup group("g", 50 * kNsPerMs);
    group.add_sensor(std::make_unique<SensorBase>("a", "/t/a"));
    sampler.add_group(&group);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    sampler.remove_groups({&group});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto count = group.timestamps.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(group.timestamps.size(), count);
    sampler.stop();
}

// ---------------------------------------------------------------- Pusher

ConfigNode tester_config(int sensors, const std::string& interval,
                         bool rest = false) {
    return parse_config(
        "global {\n"
        "    topicPrefix /test/node0\n"
        "    threads 2\n"
        "    pushInterval 100ms\n"
        "    restApi " + std::string(rest ? "true" : "false") + "\n"
        "}\n"
        "plugins {\n"
        "    tester {\n"
        "        group g0 { sensors " + std::to_string(sensors) +
        " ; interval " + interval + " }\n"
        "    }\n"
        "}\n");
}

TEST(Pusher, EndToEndThroughInprocBroker) {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<mqtt::Publish> messages;
    mqtt::MqttBroker broker(
        mqtt::BrokerMode::kReduced,
        [&](const mqtt::Publish& p) {
            std::scoped_lock lock(mutex);
            messages.push_back(p);
            cv.notify_all();
        },
        0, /*listen_tcp=*/false);

    Pusher pusher(tester_config(5, "100ms"), broker.connect_inproc());
    pusher.start();
    {
        std::unique_lock lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                                [&] { return messages.size() >= 5; }));
    }
    pusher.stop();

    std::scoped_lock lock(mutex);
    bool found = false;
    for (const auto& m : messages) {
        EXPECT_TRUE(m.topic.starts_with("/test/node0/tester/g0/"));
        // Every message is a v1 batch payload, however many sensors
        // the round drained.
        ASSERT_TRUE(is_batch_payload(m.payload));
        std::vector<Reading> readings;
        BatchPayloadView view;
        decode_batch(m.payload, view);
        EXPECT_EQ(view.torn_bytes, 0u);
        for (const auto& section : view.sections) {
            EXPECT_TRUE(std::string(section.topic)
                            .starts_with("/test/node0/tester/g0/"));
            for (std::size_t i = 0; i < section.readings.size(); ++i)
                readings.push_back(section.readings[i]);
        }
        EXPECT_FALSE(readings.empty());
        for (const auto& r : readings)
            EXPECT_EQ(r.ts % (100 * kNsPerMs), 0u);
        found = true;
    }
    EXPECT_TRUE(found);
    const auto stats = pusher.stats();
    EXPECT_EQ(stats.sensors, 5u);
    EXPECT_GT(stats.readings_pushed, 0u);
}

TEST(Pusher, CoalescedGroupArrivesAsOneMultiSensorMessage) {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<mqtt::Publish> messages;
    mqtt::MqttBroker broker(
        mqtt::BrokerMode::kReduced,
        [&](const mqtt::Publish& p) {
            std::scoped_lock lock(mutex);
            messages.push_back(p);
            cv.notify_all();
        },
        0, /*listen_tcp=*/false);

    Pusher pusher(tester_config(5, "100ms"), broker.connect_inproc());
    pusher.start();
    {
        std::unique_lock lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                                [&] { return messages.size() >= 3; }));
    }
    pusher.stop();

    // A full sampling round drains all 5 sensors of the group into ONE
    // v1 batch payload with one section per sensor.
    std::scoped_lock lock(mutex);
    bool full_round = false;
    for (const auto& m : messages) {
        if (!is_batch_payload(m.payload)) continue;
        BatchPayloadView view;
        decode_batch(m.payload, view);
        if (view.sections.size() == 5) full_round = true;
        // Section topics must be distinct sensors of the group.
        std::set<std::string> topics;
        for (const auto& section : view.sections)
            topics.insert(std::string(section.topic));
        EXPECT_EQ(topics.size(), view.sections.size());
    }
    EXPECT_TRUE(full_round);
    const auto stats = pusher.stats();
    EXPECT_LT(stats.messages_sent, stats.readings_pushed)
        << "coalescing must send fewer messages than readings";
}

/// Tallies what an in-process broker received.
struct BrokerTally {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> readings{0};
    std::atomic<std::uint64_t> not_v1{0};
    std::atomic<std::size_t> largest_remaining{0};

    void add(const mqtt::Publish& p) {
        messages.fetch_add(1);
        // A QoS-1 PUBLISH: topic length, topic, packet id, payload.
        const std::size_t remaining = 2 + p.topic.size() + 2 + p.payload.size();
        if (remaining > largest_remaining.load())
            largest_remaining.store(remaining);
        if (!is_batch_payload(p.payload)) {
            not_v1.fetch_add(1);
            return;
        }
        BatchPayloadView view;
        decode_batch(p.payload, view);
        readings.fetch_add(view.total_readings);
    }
};

/// One tester group of `sensors` sensors, sampled by the test itself.
ConfigNode wide_config(std::size_t sensors) {
    return parse_config(
        "global { topicPrefix /wide ; qos 1 }\n"
        "plugins { tester { group g { sensors " + std::to_string(sensors) +
        " ; interval 1s } } }\n");
}

/// Sum of the pending readings of every sensor of the Pusher.
std::uint64_t pending_readings(const Pusher& pusher) {
    std::uint64_t sum = 0;
    for (const auto& plugin : pusher.plugins())
        for (const auto& group : plugin->groups())
            for (const auto& sensor : group->sensors())
                sum += pending(*sensor);
    return sum;
}

TEST(Pusher, FailedPublishOfTenThousandSensorsIsRetriedAsOneMessage) {
    BrokerTally tally;
    mqtt::MqttBroker broker(
        mqtt::BrokerMode::kReduced,
        [&](const mqtt::Publish& p) { tally.add(p); }, 0,
        /*listen_tcp=*/false);
    Pusher pusher(wide_config(10000), broker.connect_inproc());
    pusher.plugins().front()->groups().front()->read_all(kNsPerSec,
                                                         &pusher.cache());
    {
        ScopedFault fault(FaultPoint::kMqttSend,
                          {.error_prob = 1.0, .max_triggers = 1});
        pusher.push_now();
    }
    auto s = pusher.stats();
    EXPECT_EQ(s.publish_failures, 1u);
    EXPECT_EQ(s.readings_pushed, 0u);
    EXPECT_EQ(pending_readings(pusher), 10000u);

    // The next round sends the readings again.
    pusher.push_now();
    s = pusher.stats();
    EXPECT_EQ(s.readings_dropped, 0u);
    EXPECT_EQ(s.readings_pushed, 10000u);
    EXPECT_EQ(pending_readings(pusher), 0u);
    EXPECT_EQ(tally.messages.load(), 1u) << "the recovery is one message";
    EXPECT_EQ(tally.readings.load(), 10000u);
    EXPECT_EQ(tally.not_v1.load(), 0u);
}

// A failed publish must not let a fresher reading of the same sensor
// reach the agent first: the agent's cache would then serve the older
// reading as the latest, and its "oldest first" view would run
// backwards.
TEST(Pusher, FailedReadingsNeverOvertakeFresherOnes) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("dcdb_pusher_order_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    {
        store::ClusterConfig cc;
        cc.base_dir = dir.string();
        cc.commitlog_enabled = false;
        store::StoreCluster cluster(cc);
        store::MetaStore meta;
        collectagent::CollectAgent agent(
            parse_config("global { listenTcp false }"), &cluster, &meta);
        Pusher pusher(
            parse_config("global { topicPrefix /order ; qos 1 }\n"
                         "plugins { tester { group g { sensors 1 ; "
                         "interval 1s } } }\n"),
            agent.connect_inproc());
        SensorGroup& group = *pusher.plugins().front()->groups().front();
        const std::string topic = group.sensors().front()->topic();

        group.read_all(kNsPerSec, &pusher.cache());
        {
            ScopedFault fault(FaultPoint::kMqttSend,
                              {.error_prob = 1.0, .max_triggers = 1});
            pusher.push_now();
        }
        group.read_all(2 * kNsPerSec, &pusher.cache());
        pusher.push_now();
        // One more round after a pause: nothing older may arrive late.
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        pusher.push_now();

        EXPECT_EQ(pusher.stats().publish_failures, 1u);
        EXPECT_EQ(pusher.stats().readings_pushed, 2u);
        const auto latest = agent.cache().latest(topic);
        ASSERT_TRUE(latest.has_value());
        EXPECT_EQ(latest->ts, 2 * kNsPerSec);
        // The agent caches each section's newest reading.
        const auto view = agent.cache().view(topic, 0, kTimestampMax);
        ASSERT_FALSE(view.empty());
        for (std::size_t i = 1; i < view.size(); ++i)
            EXPECT_LT(view[i - 1].ts, view[i].ts) << "view() is oldest first";
        const auto stored = agent.query_stored(topic, 0, kTimestampMax);
        ASSERT_EQ(stored.size(), 2u);
        EXPECT_EQ(stored[0].ts, kNsPerSec);
        EXPECT_EQ(stored[1].ts, 2 * kNsPerSec);
    }
    fs::remove_all(dir);
}

// With the agent unreachable no push round runs, so a full ring's
// overwrites are the only loss, and they are counted where an operator
// looks: PusherStats and /metrics.
TEST(Pusher, PendingRingDropsAreCountedWhileTheAgentIsUnreachable) {
    constexpr std::uint64_t kReads = 5000;
    Pusher pusher(parse_config(
        "global { topicPrefix /outage ; mqttBroker 127.0.0.1:1 ;\n"
        "  restApi true }\n"
        "plugins { tester { group g { sensors 1 ; interval 1s } } }\n"));
    SensorGroup& group = *pusher.plugins().front()->groups().front();
    for (TimestampNs i = 1; i <= kReads; ++i)
        group.read_all(i * kNsPerSec, &pusher.cache());

    constexpr std::uint64_t kDropped = kReads - SensorCache::kMaxPending;
    EXPECT_EQ(pending_readings(pusher), SensorCache::kMaxPending);
    // /metrics computes its gauges when it is read, before any stats().
    const auto metrics = http_get("127.0.0.1", pusher.rest_port(), "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("\ndcdb_pusher_push_dropped " +
                                std::to_string(kDropped) + "\n"),
              std::string::npos)
        << metrics.body;
    EXPECT_NE(metrics.body.find("\ndcdb_pusher_push_pending " +
                                std::to_string(SensorCache::kMaxPending) +
                                "\n"),
              std::string::npos)
        << metrics.body;
    EXPECT_EQ(metrics.body.find("\ndcdb_pusher_cache_bytes 0\n"),
              std::string::npos)
        << metrics.body;
    // The Pusher's half of the ledger balances from stats() alone.
    const PusherStats s = pusher.stats();
    EXPECT_EQ(s.readings_dropped, kDropped);
    EXPECT_EQ(s.readings_pending, SensorCache::kMaxPending);
    EXPECT_EQ(s.readings_pushed + s.readings_dropped + s.readings_pending,
              kReads);
}

// Nothing publishes a cache-only Pusher's pending readings, so its
// sensors keep none, and drop none.
TEST(Pusher, CacheOnlyPusherKeepsNoPendingReadings) {
    constexpr int kSensors = 1000;
    constexpr TimestampNs kReads = 5000;
    Pusher pusher(parse_config(
        "global { topicPrefix /cacheonly ; mqttBroker none }\n"
        "plugins { tester { group g { sensors " + std::to_string(kSensors) +
        " ; interval 1s } } }\n"));
    ASSERT_FALSE(pusher.mqtt_configured());
    SensorGroup& group = *pusher.plugins().front()->groups().front();
    for (TimestampNs i = 1; i <= kReads; ++i)
        group.read_all(i * kNsPerSec, &pusher.cache());

    EXPECT_EQ(pending_readings(pusher), 0u);
    EXPECT_EQ(pusher.stats().readings_dropped, 0u);
    EXPECT_EQ(pusher.stats().readings_pending, 0u);
    EXPECT_EQ(pusher.cache().sensor_count(),
              static_cast<std::size_t>(kSensors));
    const auto latest = pusher.cache().latest(group.sensors().back()->topic());
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->ts, kReads * kNsPerSec);
}

TEST(Pusher, DrainOverThePacketCapIsSplitIntoPayloadsUnderIt) {
    // 2,000 sensors x 2,200 readings encode to 70.4 MB, above the
    // 64 MiB a PUBLISH may carry.
    constexpr std::uint64_t kSensors = 2000;
    constexpr std::uint64_t kReads = 2200;
    BrokerTally tally;
    mqtt::MqttBroker broker(
        mqtt::BrokerMode::kReduced,
        [&](const mqtt::Publish& p) { tally.add(p); }, 0,
        /*listen_tcp=*/false);
    Pusher pusher(wide_config(kSensors), broker.connect_inproc());
    SensorGroup& group = *pusher.plugins().front()->groups().front();
    for (TimestampNs i = 1; i <= kReads; ++i)
        group.read_all(i * kNsPerSec, &pusher.cache());
    pusher.push_now();

    const auto s = pusher.stats();
    EXPECT_EQ(s.publish_failures, 0u);
    EXPECT_EQ(s.readings_dropped, 0u);
    EXPECT_EQ(s.readings_pushed, kSensors * kReads);
    EXPECT_GE(tally.messages.load(), 2u);
    EXPECT_EQ(tally.readings.load(), kSensors * kReads);
    EXPECT_LE(tally.largest_remaining.load(), mqtt::kMaxRemainingLength);
    EXPECT_EQ(tally.not_v1.load(), 0u);
}

TEST(Pusher, CacheOnlyOperationWithoutBroker) {
    Pusher pusher(tester_config(3, "50ms"));
    pusher.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    pusher.stop();
    EXPECT_EQ(pusher.cache().sensor_count(), 3u);
    EXPECT_TRUE(pusher.cache()
                    .latest("/test/node0/tester/g0/s0")
                    .has_value());
}

TEST(Pusher, RestApiServesSensorsAndPlugins) {
    Pusher pusher(tester_config(2, "50ms", /*rest=*/true));
    pusher.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const auto port = pusher.rest_port();
    ASSERT_GT(port, 0);

    const auto sensors = http_get("127.0.0.1", port, "/sensors");
    EXPECT_EQ(sensors.status, 200);
    EXPECT_NE(sensors.body.find("/test/node0/tester/g0/s0"),
              std::string::npos);

    const auto one =
        http_get("127.0.0.1", port, "/sensors/test/node0/tester/g0/s0");
    EXPECT_EQ(one.status, 200);

    const auto avg = http_get("127.0.0.1", port,
                              "/sensors/test/node0/tester/g0/s0?avg=60");
    EXPECT_EQ(avg.status, 200);

    const auto plugins = http_get("127.0.0.1", port, "/plugins");
    EXPECT_NE(plugins.body.find("tester running 2 sensors"),
              std::string::npos);

    const auto config = http_get("127.0.0.1", port, "/config");
    EXPECT_NE(config.body.find("topicPrefix"), std::string::npos);

    EXPECT_EQ(http_get("127.0.0.1", port, "/nope").status, 404);
    pusher.stop();
}

TEST(Pusher, RestHelpAndNotFoundEnumerateEveryServedRoute) {
    Pusher pusher(tester_config(1, "50ms", /*rest=*/true));
    pusher.start();
    const auto port = pusher.rest_port();
    ASSERT_GT(port, 0);

    const auto help = http_get("127.0.0.1", port, "/");
    ASSERT_EQ(help.status, 200);
    const auto not_found = http_get("127.0.0.1", port, "/nope");
    ASSERT_EQ(not_found.status, 404);

    // Every advertised route is actually served, and both the help text
    // and the 404 fallback advertise all of them — this is the parity
    // the hard-coded help strings used to lose (/stats was missing).
    for (const std::string route :
         {"/sensors", "/plugins", "/config", "/stats", "/healthz",
          "/readyz", "/traces", "/traces.json", "/metrics",
          "/metrics.json"}) {
        EXPECT_NE(help.body.find(route), std::string::npos)
            << route << " missing from /";
        EXPECT_NE(not_found.body.find(route), std::string::npos)
            << route << " missing from the 404 fallback";
        EXPECT_NE(http_get("127.0.0.1", port, route).status, 404)
            << route << " advertised but not served";
    }
    pusher.stop();
}

TEST(Pusher, HealthzAlwaysOkReadyzTracksBrokerSession) {
    // Cache-only (no broker configured): as ready as it gets.
    Pusher cache_only(tester_config(1, "50ms", /*rest=*/true));
    cache_only.start();
    const auto port = cache_only.rest_port();
    const auto health = http_get("127.0.0.1", port, "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("ok"), std::string::npos);
    const auto ready = http_get("127.0.0.1", port, "/readyz");
    EXPECT_EQ(ready.status, 200);
    EXPECT_NE(ready.body.find("\"ready\":true"), std::string::npos);
    cache_only.stop();

    // A configured but unreachable broker: alive (healthz 200) but not
    // ready (readyz 503) until a session comes up.
    Pusher unreachable(parse_config(
        "global {\n"
        "    topicPrefix /test/node1\n"
        "    mqttBroker 127.0.0.1:1\n"
        "    restApi true\n"
        "}\n"
        "plugins { tester { group g0 { sensors 1 ; interval 1s } } }\n"));
    const auto port2 = unreachable.rest_port();
    ASSERT_GT(port2, 0);
    EXPECT_EQ(http_get("127.0.0.1", port2, "/healthz").status, 200);
    const auto not_ready = http_get("127.0.0.1", port2, "/readyz");
    EXPECT_EQ(not_ready.status, 503);
    EXPECT_NE(not_ready.body.find("mqtt session down"), std::string::npos);
}

TEST(Pusher, RestStartStopControlsSampling) {
    Pusher pusher(tester_config(1, "50ms", /*rest=*/true));
    pusher.start();
    const auto port = pusher.rest_port();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    EXPECT_EQ(http_request("127.0.0.1", port, "PUT",
                           "/plugins/tester/stop")
                  .status,
              200);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto samples_when_stopped = pusher.stats().samples_taken;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // The sampler still fires but the disabled group performs no reads.
    EXPECT_EQ(pusher.plugins()[0]->groups()[0]->reads_performed(),
              pusher.plugins()[0]->groups()[0]->reads_performed());
    EXPECT_FALSE(pusher.plugins()[0]->running());

    EXPECT_EQ(http_request("127.0.0.1", port, "PUT",
                           "/plugins/tester/start")
                  .status,
              200);
    EXPECT_TRUE(pusher.plugins()[0]->running());
    (void)samples_when_stopped;

    EXPECT_EQ(http_request("127.0.0.1", port, "PUT",
                           "/plugins/nosuch/start")
                  .status,
              404);
    pusher.stop();
}

TEST(Pusher, ReloadRebuildsPluginFromConfig) {
    Pusher pusher(tester_config(2, "50ms"));
    pusher.start();
    EXPECT_EQ(pusher.stats().sensors, 2u);
    // In-memory config: reload re-applies the same subtree.
    pusher.reload_plugin("tester");
    EXPECT_EQ(pusher.stats().sensors, 2u);
    EXPECT_THROW(pusher.reload_plugin("nosuch"), ConfigError);
    pusher.stop();
}

TEST(Pusher, ReloadFromFilePicksUpChanges) {
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "dcdb_pusher_reload.conf").string();
    auto write_config = [&](int sensors) {
        std::ofstream out(path);
        out << "global { topicPrefix /test/n0 }\n"
            << "plugins { tester { group g0 { sensors " << sensors
            << " ; interval 1s } } }\n";
    };
    write_config(2);
    auto pusher = Pusher::from_file(path);
    EXPECT_EQ(pusher->stats().sensors, 2u);
    write_config(7);
    pusher->reload_plugin("tester");
    EXPECT_EQ(pusher->stats().sensors, 7u);
    fs::remove(path);
}

/// A gate that holds a group's reads, for the reload tests: the group's
/// destructor records whether a read was still in flight.
struct ReadGate {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered{false};
    bool open{false};
    std::atomic<bool> in_read{false};
    std::atomic<bool> freed_mid_read{false};
};

ReadGate& read_gate() {
    static ReadGate gate;
    return gate;
}

class GatedGroup final : public SensorGroup {
  public:
    using SensorGroup::SensorGroup;
    ~GatedGroup() override {
        if (read_gate().in_read.load()) read_gate().freed_mid_read.store(true);
    }

  protected:
    bool do_read(TimestampNs, std::vector<Value>& out) override {
        ReadGate& gate = read_gate();
        gate.in_read.store(true);
        {
            std::unique_lock lock(gate.mutex);
            gate.entered = true;
            gate.cv.notify_all();
            gate.cv.wait(lock, [&] { return gate.open; });
        }
        for (auto& v : out) v = 1;
        gate.in_read.store(false);
        return true;
    }
};

class GatedPlugin final : public Plugin {
  public:
    std::string name() const override { return "gated"; }
    void configure(const ConfigNode&, const PluginContext& ctx) override {
        auto& group =
            add_group(std::make_unique<GatedGroup>("g", 10 * kNsPerMs));
        group.add_sensor(std::make_unique<SensorBase>(
            "s", ctx.topic_prefix + "/gated/g/s"));
    }
};

TEST(Pusher, ReloadWaitsOutAReadInFlight) {
    PluginRegistry::instance().register_plugin(
        "gated", [] { return std::make_unique<GatedPlugin>(); });
    Pusher pusher(parse_config("global { topicPrefix /gate ; threads 1 }\n"
                               "plugins { gated { } }\n"));
    pusher.start();
    ReadGate& gate = read_gate();
    {
        std::unique_lock lock(gate.mutex);
        ASSERT_TRUE(gate.cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return gate.entered; }));
    }
    // A sampler worker is now blocked inside the group's read: the
    // reload must not free the group under it.
    std::atomic<bool> reloaded{false};
    std::thread reloader([&] {
        pusher.reload_plugin("gated");
        reloaded.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(reloaded.load()) << "reload returned during a read";
    {
        std::scoped_lock lock(gate.mutex);
        gate.open = true;
    }
    gate.cv.notify_all();
    reloader.join();
    EXPECT_FALSE(gate.freed_mid_read.load()) << "group freed mid-read";
    pusher.stop();
}

// The rings live in the cache, which a reload keeps: a sensor rebuilt
// under the same topic continues its predecessor's undelivered readings,
// and the ledger never loses them.
TEST(Pusher, ReloadKeepsUndeliveredReadings) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("dcdb_pusher_reload_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    {
        store::ClusterConfig cc;
        cc.base_dir = dir.string();
        cc.commitlog_enabled = false;
        store::StoreCluster cluster(cc);
        store::MetaStore meta;
        // Learn a free port, then leave the agent down.
        std::string port;
        {
            collectagent::CollectAgent probe(
                parse_config("global { listenTcp true ; mqttPort 0 }"),
                &cluster, &meta);
            port = std::to_string(probe.mqtt_port());
        }
        Pusher pusher(parse_config(
            "global { topicPrefix /reload ; qos 1 ; mqttBroker 127.0.0.1:" +
            port +
            " ;\n  reconnectBackoffMin 1ms ; reconnectBackoffMax 1ms }\n"
            "plugins { tester { group g { sensors 4 ; interval 1s } } }\n"));
        const auto sample = [&pusher](TimestampNs ts) {
            for (const auto& group : pusher.plugins().front()->groups())
                group->read_all(ts, &pusher.cache());
        };
        const auto ledger = [&pusher] {
            const PusherStats s = pusher.stats();
            return s.readings_pushed + s.readings_dropped +
                   s.readings_pending;
        };
        for (TimestampNs i = 1; i <= 10; ++i) sample(i * kNsPerSec);
        pusher.push_now();  // the agent is unreachable
        EXPECT_EQ(ledger(), 40u);
        pusher.reload_plugin("tester");
        EXPECT_EQ(ledger(), 40u) << "the reload lost undelivered readings";

        // The agent comes back; the rebuilt sensors' next round carries
        // the backlog with the fresh reading.
        collectagent::CollectAgent agent(
            parse_config("global { listenTcp true ; mqttPort " + port + " }"),
            &cluster, &meta);
        sample(11 * kNsPerSec);
        const auto deadline = steady_ns() + 10 * kNsPerSec;
        while (pusher.stats().readings_pushed < 44 && steady_ns() < deadline) {
            pusher.push_now();
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        const PusherStats s = pusher.stats();
        EXPECT_EQ(s.readings_pushed, 44u);
        EXPECT_EQ(s.readings_dropped, 0u);
        EXPECT_EQ(s.readings_pending, 0u);
        for (int k = 0; k < 4; ++k) {
            const std::string topic = "/reload/tester/g/s" + std::to_string(k);
            const auto stored = agent.query_stored(topic, 0, kTimestampMax);
            ASSERT_EQ(stored.size(), 11u) << topic;
            for (std::size_t i = 0; i < stored.size(); ++i)
                EXPECT_EQ(stored[i].ts, (i + 1) * kNsPerSec) << topic;
        }
        pusher.stop();
    }
    fs::remove_all(dir);
}

// A reload that removes sensors leaves their pending readings with no
// sensor to peek them: they count as dropped, so the ledger still closes
// and nothing stays pending for good.
TEST(Pusher, ReloadCountsARemovedSensorsPendingReadingsAsDropped) {
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() /
         ("dcdb_pusher_shrink_" + std::to_string(::getpid()) + ".conf"))
            .string();
    const auto write_config = [&path](int sensors) {
        std::ofstream out(path);
        out << "global { topicPrefix /shrink ; qos 1 }\n"
            << "plugins { tester { group g { sensors " << sensors
            << " ; interval 1s } } }\n";
    };
    write_config(4);
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr, 0,
                            /*listen_tcp=*/false);
    auto pusher = Pusher::from_file(path, broker.connect_inproc());
    const auto sample = [&pusher](TimestampNs ts) {
        for (const auto& group : pusher->plugins().front()->groups())
            group->read_all(ts, &pusher->cache());
    };
    for (TimestampNs i = 1; i <= 10; ++i) sample(i * kNsPerSec);
    write_config(2);
    pusher->reload_plugin("tester");
    sample(11 * kNsPerSec);
    for (int i = 0; i < 3; ++i) pusher->push_now();

    const PusherStats s = pusher->stats();
    EXPECT_EQ(s.readings_pushed, 22u);
    EXPECT_EQ(s.readings_dropped, 20u);
    EXPECT_EQ(s.readings_pending, 0u);
    EXPECT_EQ(s.readings_pushed + s.readings_dropped + s.readings_pending,
              4u * 10 + 2u);
    fs::remove(path);
}

// A sensor rebuilt by a reload continues its predecessor's backlog, and a
// push round finds it before the sensor's first new reading: a stop()
// right after the reload delivers it.
TEST(Pusher, StopRightAfterAReloadDeliversTheRebuiltSensorsBacklog) {
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr, 0,
                            /*listen_tcp=*/false);
    // An hour's interval: the sampler does not read before stop().
    Pusher pusher(parse_config("global { topicPrefix /restop ; qos 1 }\n"
                               "plugins { tester { group g { sensors 2 ; "
                               "interval 1h } } }\n"),
                  broker.connect_inproc());
    for (TimestampNs i = 1; i <= 3; ++i) {
        for (const auto& group : pusher.plugins().front()->groups())
            group->read_all(i * kNsPerSec, &pusher.cache());
    }
    pusher.reload_plugin("tester");
    pusher.start();
    pusher.stop();

    const PusherStats s = pusher.stats();
    EXPECT_EQ(s.readings_pushed, 6u);
    EXPECT_EQ(s.readings_pending, 0u);
}

// An agent outage grows a sensor's ring to the pending cap; once the
// backlog is delivered and the rounds are small again, the cache is back
// at its window-sized footprint.
TEST(Pusher, OutageBacklogIsGivenBack) {
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr, 0,
                            /*listen_tcp=*/false);
    Pusher pusher(parse_config("global { topicPrefix /backlog ; qos 1 ;\n"
                               "  cacheWindow 60s }\n"
                               "plugins { tester { group g { sensors 1 ; "
                               "interval 1s } } }\n"),
                  broker.connect_inproc());
    SensorGroup& group = *pusher.plugins().front()->groups().front();
    TimestampNs ts = 0;
    const auto round = [&] {
        ts += kNsPerSec;
        group.read_all(ts, &pusher.cache());
        pusher.push_now();
    };
    for (int i = 0; i < 100; ++i) round();
    const std::size_t window_sized = pusher.cache().memory_bytes();
    {
        ScopedFault fault(FaultPoint::kMqttSend, {.error_prob = 1.0});
        for (std::size_t i = 0; i < SensorCache::kMaxPending + 100; ++i)
            round();
    }
    const PusherStats outage = pusher.stats();
    EXPECT_EQ(outage.readings_pending, SensorCache::kMaxPending);
    EXPECT_EQ(outage.readings_dropped, 100u);
    EXPECT_GE(pusher.cache().memory_bytes(),
              window_sized + (SensorCache::kMaxPending - 62) * sizeof(Reading));
    pusher.push_now();  // the backlog goes out in one round...
    EXPECT_EQ(pusher.stats().readings_pending, 0u);
    round();  // ...and the next small one gives its memory back
    EXPECT_EQ(pusher.stats().readings_pending, 0u);
    EXPECT_EQ(pusher.cache().memory_bytes(), window_sized);
}

TEST(Pusher, BadBrokerAddressThrows) {
    auto config = parse_config(
        "global { mqttBroker not-an-address }\n"
        "plugins { tester { group g { sensors 1 } } }\n");
    EXPECT_THROW(Pusher pusher(std::move(config)), ConfigError);
}

// An injected transport carries the first session only. A failed first
// handshake on it does not throw from the constructor: it counts as a
// failed attempt, as does every attempt once that session is gone.
TEST(Pusher, InjectedTransportCarriesOnlyTheFirstSession) {
    mqtt::MqttBroker broker(mqtt::BrokerMode::kReduced, nullptr, 0,
                            /*listen_tcp=*/false);
    ScopedFault fault(FaultPoint::kMqttSend,
                      {.error_prob = 1.0, .max_triggers = 1});
    Pusher pusher(
        parse_config("global { topicPrefix /once ; reconnectBackoffMin 1ms ;\n"
                     "  reconnectBackoffMax 1ms }\n"
                     "plugins { tester { group g { sensors 1 } } }\n"),
        broker.connect_inproc());
    EXPECT_FALSE(pusher.mqtt_connected());
    EXPECT_EQ(pusher.stats().reconnect_failures, 1u);

    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pusher.push_now();
    const auto s = pusher.stats();
    EXPECT_EQ(s.reconnect_failures, 2u);
    EXPECT_EQ(s.reconnects, 0u);
    EXPECT_FALSE(pusher.mqtt_connected());
}

// The push thread staggers its sends modulo the interval: a zero
// interval is refused at construction instead of dividing by zero once
// start() runs.
TEST(Pusher, ZeroPushIntervalThrows) {
    auto config = parse_config(
        "global { mqttBroker 127.0.0.1:1 ; pushInterval 0 }\n"
        "plugins { tester { group g { sensors 1 } } }\n");
    EXPECT_THROW(Pusher pusher(std::move(config)), ConfigError);
}

TEST(Pusher, UnknownPluginNameThrows) {
    auto config = parse_config("plugins { warpdrive { } }\n");
    EXPECT_THROW(Pusher pusher(std::move(config)), ConfigError);
}

}  // namespace
}  // namespace dcdb::pusher
