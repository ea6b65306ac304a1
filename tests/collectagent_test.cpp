// Collect Agent integration tests: Pusher -> MQTT -> SID translation ->
// Storage Backend, the sensor cache, hierarchy and REST API.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "common/string_utils.hpp"
#include "core/payload.hpp"
#include "mqtt/client.hpp"
#include "pusher/pusher.hpp"

namespace dcdb::collectagent {
namespace {

namespace fs = std::filesystem;

class CollectAgentTest : public ::testing::Test {
  protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("dcdb_ca_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
        store::ClusterConfig config;
        config.base_dir = dir_.string();
        config.nodes = 2;
        config.commitlog_enabled = false;
        cluster_ = std::make_unique<store::StoreCluster>(config);
        meta_ = std::make_unique<store::MetaStore>();
    }
    void TearDown() override { fs::remove_all(dir_); }

    static std::atomic<int> counter_;
    fs::path dir_;
    std::unique_ptr<store::StoreCluster> cluster_;
    std::unique_ptr<store::MetaStore> meta_;
};

std::atomic<int> CollectAgentTest::counter_{0};

std::vector<Reading> query_topic(store::StoreCluster& cluster,
                                 TopicMapper& mapper,
                                 const std::string& topic, TimestampNs t0,
                                 TimestampNs t1) {
    SensorId sid;
    if (!mapper.lookup(topic, sid)) return {};
    std::vector<Reading> out;
    for (std::uint32_t b = time_bucket(t0); b <= time_bucket(t1); ++b) {
        store::Key key{sid.bytes, b};
        for (const auto& row : cluster.query(key, t0, t1))
            out.push_back({row.ts, row.value});
    }
    return out;
}

TEST_F(CollectAgentTest, IngestsPublishedReadingsIntoStore) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "test-pusher");
    client.connect();

    const std::vector<Reading> readings = {{kNsPerSec, 10},
                                           {2 * kNsPerSec, 20}};
    client.publish("/sys/rack0/node1/power", encode_readings(readings), 1);
    client.disconnect();

    const auto stored =
        query_topic(*cluster_, agent.mapper(), "/sys/rack0/node1/power", 0,
                    kTimestampMax);
    ASSERT_EQ(stored.size(), 2u);
    EXPECT_EQ(stored[0].value, 10);
    EXPECT_EQ(stored[1].value, 20);

    const auto stats = agent.stats();
    EXPECT_EQ(stats.messages, 1u);
    EXPECT_EQ(stats.readings, 2u);
    EXPECT_EQ(stats.decode_errors, 0u);
}

// A section that crosses midnight is two runs, one per day bucket, with
// a TTL that becomes each row's expiry: both runs are stored, and a
// straggler from the day before lands in the first.
TEST_F(CollectAgentTest, SectionAcrossMidnightIsStoredInBothDayBuckets) {
    CollectAgent agent(parse_config("global { listenTcp false ; ttl 1000000000 }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "test-pusher");
    client.connect();
    const TimestampNs midnight = 20'454 * kBucketWidthNs;
    std::vector<Reading> readings;
    for (int i = -3; i < 3; ++i)
        readings.push_back({midnight + i * kNsPerSec, i});
    readings.push_back({midnight - 10 * kNsPerSec, -10});
    const std::string topic = "/sys/rack0/node1/midnight";
    client.publish(topic, encode_readings(readings), 1);
    client.disconnect();

    SensorId sid;
    ASSERT_TRUE(agent.mapper().lookup(topic, sid));
    const auto before = cluster_->query(sensor_key(sid, midnight - 1), 0,
                                        kTimestampMax);
    const auto after =
        cluster_->query(sensor_key(sid, midnight), 0, kTimestampMax);
    ASSERT_EQ(before.size(), 4u);
    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(before.front().value, -10);
    EXPECT_EQ(after.front().ts, midnight);
    EXPECT_EQ(after.back().expiry_s, midnight / kNsPerSec + 2 + 1000000000);
    EXPECT_EQ(agent.stats().readings, readings.size());
}

TEST_F(CollectAgentTest, CacheHoldsLatestReadingPerSensor) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();
    client.publish("/a/s1",
                   encode_readings({{1, 1}, {2, 2}, {3, 33}}), 1);
    client.publish("/a/s2", encode_readings({{1, 7}}), 1);
    client.disconnect();

    EXPECT_EQ(agent.cache().latest("/a/s1")->value, 33);
    EXPECT_EQ(agent.cache().latest("/a/s2")->value, 7);
    EXPECT_EQ(agent.stats().known_sensors, 2u);
}

// Two spellings of one sensor are one SID, one tree leaf and one cache
// slot, so the cache (and GET /sensors/a/b) serves the newest reading
// under either spelling.
TEST_F(CollectAgentTest, SpellingsOfOneSensorShareOneCacheSlot) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    agent.ingest("/a/b", {kNsPerSec, 10});
    agent.ingest("a//b/", {2 * kNsPerSec, 20});

    EXPECT_EQ(agent.mapper().known_topics(), 1u);
    EXPECT_EQ(agent.hierarchy().sensor_count(), 1u);
    EXPECT_EQ(agent.cache().sensor_count(), 1u);
    EXPECT_EQ(agent.cache().topics(), std::vector<std::string>{"/a/b"});
    for (const char* spelling : {"/a/b", "a//b/"}) {
        const auto latest = agent.cache().latest(spelling);
        ASSERT_TRUE(latest.has_value()) << spelling;
        EXPECT_EQ(latest->ts, 2 * kNsPerSec) << spelling;
        EXPECT_EQ(latest->value, 20) << spelling;
    }
}

TEST_F(CollectAgentTest, HierarchyTreeTracksTopics) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();
    for (const char* topic :
         {"/lrz/cm3/rack0/node0/power", "/lrz/cm3/rack0/node1/power",
          "/lrz/cm3/rack1/node0/power"}) {
        client.publish(topic, encode_readings({{1, 1}}), 1);
    }
    client.disconnect();
    EXPECT_EQ(agent.hierarchy().children("/lrz/cm3").size(), 2u);
    EXPECT_EQ(agent.hierarchy().sensors_below("/lrz/cm3/rack0").size(), 2u);
}

TEST_F(CollectAgentTest, MalformedPayloadCountsDecodeError) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();
    client.publish("/bad/payload", std::string("123"), 1);  // not 16-aligned
    client.disconnect();
    EXPECT_EQ(agent.stats().decode_errors, 1u);
    EXPECT_EQ(agent.stats().readings, 0u);
}

TEST_F(CollectAgentTest, TornPayloadSalvagesPrefixAndCountsTheTail) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();
    // Three whole readings plus a torn 5-byte tail: the prefix must be
    // salvaged, only the tail is discarded.
    auto payload = encode_readings(
        {{1 * kNsPerSec, 10}, {2 * kNsPerSec, 20}, {3 * kNsPerSec, 30}});
    payload.insert(payload.end(), {0xDE, 0xAD, 0xBE, 0xEF, 0x00});
    client.publish("/torn/s1", std::move(payload), 1);
    client.disconnect();

    const auto stats = agent.stats();
    EXPECT_EQ(stats.readings, 3u);
    EXPECT_EQ(stats.salvaged, 3u);
    // decode_errors counts READINGS lost, and a torn tail is (at least)
    // one lost reading — not one lost payload.
    EXPECT_EQ(stats.decode_errors, 1u);
    EXPECT_EQ(query_topic(*cluster_, agent.mapper(), "/torn/s1", 0,
                          kTimestampMax)
                  .size(),
              3u);
    EXPECT_EQ(agent.cache().latest("/torn/s1")->value, 30);
}

TEST_F(CollectAgentTest, BatchPayloadRoutesEverySectionByItsTopic) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();

    const std::vector<Reading> a = {{1 * kNsPerSec, 1}, {2 * kNsPerSec, 2}};
    const std::vector<Reading> b = {{1 * kNsPerSec, 10}};
    const std::vector<Reading> c = {{1 * kNsPerSec, 100},
                                    {2 * kNsPerSec, 200},
                                    {3 * kNsPerSec, 300}};
    const std::vector<SensorBatch> sections = {
        {"/batch/g0/s0", a}, {"/batch/g0/s1", b}, {"/batch/g0/s2", c}};
    // The message topic is informational for batch payloads; the agent
    // must route each section by its own embedded topic.
    client.publish("/batch/g0/s0", encode_batch(sections), 1);
    client.disconnect();

    const auto stats = agent.stats();
    EXPECT_EQ(stats.messages, 1u);
    EXPECT_EQ(stats.readings, 6u);
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.salvaged, 0u);
    EXPECT_EQ(stats.known_sensors, 3u);
    EXPECT_EQ(query_topic(*cluster_, agent.mapper(), "/batch/g0/s0", 0,
                          kTimestampMax)
                  .size(),
              2u);
    EXPECT_EQ(query_topic(*cluster_, agent.mapper(), "/batch/g0/s2", 0,
                          kTimestampMax)
                  .size(),
              3u);
    EXPECT_EQ(agent.cache().latest("/batch/g0/s1")->value, 10);
    EXPECT_EQ(agent.cache().latest("/batch/g0/s2")->value, 300);
    EXPECT_EQ(agent.hierarchy().sensors_below("/batch/g0").size(), 3u);
}

TEST_F(CollectAgentTest, UnmappableBatchSectionDiscardsOnlyItsReadings) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();
    const std::vector<Reading> good = {{1 * kNsPerSec, 1},
                                       {2 * kNsPerSec, 2}};
    const std::vector<Reading> bad = {{1 * kNsPerSec, 9},
                                      {2 * kNsPerSec, 9},
                                      {3 * kNsPerSec, 9}};
    // "" cannot map to a SID; its 3 readings are discarded individually,
    // the sibling section still lands.
    const std::vector<SensorBatch> sections = {{"/mix/ok", good},
                                               {"", bad}};
    client.publish("/mix/ok", encode_batch(sections), 1);
    client.disconnect();

    const auto stats = agent.stats();
    EXPECT_EQ(stats.readings, 2u);
    EXPECT_EQ(stats.decode_errors, 3u);
    EXPECT_EQ(query_topic(*cluster_, agent.mapper(), "/mix/ok", 0,
                          kTimestampMax)
                  .size(),
              2u);
}

TEST_F(CollectAgentTest, SidsAreStableAcrossAgentRestarts) {
    SensorId first;
    {
        CollectAgent agent(parse_config("global { listenTcp false }"),
                           cluster_.get(), meta_.get());
        mqtt::MqttClient client(agent.connect_inproc(), "p");
        client.connect();
        client.publish("/sys/node0/temp", encode_readings({{1, 1}}), 1);
        client.disconnect();
        ASSERT_TRUE(agent.mapper().lookup("/sys/node0/temp", first));
    }
    // New agent over the same metastore: same SID, data still reachable.
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    SensorId second;
    ASSERT_TRUE(agent.mapper().lookup("/sys/node0/temp", second));
    EXPECT_EQ(first, second);
    EXPECT_EQ(query_topic(*cluster_, agent.mapper(), "/sys/node0/temp", 0,
                          kTimestampMax)
                  .size(),
              1u);
}

TEST_F(CollectAgentTest, TtlIsAppliedToIngestedRows) {
    CollectAgent agent(
        parse_config("global { listenTcp false ; ttl 3600 }"),
        cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();
    const TimestampNs now = now_ns();
    client.publish("/x/y", encode_readings({{now, 1}}), 1);
    client.disconnect();
    // Row present now (expiry one hour out).
    EXPECT_EQ(query_topic(*cluster_, agent.mapper(), "/x/y", 0,
                          kTimestampMax)
                  .size(),
              1u);
}

TEST_F(CollectAgentTest, EndToEndWithRealPusherOverTcp) {
    CollectAgent agent(
        parse_config("global { listenTcp true ; restApi true }"),
        cluster_.get(), meta_.get());

    auto config = parse_config(
        "global {\n"
        "  mqttBroker 127.0.0.1:" + std::to_string(agent.mqtt_port()) + "\n"
        "  topicPrefix /itest/node0\n"
        "  pushInterval 100ms\n"
        "}\n"
        "plugins { tester { group g0 { sensors 10 ; interval 100ms } } }\n");
    pusher::Pusher pusher(std::move(config));
    pusher.start();

    // Wait until the agent has ingested a couple of rounds.
    for (int spin = 0; spin < 100 && agent.stats().readings < 30; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pusher.stop();

    EXPECT_GE(agent.stats().readings, 30u);
    EXPECT_EQ(agent.stats().known_sensors, 10u);
    const auto stored = query_topic(*cluster_, agent.mapper(),
                                    "/itest/node0/tester/g0/s0", 0,
                                    kTimestampMax);
    EXPECT_GE(stored.size(), 3u);

    // REST API mirrors the cache.
    const auto resp = http_get("127.0.0.1", agent.rest_port(), "/sensors");
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("/itest/node0/tester/g0/s0"),
              std::string::npos);
    const auto stats_resp =
        http_get("127.0.0.1", agent.rest_port(), "/stats");
    EXPECT_NE(stats_resp.body.find("readings"), std::string::npos);
    const auto hier = http_get("127.0.0.1", agent.rest_port(),
                               "/hierarchy?path=/itest");
    EXPECT_NE(hier.body.find("node0"), std::string::npos);
}

TEST_F(CollectAgentTest, QueryEndpointServesStoredSeries) {
    CollectAgent agent(
        parse_config("global { listenTcp false ; restApi true }"),
        cluster_.get(), meta_.get());
    mqtt::MqttClient client(agent.connect_inproc(), "p");
    client.connect();
    client.publish("/q/s1",
                   encode_readings({{1 * kNsPerSec, 10},
                                    {2 * kNsPerSec, 20},
                                    {3 * kNsPerSec, 30}}),
                   1);
    client.disconnect();

    const auto resp = http_get(
        "127.0.0.1", agent.rest_port(),
        "/query?topic=/q/s1&t0=" + std::to_string(2 * kNsPerSec));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.content_type, "text/csv");
    EXPECT_EQ(resp.body.find("1000000000,10"), std::string::npos);
    EXPECT_NE(resp.body.find("/q/s1,2000000000,20"), std::string::npos);
    EXPECT_NE(resp.body.find("/q/s1,3000000000,30"), std::string::npos);

    EXPECT_EQ(http_get("127.0.0.1", agent.rest_port(), "/query").status,
              400);
    EXPECT_EQ(http_get("127.0.0.1", agent.rest_port(),
                       "/query?topic=/q/s1&t0=abc")
                  .status,
              400);
    // Unknown topic: empty body, not an error.
    const auto empty = http_get("127.0.0.1", agent.rest_port(),
                                "/query?topic=/nope");
    EXPECT_EQ(empty.status, 200);
    EXPECT_TRUE(empty.body.empty());
}

TEST_F(CollectAgentTest, RestHelpAndNotFoundEnumerateEveryServedRoute) {
    CollectAgent agent(
        parse_config("global { listenTcp false ; restApi true }"),
        cluster_.get(), meta_.get());
    const auto port = agent.rest_port();
    ASSERT_GT(port, 0);

    const auto help = http_get("127.0.0.1", port, "/");
    ASSERT_EQ(help.status, 200);
    const auto not_found = http_get("127.0.0.1", port, "/nope");
    ASSERT_EQ(not_found.status, 404);

    // Every advertised route is served (not 404 — /query answers 400
    // without parameters) and both the help text and the 404 fallback
    // stay in lockstep with the dispatcher.
    for (const std::string route :
         {"/sensors", "/hierarchy", "/query", "/stats", "/healthz",
          "/readyz", "/traces", "/traces.json", "/metrics",
          "/metrics.json"}) {
        EXPECT_NE(help.body.find(route), std::string::npos)
            << route << " missing from /";
        EXPECT_NE(not_found.body.find(route), std::string::npos)
            << route << " missing from the 404 fallback";
        EXPECT_NE(http_get("127.0.0.1", port, route).status, 404)
            << route << " advertised but not served";
    }
}

// Both daemons serve the cache over "the same RESTful API" (paper,
// Section 5.3): fed the same readings, a cache-only Pusher and an agent
// answer the shared routes with the same bytes, and every route either
// one lists on `/` is served.
TEST_F(CollectAgentTest, PusherAndAgentAnswerTheSharedRoutesAlike) {
    CollectAgent agent(
        parse_config("global { listenTcp false ; restApi true }"),
        cluster_.get(), meta_.get());
    pusher::Pusher pusher(parse_config(
        "global { topicPrefix /v ; mqttBroker none ; restApi true }\n"));
    const std::string topic = "/v/tester/g/s0";
    for (TimestampNs i = 1; i <= 5; ++i) {
        const Reading reading{i * kNsPerSec, static_cast<Value>(10 * i)};
        pusher.cache().push(topic, reading);
        agent.ingest(topic, reading);
    }

    for (const std::string& path :
         {"/sensors" + topic, "/sensors" + topic + "?avg=60",
          "/sensors" + topic + "?avg=x", std::string("/sensors/v/nope"),
          std::string("/healthz")}) {
        const auto from_pusher =
            http_get("127.0.0.1", pusher.rest_port(), path);
        const auto from_agent = http_get("127.0.0.1", agent.rest_port(), path);
        EXPECT_EQ(from_pusher.status, from_agent.status) << path;
        EXPECT_EQ(from_pusher.body, from_agent.body) << path;
    }
    const auto agent_get = [&agent](const std::string& path) {
        return http_get("127.0.0.1", agent.rest_port(), path).body;
    };
    EXPECT_EQ(agent_get("/sensors" + topic), "5000000000 50\n");
    EXPECT_EQ(agent_get("/sensors" + topic + "?avg=60"), "30.000000\n");

    for (const std::uint16_t port : {pusher.rest_port(), agent.rest_port()}) {
        const auto help = http_get("127.0.0.1", port, "/");
        ASSERT_EQ(help.status, 200);
        std::string listed = help.body.substr(help.body.find(':') + 1);
        if (!listed.empty() && listed.back() == '\n') listed.pop_back();
        const auto routes = split_nonempty(listed, ' ');
        EXPECT_EQ(routes.size(), 10u) << help.body;
        for (const auto& route : routes) {
            EXPECT_NE(http_get("127.0.0.1", port, route).status, 404)
                << route << " listed on " << port << " but not served";
        }
    }
}

TEST_F(CollectAgentTest, HealthzAndReadyzReportStoreAndMaintenance) {
    CollectAgent agent(
        parse_config("global { listenTcp false ; restApi true ;\n"
                     "  storeMaintenance 50ms }"),
        cluster_.get(), meta_.get());
    const auto port = agent.rest_port();
    ASSERT_GT(port, 0);

    const auto health = http_get("127.0.0.1", port, "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("ok"), std::string::npos);

    // Store writable + owned maintenance thread alive = ready.
    ASSERT_TRUE(cluster_->maintenance_running());
    const auto ready = http_get("127.0.0.1", port, "/readyz");
    EXPECT_EQ(ready.status, 200);
    EXPECT_NE(ready.body.find("\"ready\":true"), std::string::npos);

    // The probe itself reports the failure cause once the maintenance
    // thread the agent owns is gone.
    cluster_->stop_maintenance();
    const auto degraded = agent.readiness();
    EXPECT_FALSE(degraded.ready);
    EXPECT_EQ(degraded.reason, "maintenance thread not running");
    const auto not_ready = http_get("127.0.0.1", port, "/readyz");
    EXPECT_EQ(not_ready.status, 503);
    EXPECT_NE(not_ready.body.find("maintenance"), std::string::npos);
}

TEST_F(CollectAgentTest, ManyConcurrentPushersAllIngested) {
    CollectAgent agent(parse_config("global { listenTcp false }"),
                       cluster_.get(), meta_.get());
    constexpr int kPushers = 10;
    constexpr int kReadingsEach = 100;
    std::vector<std::thread> threads;
    threads.reserve(kPushers);
    for (int p = 0; p < kPushers; ++p) {
        threads.emplace_back([&agent, p] {
            mqtt::MqttClient client(agent.connect_inproc(),
                                    "p" + std::to_string(p));
            client.connect();
            for (int i = 0; i < kReadingsEach; ++i) {
                client.publish(
                    "/host" + std::to_string(p) + "/s",
                    encode_readings({{static_cast<TimestampNs>(i + 1),
                                      static_cast<Value>(i)}}),
                    0);
            }
            client.disconnect();
        });
    }
    for (auto& t : threads) t.join();
    for (int spin = 0;
         spin < 200 && agent.stats().readings < kPushers * kReadingsEach;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(agent.stats().readings,
              static_cast<std::uint64_t>(kPushers) * kReadingsEach);
    for (int p = 0; p < kPushers; ++p) {
        EXPECT_EQ(query_topic(*cluster_, agent.mapper(),
                              "/host" + std::to_string(p) + "/s", 0,
                              kTimestampMax)
                      .size(),
                  static_cast<std::size_t>(kReadingsEach));
    }
}

}  // namespace
}  // namespace dcdb::collectagent
