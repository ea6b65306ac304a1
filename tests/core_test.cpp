// Tests for the core sensor model: SIDs and the topic dictionary, reading
// payload codec, sensor caches and the hierarchy navigator.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "common/error.hpp"
#include "core/hierarchy.hpp"
#include "core/metadata.hpp"
#include "core/payload.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "core/topic_table.hpp"

namespace dcdb {
namespace {

// ------------------------------------------------------------------ SIDs

TEST(SensorId, LevelBitfieldAccess) {
    SensorId sid;
    sid.set_level(0, 0x0102);
    sid.set_level(7, 0xBEEF);
    EXPECT_EQ(sid.level(0), 0x0102);
    EXPECT_EQ(sid.level(7), 0xBEEF);
    EXPECT_EQ(sid.bytes[0], 0x01);
    EXPECT_EQ(sid.bytes[1], 0x02);
    EXPECT_EQ(sid.bytes[14], 0xBE);
    EXPECT_EQ(sid.bytes[15], 0xEF);
}

TEST(SensorId, HexIs32Chars) {
    SensorId sid;
    sid.set_level(0, 1);
    EXPECT_EQ(sid.hex().size(), 32u);
    EXPECT_EQ(sid.hex().substr(0, 4), "0001");
}

TEST(TopicMapper, MappingIsBijective) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    const std::vector<std::string> topics = {
        "/lrz/coolmuc3/rack0/node0/cpu0/instructions",
        "/lrz/coolmuc3/rack0/node0/cpu0/cycles",
        "/lrz/coolmuc3/rack0/node1/cpu0/instructions",
        "/lrz/coolmuc2/rack5/node3/power",
        "/facility/chillers/chiller1/inlet_temp",
    };
    std::set<std::string> hexes;
    for (const auto& topic : topics) {
        const SensorId sid = mapper.to_sid(topic);
        hexes.insert(sid.hex());
        EXPECT_EQ(mapper.to_topic(sid), topic);
    }
    EXPECT_EQ(hexes.size(), topics.size()) << "SIDs must be unique";
    EXPECT_EQ(mapper.known_topics(), topics.size());
}

TEST(TopicMapper, SameTopicAlwaysSameSid) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    const auto a = mapper.to_sid("/sys/node0/power");
    const auto b = mapper.to_sid("/sys/node0/power");
    const auto c = mapper.to_sid("sys/node0//power/");  // unnormalized
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}

TEST(TopicMapper, SharedComponentsShareLevelIds) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    const auto a = mapper.to_sid("/sys/node0/power");
    const auto b = mapper.to_sid("/sys/node1/power");
    EXPECT_EQ(a.level(0), b.level(0)) << "'sys' id shared at level 0";
    EXPECT_NE(a.level(1), b.level(1));
    // 'power' appears at the same depth in both topics.
    EXPECT_EQ(a.level(2), b.level(2));
}

TEST(TopicMapper, SubtreePrefixSharesSidPrefix) {
    // The property the hierarchy partitioner depends on: same hierarchy
    // prefix => same SID byte prefix.
    store::MetaStore meta;
    TopicMapper mapper(meta);
    const auto a = mapper.to_sid("/lrz/sng/rack1/node1/power");
    const auto b = mapper.to_sid("/lrz/sng/rack1/node2/temp");
    EXPECT_TRUE(std::equal(a.bytes.begin(), a.bytes.begin() + 6,
                           b.bytes.begin()));
}

TEST(TopicMapper, PersistsAcrossRestart) {
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "dcdb_mapper_test.log").string();
    fs::remove(path);
    SensorId original;
    {
        store::MetaStore meta(path);
        TopicMapper mapper(meta);
        original = mapper.to_sid("/sys/node0/power");
    }
    {
        store::MetaStore meta(path);
        TopicMapper mapper(meta);
        EXPECT_EQ(mapper.to_sid("/sys/node0/power"), original);
        EXPECT_EQ(mapper.to_topic(original), "/sys/node0/power");
        EXPECT_EQ(mapper.known_topics(), 1u);
    }
    fs::remove(path);
}

TEST(TopicMapper, RejectsTooDeepTopics) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    EXPECT_THROW(mapper.to_sid("/a/b/c/d/e/f/g/h/i"), Error);
    EXPECT_NO_THROW(mapper.to_sid("/a/b/c/d/e/f/g/h"));
}

TEST(TopicMapper, LookupDoesNotAllocate) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    SensorId sid;
    EXPECT_FALSE(mapper.lookup("/never/seen", sid));
    mapper.to_sid("/seen/once");
    EXPECT_TRUE(mapper.lookup("/seen/once", sid));
    EXPECT_EQ(mapper.known_topics(), 1u);
}

TEST(TopicMapper, ConcurrentMappingIsConsistent) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    constexpr int kThreads = 8;
    std::vector<SensorId> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&mapper, &results, t] {
            for (int i = 0; i < 200; ++i)
                results[t] = mapper.to_sid("/contended/topic");
        });
    }
    for (auto& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
}

TEST(SensorKey, BucketsSplitTimeSeries) {
    SensorId sid;
    sid.set_level(0, 1);
    const TimestampNs t0 = 5 * kBucketWidthNs + 1;
    const TimestampNs t1 = 6 * kBucketWidthNs + 1;
    EXPECT_EQ(sensor_key(sid, t0).bucket + 1, sensor_key(sid, t1).bucket);
    EXPECT_EQ(sensor_key(sid, t0).sid, sid.bytes);
}

// --------------------------------------------------------------- payload

TEST(Payload, RoundTrip) {
    std::vector<Reading> readings;
    for (int i = 0; i < 100; ++i)
        readings.push_back(
            {static_cast<TimestampNs>(1000 + i), static_cast<Value>(-i)});
    const auto bytes = encode_readings(readings);
    EXPECT_EQ(bytes.size(), 100 * kReadingWireBytes);
    const auto decoded = decode_readings(bytes);
    EXPECT_EQ(decoded, readings);
}

TEST(Payload, EmptyPayload) {
    EXPECT_TRUE(decode_readings(encode_readings({})).empty());
}

TEST(Payload, RejectsTruncatedPayload) {
    std::vector<std::uint8_t> bad(17, 0);
    EXPECT_THROW(decode_readings(bad), ProtocolError);
}

TEST(Payload, NegativeValuesSurvive) {
    const std::vector<Reading> readings = {
        {42, std::numeric_limits<Value>::min()},
        {43, std::numeric_limits<Value>::max()}};
    EXPECT_EQ(decode_readings(encode_readings(readings)), readings);
}

// ----------------------------------------------------------------- cache

TEST(SensorCache, LatestAndWindowView) {
    SensorCache cache(100 * kNsPerSec, kNsPerSec);
    for (TimestampNs t = 1; t <= 50; ++t)
        cache.push({t * kNsPerSec, static_cast<Value>(t)});
    ASSERT_TRUE(cache.latest().has_value());
    EXPECT_EQ(cache.latest()->value, 50);
    const auto view = cache.view(10 * kNsPerSec, 20 * kNsPerSec);
    ASSERT_EQ(view.size(), 11u);
    EXPECT_EQ(view.front().value, 10);
    EXPECT_EQ(view.back().value, 20);
}

TEST(SensorCache, EvictsOutsideWindow) {
    SensorCache cache(10 * kNsPerSec, kNsPerSec);
    for (TimestampNs t = 1; t <= 1000; ++t)
        cache.push({t * kNsPerSec, static_cast<Value>(t)});
    // Ring bounded by window/interval, not by total pushes.
    EXPECT_LE(cache.size(), 16u);
    EXPECT_EQ(cache.latest()->value, 1000);
}

TEST(SensorCache, GrowsWhenIntervalHintTooCoarse) {
    // Hint says 1s sampling but actual is 10ms: ring must grow, not drop.
    SensorCache cache(kNsPerSec, kNsPerSec);
    const TimestampNs base = 100 * kNsPerSec;
    for (int i = 0; i < 100; ++i)
        cache.push({base + static_cast<TimestampNs>(i) * 10 * kNsPerMs,
                    static_cast<Value>(i)});
    EXPECT_EQ(cache.size(), 100u);
    EXPECT_EQ(cache.view(0, kTimestampMax).size(), 100u);
}

TEST(SensorCache, GrowsForTimestampsSmallerThanWindow) {
    // Early-boot / test clocks: every timestamp is smaller than the
    // window, so everything is in-window and nothing may be evicted. The
    // unsigned window-start subtraction must not underflow and force
    // eviction instead of growth.
    SensorCache cache(100 * kNsPerSec, 50 * kNsPerSec);  // tiny ring
    for (TimestampNs t = 1; t <= 50; ++t)
        cache.push({t, static_cast<Value>(t)});
    EXPECT_EQ(cache.size(), 50u);
    const auto view = cache.view(0, kTimestampMax);
    ASSERT_EQ(view.size(), 50u);
    EXPECT_EQ(view.front().value, 1);
    EXPECT_EQ(view.back().value, 50);
}

TEST(SensorCache, AverageOverHorizon) {
    SensorCache cache(100 * kNsPerSec, kNsPerSec);
    for (TimestampNs t = 1; t <= 10; ++t)
        cache.push({t * kNsPerSec, 10});
    cache.push({11 * kNsPerSec, 40});
    // Horizon 0 -> only the latest reading.
    EXPECT_DOUBLE_EQ(cache.average(0).value(), 40.0);
    EXPECT_NEAR(cache.average(kTimestampMax).value(), (10 * 10 + 40) / 11.0,
                1e-9);
}

TEST(SensorCache, EmptyCacheBehaviour) {
    SensorCache cache;
    EXPECT_FALSE(cache.latest().has_value());
    EXPECT_FALSE(cache.average(kNsPerSec).has_value());
    EXPECT_TRUE(cache.view(0, kTimestampMax).empty());
}

TEST(CacheSet, PerTopicIsolationAndListing) {
    CacheSet set(60 * kNsPerSec);
    set.push("/b/t1", {1, 10});
    set.push("/a/t0", {1, 20});
    set.push("/b/t1", {2, 11});
    EXPECT_EQ(set.sensor_count(), 2u);
    EXPECT_EQ(set.latest("/b/t1")->value, 11);
    EXPECT_EQ(set.latest("/a/t0")->value, 20);
    EXPECT_FALSE(set.latest("/nope").has_value());
    const auto topics = set.topics();
    ASSERT_EQ(topics.size(), 2u);
    EXPECT_EQ(topics[0], "/a/t0");  // sorted
}

TEST(CacheSet, MemoryAccountingScalesWithSensors) {
    CacheSet small(60 * kNsPerSec);
    CacheSet large(60 * kNsPerSec);
    for (int i = 0; i < 10; ++i)
        small.push("/s" + std::to_string(i), {1, 1});
    for (int i = 0; i < 1000; ++i)
        large.push("/s" + std::to_string(i), {1, 1});
    EXPECT_GT(large.memory_bytes(), 10 * small.memory_bytes());
}

TEST(CacheSet, ConcurrentPushers) {
    CacheSet set(60 * kNsPerSec);
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&set, t] {
            for (int i = 0; i < 1000; ++i)
                set.push("/thread" + std::to_string(t),
                         {static_cast<TimestampNs>(i + 1), i});
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(set.sensor_count(), 4u);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(set.latest("/thread" + std::to_string(t))->value, 999);
}

// -------------------------------------------------------------- metadata

TEST(Metadata, SerializeRoundTrip) {
    SensorMetadata md;
    md.topic = "/sys/node0/power";
    md.unit = "mW";
    md.scale = 0.001;
    md.interval_ns = kNsPerSec;
    md.ttl_s = 86400;
    md.monotonic = true;
    const auto back =
        SensorMetadata::deserialize(md.topic, md.serialize());
    EXPECT_EQ(back.unit, "mW");
    EXPECT_DOUBLE_EQ(back.scale, 0.001);
    EXPECT_EQ(back.interval_ns, kNsPerSec);
    EXPECT_EQ(back.ttl_s, 86400u);
    EXPECT_TRUE(back.monotonic);
    EXPECT_FALSE(back.is_virtual);
}

TEST(Metadata, VirtualSensorExpressionSurvives) {
    SensorMetadata md;
    md.topic = "/virtual/pue";
    md.is_virtual = true;
    md.expression = "/fac/total_power / /sys/it_power";
    const auto back = SensorMetadata::deserialize(md.topic, md.serialize());
    EXPECT_TRUE(back.is_virtual);
    EXPECT_EQ(back.expression, "/fac/total_power / /sys/it_power");
}

TEST(Metadata, StorePublishListUnpublish) {
    store::MetaStore meta;
    MetadataStore mds(meta);
    SensorMetadata a;
    a.topic = "/sys/node0/power";
    a.unit = "W";
    mds.publish(a);
    SensorMetadata b;
    b.topic = "/sys/node1/power";
    b.unit = "W";
    mds.publish(b);

    ASSERT_TRUE(mds.get("/sys/node0/power").has_value());
    EXPECT_EQ(mds.get("/sys/node0/power")->unit, "W");
    EXPECT_EQ(mds.list("/sys").size(), 2u);
    EXPECT_EQ(mds.list().size(), 2u);
    mds.unpublish("/sys/node0/power");
    EXPECT_FALSE(mds.get("/sys/node0/power").has_value());
    EXPECT_EQ(mds.list().size(), 1u);
}

// ------------------------------------------------------------- hierarchy

TEST(SensorTree, ChildrenPerLevel) {
    SensorTree tree;
    tree.add("/lrz/sng/rack0/node0/power");
    tree.add("/lrz/sng/rack0/node1/power");
    tree.add("/lrz/sng/rack1/node0/power");
    tree.add("/lrz/cm2/rack0/node0/power");

    const auto systems = tree.children("/lrz");
    ASSERT_EQ(systems.size(), 2u);
    EXPECT_EQ(systems[0], "cm2");
    EXPECT_EQ(systems[1], "sng");
    EXPECT_EQ(tree.children("/lrz/sng").size(), 2u);
    EXPECT_EQ(tree.children("/").size(), 1u);
    EXPECT_TRUE(tree.children("/nope").empty());
}

TEST(SensorTree, SensorsBelowSubtree) {
    SensorTree tree;
    tree.add("/a/b/s1");
    tree.add("/a/b/s2");
    tree.add("/a/c/s3");
    EXPECT_EQ(tree.sensors_below("/a/b").size(), 2u);
    EXPECT_EQ(tree.sensors_below("/a").size(), 3u);
    EXPECT_EQ(tree.sensors_below("").size(), 3u);
    EXPECT_EQ(tree.sensors_below("/a/b/s1").size(), 1u);
    // Prefix must respect level boundaries: "/a/bb/s" is not below "/a/b".
    tree.add("/a/bb/s4");
    EXPECT_EQ(tree.sensors_below("/a/b").size(), 2u);
    // Sorted, whatever the order of first sight.
    tree.add("/a/b/s0");
    EXPECT_EQ(tree.sensors_below("/a/b"),
              (std::vector<std::string>{"/a/b/s0", "/a/b/s1", "/a/b/s2"}));
}

TEST(SensorTree, IsSensorDistinguishesLeaves) {
    SensorTree tree;
    tree.add("/a/b/s1");
    tree.add("a//b/s1/");  // another spelling of the same sensor
    EXPECT_TRUE(tree.is_sensor("/a/b/s1"));
    EXPECT_TRUE(tree.is_sensor("//a/b/s1"));
    EXPECT_FALSE(tree.is_sensor("/a/b"));
    EXPECT_EQ(tree.sensor_count(), 1u);
}

// ------------------------------------------------------------ topic table

TEST(TopicTable, AnySpellingFindsTheNormalizedKey) {
    TopicTable<int> table;
    EXPECT_TRUE(table.try_emplace("a//b/", 7).second);
    ASSERT_NE(table.find("/a/b"), nullptr);
    EXPECT_EQ(*table.find("/a/b"), 7);
    EXPECT_EQ(table.find("a/b/"), table.find("/a/b"));
    EXPECT_EQ(table.find("/a"), nullptr);
    EXPECT_EQ(table.find("/a/b/c"), nullptr);

    const auto again = table.try_emplace("/a/b", 9);
    EXPECT_FALSE(again.second);
    EXPECT_EQ(*again.first, 7);  // the first value stays
    EXPECT_EQ(table.size(), 1u);
    table.for_each([](std::string_view key, const int& value) {
        EXPECT_EQ(key, "/a/b");
        EXPECT_EQ(value, 7);
    });
}

TEST(TopicTable, GrowingKeepsEveryEntryAtItsAddress) {
    TopicTable<std::string> table;
    std::vector<const std::string*> addresses;
    for (int i = 0; i < 1000; ++i) {
        const std::string topic = "/grow/s" + std::to_string(i);
        addresses.push_back(table.try_emplace(topic, topic).first);
    }
    EXPECT_EQ(table.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        const std::string topic = "/grow/s" + std::to_string(i);
        EXPECT_EQ(table.find(topic), addresses[static_cast<std::size_t>(i)]);
        EXPECT_EQ(*table.find(topic), topic);
    }
    std::size_t visited = 0;
    table.for_each([&](std::string_view key, const std::string& value) {
        EXPECT_EQ(key, "/grow/s" + std::to_string(visited));  // insertion order
        EXPECT_EQ(key, value);
        ++visited;
    });
    EXPECT_EQ(visited, 1000u);
}

}  // namespace
}  // namespace dcdb
