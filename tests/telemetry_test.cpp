// Tests for the self-monitoring telemetry subsystem: metric primitives
// (sharded counter, gauge, log2 histogram), the registry and its
// name -> topic/SID mapping, the Prometheus/JSON exporters with their
// parser, and the end-to-end self-feed: a Pusher publishing its own
// metrics through MQTT into a Collect Agent's store, where dcdbquery
// can read them back like any facility sensor.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "core/sensor_id.hpp"
#include "net/http.hpp"
#include "pusher/pusher.hpp"
#include "store/cluster.hpp"
#include "store/metastore.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "tools/tools.hpp"

namespace dcdb::telemetry {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    TempDir() {
        path_ = fs::temp_directory_path() /
                ("dcdb_telemetry_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    static inline std::atomic<int> counter_{0};
    fs::path path_;
};

// ------------------------------------------------------------ primitives

TEST(Counter, ThreadedAddsLoseNothing) {
    constexpr int kThreads = 8;
    constexpr std::uint64_t kAdds = 50'000;
    Counter counter;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kAdds; ++i) counter.add(1);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(counter.value(), kThreads * kAdds);
}

TEST(Counter, AddWithArgument) {
    Counter counter;
    counter.add(5);
    counter.add();  // default 1
    EXPECT_EQ(counter.value(), 6u);
}

TEST(Gauge, SetAddSub) {
    Gauge gauge;
    EXPECT_EQ(gauge.value(), 0);
    gauge.set(10);
    gauge.add(5);
    gauge.sub(7);
    EXPECT_EQ(gauge.value(), 8);
    gauge.sub(20);
    EXPECT_EQ(gauge.value(), -12) << "gauges go negative, never wrap";
}

TEST(Histogram, BucketIndexBoundaries) {
    // Bucket 0 holds the value 0; bucket k >= 1 holds [2^(k-1), 2^k).
    EXPECT_EQ(histogram_bucket(0), 0u);
    EXPECT_EQ(histogram_bucket(1), 1u);
    EXPECT_EQ(histogram_bucket(2), 2u);
    EXPECT_EQ(histogram_bucket(3), 2u);
    EXPECT_EQ(histogram_bucket(4), 3u);
    EXPECT_EQ(histogram_bucket(7), 3u);
    EXPECT_EQ(histogram_bucket(8), 4u);
    EXPECT_EQ(histogram_bucket((std::uint64_t{1} << 32)), 33u);
    EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), 64u);
    static_assert(kHistogramBuckets == 65);

    EXPECT_EQ(histogram_bucket_bound(0), 0u);
    EXPECT_EQ(histogram_bucket_bound(1), 1u);
    EXPECT_EQ(histogram_bucket_bound(5), 31u);
    EXPECT_EQ(histogram_bucket_bound(64), ~std::uint64_t{0});
    // Every value lands in the bucket whose bound contains it.
    for (std::size_t k = 0; k < 64; ++k) {
        EXPECT_LE(histogram_bucket_bound(k),
                  histogram_bucket_bound(k + 1));
        EXPECT_EQ(histogram_bucket(histogram_bucket_bound(k)), k);
    }
}

TEST(Histogram, SnapshotCountSumQuantile) {
    Histogram hist;
    for (std::uint64_t v : {1u, 2u, 4u, 8u, 1024u}) hist.record(v);
    const auto snap = hist.snapshot();
    EXPECT_EQ(snap.count(), 5u);
    EXPECT_EQ(snap.sum, 1039u);
    // p50 must land in the middle of the recorded range, p99 near the top.
    EXPECT_GE(snap.quantile(0.5), 1.0);
    EXPECT_LE(snap.quantile(0.5), 8.0);
    EXPECT_GT(snap.quantile(0.99), 8.0);
    // Quantiles interpolate inside the log2 bucket holding the rank, so
    // p99 may exceed the max recorded value — but never its bucket bound.
    EXPECT_LE(snap.quantile(0.99),
              static_cast<double>(histogram_bucket_bound(
                  histogram_bucket(1024))));
    EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(Histogram, SnapshotsMerge) {
    Histogram a;
    Histogram b;
    a.record(1);
    a.record(100);
    b.record(50);
    auto snap = a.snapshot();
    snap.merge(b.snapshot());
    EXPECT_EQ(snap.count(), 3u);
    EXPECT_EQ(snap.sum, 151u);
}

TEST(Histogram, ThreadedRecordsLoseNothing) {
    constexpr int kThreads = 4;
    constexpr std::uint64_t kRecords = 20'000;
    Histogram hist;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kRecords; ++i) hist.record(i);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(hist.snapshot().count(), kThreads * kRecords);
}

// -------------------------------------------------------------- registry

TEST(Registry, GetOrCreateReturnsSameInstance) {
    MetricRegistry registry;
    Counter& a = registry.counter("pusher.push.readings");
    Counter& b = registry.counter("pusher.push.readings");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
    MetricRegistry registry;
    registry.counter("x.y");
    EXPECT_THROW(registry.gauge("x.y"), Error);
    EXPECT_THROW(registry.histogram("x.y"), Error);
    registry.histogram("lat");
    EXPECT_THROW(registry.counter("lat"), Error);
}

TEST(Registry, NameGrammar) {
    EXPECT_TRUE(MetricRegistry::valid_name("pusher.samples"));
    EXPECT_TRUE(MetricRegistry::valid_name("store.node0.flush_latency"));
    EXPECT_TRUE(MetricRegistry::valid_name("a"));
    EXPECT_TRUE(MetricRegistry::valid_name("a.b.c.d.e.f"));

    EXPECT_FALSE(MetricRegistry::valid_name(""));
    EXPECT_FALSE(MetricRegistry::valid_name("a.b.c.d.e.f.g")) << "7 levels";
    EXPECT_FALSE(MetricRegistry::valid_name(".a"));
    EXPECT_FALSE(MetricRegistry::valid_name("a."));
    EXPECT_FALSE(MetricRegistry::valid_name("a..b"));
    EXPECT_FALSE(MetricRegistry::valid_name("A.b")) << "uppercase";
    EXPECT_FALSE(MetricRegistry::valid_name("a-b")) << "dash not in alphabet";
    EXPECT_FALSE(MetricRegistry::valid_name("a b"));

    MetricRegistry registry;
    EXPECT_THROW(registry.counter("Bad.Name"), Error);
}

TEST(Registry, EntriesSortedAndTyped) {
    MetricRegistry registry;
    registry.histogram("b.lat").record(7);
    registry.counter("a.events").add(2);
    registry.gauge("c.depth").set(-4);

    const auto entries = registry.entries();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].name, "a.events");
    ASSERT_EQ(entries[0].kind, MetricKind::kCounter);
    EXPECT_EQ(entries[0].counter->value(), 2u);
    EXPECT_EQ(entries[1].name, "b.lat");
    ASSERT_EQ(entries[1].kind, MetricKind::kHistogram);
    EXPECT_EQ(entries[1].histogram->snapshot().count(), 1u);
    EXPECT_EQ(entries[2].name, "c.depth");
    ASSERT_EQ(entries[2].kind, MetricKind::kGauge);
    EXPECT_EQ(entries[2].gauge->value(), -4);
}

// ------------------------------------------------- name -> topic -> SID

TEST(Registry, NameMapsOntoTopicGrammar) {
    EXPECT_EQ(MetricRegistry::to_topic("/node0", "pusher.push.readings"),
              "/node0/telemetry/pusher/push/readings");
    // topicPrefix (1 level) + "telemetry" + 5 name levels == 7: fits.
    EXPECT_NO_THROW(MetricRegistry::to_topic("/n", "a.b.c.d.e"));
    // Reserving suffix room for /p50 etc. pushes it past 8 levels.
    EXPECT_THROW(MetricRegistry::to_topic("/n", "a.b.c.d.e.f", 1), Error);
    // A deep facility prefix leaves less room for the metric name.
    EXPECT_THROW(
        MetricRegistry::to_topic("/lrz/sng/rack0/node7", "a.b.c.d"),
        Error);
}

TEST(Registry, TelemetryTopicsRoundTripThroughSids) {
    store::MetaStore meta;
    TopicMapper mapper(meta);
    const std::string topic =
        MetricRegistry::to_topic("/rack0/node1", "collectagent.readings");
    const SensorId sid = mapper.to_sid(topic);
    EXPECT_EQ(mapper.to_topic(sid), topic)
        << "telemetry topics live in the ordinary SID space";
    SensorId again;
    ASSERT_TRUE(mapper.lookup(topic, again));
    EXPECT_EQ(again.bytes, sid.bytes);
}

// ------------------------------------------------------------- exporters

TEST(Export, PrometheusRoundTrip) {
    MetricRegistry registry;
    registry.counter("pusher.push.readings").add(1234);
    registry.gauge("pusher.retry.queue.batches").set(-2);
    auto& hist = registry.histogram("collectagent.store.latency");
    for (std::uint64_t v : {3u, 90u, 2000u}) hist.record(v);

    const std::string text = to_prometheus(registry);
    EXPECT_NE(text.find("# TYPE dcdb_pusher_push_readings counter"),
              std::string::npos);

    const ParsedMetrics parsed = parse_prometheus(text);
    ASSERT_TRUE(parsed.scalars.count("dcdb_pusher_push_readings"));
    EXPECT_EQ(parsed.scalars.at("dcdb_pusher_push_readings"), 1234.0);
    ASSERT_TRUE(parsed.scalars.count("dcdb_pusher_retry_queue_batches"));
    EXPECT_EQ(parsed.scalars.at("dcdb_pusher_retry_queue_batches"), -2.0);

    ASSERT_TRUE(parsed.histograms.count("dcdb_collectagent_store_latency"));
    const auto& h = parsed.histograms.at("dcdb_collectagent_store_latency");
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 2093.0);
    // The parsed cumulative buckets must reproduce the snapshot quantiles
    // to within log2-bucket resolution: both answers land in the bucket
    // holding the true median (90, bucket [64, 127]).
    const auto snap = hist.snapshot();
    EXPECT_EQ(histogram_bucket(static_cast<std::uint64_t>(h.quantile(0.5))),
              histogram_bucket(
                  static_cast<std::uint64_t>(snap.quantile(0.5))));

    // Comment and blank lines are skipped, never fatal.
    const auto lenient = parse_prometheus("# stray comment\n\nnospace\n");
    EXPECT_TRUE(lenient.scalars.empty());
    EXPECT_TRUE(lenient.histograms.empty());
}

TEST(Export, JsonContainsAllKinds) {
    MetricRegistry registry;
    registry.counter("a.count").add(7);
    registry.gauge("b.depth").set(3);
    registry.histogram("c.lat").record(64);
    const std::string json = to_json(registry);
    EXPECT_NE(json.find("\"a.count\""), std::string::npos);
    EXPECT_NE(json.find("\"b.depth\""), std::string::npos);
    EXPECT_NE(json.find("\"c.lat\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Export, PerfTableSortsAndTruncates) {
    ParsedMetrics metrics;
    metrics.scalars["dcdb_small"] = 1;
    metrics.scalars["dcdb_big"] = 1000;
    metrics.scalars["dcdb_mid"] = 50;
    ParsedHistogram hist;
    hist.cumulative = {{1.0, 1}, {1e9, 2}};
    hist.count = 2;
    metrics.histograms["dcdb_lat"] = hist;

    const std::string all = render_perf_table(metrics);
    const auto big = all.find("dcdb_big");
    const auto mid = all.find("dcdb_mid");
    const auto small = all.find("dcdb_small");
    ASSERT_NE(big, std::string::npos);
    ASSERT_NE(mid, std::string::npos);
    ASSERT_NE(small, std::string::npos);
    EXPECT_LT(big, mid) << "sorted by value, descending";
    EXPECT_LT(mid, small);
    EXPECT_NE(all.find("dcdb_lat"), std::string::npos);

    const std::string top1 = render_perf_table(metrics, 1);
    EXPECT_NE(top1.find("dcdb_big"), std::string::npos);
    EXPECT_EQ(top1.find("dcdb_small"), std::string::npos);
}

// ----------------------------------------------------- e2e: the self-feed
//
// A Pusher with telemetryFeed enabled publishes its own metrics through
// the (in-process) MQTT transport into a Collect Agent, which stores
// them like any facility sensor. After shutdown, dcdbquery reads DCDB's
// own history back from the on-disk database — the paper's "DCDB
// monitors itself with its own sensors" loop, closed.
TEST(SelfFeed, PusherMetricsFlowIntoStoreAndDcdbquery) {
    TempDir dir;
    const std::string samples_topic = "/e2e/telemetry/pusher/samples";
    {
        store::ClusterConfig cluster_config;
        cluster_config.base_dir = dir.str();
        cluster_config.nodes = 1;
        cluster_config.commitlog_enabled = false;
        store::StoreCluster cluster(cluster_config);
        store::MetaStore meta(dir.str() + "/meta.log");
        collectagent::CollectAgent agent(
            parse_config("global { listenTcp false ; restApi true }"),
            &cluster, &meta);

        pusher::Pusher pusher(
            parse_config(
                "global { topicPrefix /e2e ; pushInterval 50ms ; qos 1 ;\n"
                "  restApi true ; telemetryFeed true ;\n"
                "  telemetryInterval 50ms }\n"
                "plugins { tester { group g { sensors 2 ; interval 50ms } "
                "} }\n"),
            agent.connect_inproc());
        pusher.start();

        // Wait for the feed to produce stored history: counter sensors
        // (pusher.samples) and histogram quantile sensors both flow.
        const auto deadline = steady_ns() + 30 * kNsPerSec;
        while (steady_ns() < deadline &&
               agent.query_stored(samples_topic, 0, kTimestampMax).size() <
                   2) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        const auto stored =
            agent.query_stored(samples_topic, 0, kTimestampMax);
        ASSERT_GE(stored.size(), 2u)
            << "self-feed readings never reached the store";
        EXPECT_GT(stored.back().value, 0)
            << "pusher.samples must count the tester group's reads";
        EXPECT_GE(stored.back().value, stored.front().value)
            << "counters are monotonic";
        EXPECT_FALSE(agent
                         .query_stored("/e2e/telemetry/pusher/sample/"
                                       "latency/count",
                                       0, kTimestampMax)
                         .empty())
            << "histogram metrics feed quantile/count sensors";

        // /metrics on the Pusher's REST API round-trips live values:
        // bracket the HTTP read between two stats() snapshots, since the
        // counter keeps moving.
        ASSERT_NE(pusher.rest_port(), 0);
        const auto before = pusher.stats().samples_taken;
        const auto resp =
            http_get("127.0.0.1", pusher.rest_port(), "/metrics");
        const auto after = pusher.stats().samples_taken;
        ASSERT_EQ(resp.status, 200);
        const auto parsed = parse_prometheus(resp.body);
        ASSERT_TRUE(parsed.scalars.count("dcdb_pusher_samples"));
        const double served = parsed.scalars.at("dcdb_pusher_samples");
        EXPECT_GE(served, static_cast<double>(before));
        EXPECT_LE(served, static_cast<double>(after));
        ASSERT_TRUE(parsed.histograms.count("dcdb_pusher_sample_latency"));
        EXPECT_GT(parsed.histograms.at("dcdb_pusher_sample_latency").count,
                  0u);

        const auto json =
            http_get("127.0.0.1", pusher.rest_port(), "/metrics.json");
        ASSERT_EQ(json.status, 200);
        EXPECT_NE(json.body.find("\"pusher.samples\""), std::string::npos);

        // The Collect Agent's own /metrics reports the ingest side.
        ASSERT_NE(agent.rest_port(), 0);
        const auto agent_resp =
            http_get("127.0.0.1", agent.rest_port(), "/metrics");
        ASSERT_EQ(agent_resp.status, 200);
        const auto agent_parsed = parse_prometheus(agent_resp.body);
        ASSERT_TRUE(agent_parsed.scalars.count("dcdb_collectagent_readings"));
        EXPECT_GT(agent_parsed.scalars.at("dcdb_collectagent_readings"),
                  0.0);
        ASSERT_TRUE(
            agent_parsed.histograms.count("dcdb_collectagent_store_latency"));

        // dcdbconfig perf renders the same endpoint as a sorted table.
        std::ostringstream out;
        std::ostringstream err;
        ASSERT_EQ(tools::run_dcdbconfig(
                      {"perf",
                       "127.0.0.1:" + std::to_string(pusher.rest_port())},
                      out, err),
                  0)
            << err.str();
        EXPECT_NE(out.str().find("dcdb_pusher_samples"), std::string::npos);
        EXPECT_NE(out.str().find("dcdb_pusher_sample_latency"),
                  std::string::npos);

        pusher.stop();
        cluster.flush_all();
    }

    // Everything is down; the history survives on disk where the offline
    // tools can read it — DCDB's own telemetry is queryable data.
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(tools::run_dcdbquery(
                  {"--db", dir.str(), samples_topic, "--csv"}, out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find(samples_topic + ","), std::string::npos);
}

// The REST /sensors hit and miss counters exist from construction, not
// from the first /sensors request: /metrics lists only registered
// metrics, and the self-feed's sensor set is a snapshot of the registry
// taken when the Pusher is built.
TEST(SelfFeed, CacheCountersAreRegisteredBeforeAnyRequest) {
    TempDir dir;
    store::ClusterConfig cluster_config;
    cluster_config.base_dir = dir.str();
    cluster_config.nodes = 1;
    cluster_config.commitlog_enabled = false;
    store::StoreCluster cluster(cluster_config);
    store::MetaStore meta;
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false ; restApi true }"), &cluster,
        &meta);
    pusher::Pusher pusher(parse_config(
        "global { topicPrefix /fresh ; mqttBroker none ; restApi true ;\n"
        "  telemetryFeed true }\n"));

    std::set<std::string> feed;
    for (const auto& plugin : pusher.plugins())
        if (plugin->name() == "telemetry")
            for (const auto& group : plugin->groups())
                for (const auto& sensor : group->sensors())
                    feed.insert(sensor->name());
    for (const char* name : {"pusher.cache.hits", "pusher.cache.misses",
                             "pusher.push.pending"})
        EXPECT_EQ(feed.count(name), 1u) << name;

    const auto expect_zero_counters = [](std::uint16_t port,
                                         const std::string& daemon) {
        const auto resp = http_get("127.0.0.1", port, "/metrics");
        ASSERT_EQ(resp.status, 200);
        const auto parsed = parse_prometheus(resp.body);
        for (const char* stat : {"hits", "misses"}) {
            const std::string name = "dcdb_" + daemon + "_cache_" + stat;
            ASSERT_TRUE(parsed.scalars.count(name)) << name << "\n"
                                                    << resp.body;
            EXPECT_EQ(parsed.scalars.at(name), 0.0) << name;
        }
    };
    expect_zero_counters(pusher.rest_port(), "pusher");
    expect_zero_counters(agent.rest_port(), "collectagent");
}

TEST(PerfCommand, RejectsBadEndpoints) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(tools::run_dcdbconfig({"perf"}, out, err), 2);
    EXPECT_NE(err.str().find("usage"), std::string::npos);
    EXPECT_EQ(tools::run_dcdbconfig({"perf", "nohost"}, out, err), 2);
    EXPECT_EQ(tools::run_dcdbconfig({"perf", "h:0"}, out, err), 2);
}

// ================================================================ trace

TEST(Trace, StageNamesRoundTrip) {
    for (std::uint8_t s = 0; s < trace::kStageCount; ++s) {
        const auto stage = static_cast<trace::Stage>(s);
        const auto parsed = trace::stage_from_name(trace::stage_name(stage));
        ASSERT_TRUE(parsed.has_value()) << trace::stage_name(stage);
        EXPECT_EQ(*parsed, stage);
    }
    EXPECT_FALSE(trace::stage_from_name("nonsense").has_value());
}

TEST(Trace, HeadSamplingMintsAtConfiguredRate) {
    trace::Tracer::Config config;
    config.sample_every = 4;
    config.seed = 42;
    trace::Tracer tracer(config);
    std::size_t minted = 0;
    for (std::uint64_t i = 0; i < 1024; ++i) {
        const auto ctx = tracer.maybe_start(1000 + i);
        if (ctx.valid()) {
            ++minted;
            EXPECT_NE(ctx.trace_id, 0u);
            EXPECT_EQ(ctx.origin_ns, 1000 + i);
            EXPECT_TRUE(ctx.flags & trace::kFlagSampled);
        }
    }
    EXPECT_EQ(minted, 1024u / 4);
    EXPECT_EQ(tracer.minted_count(), minted);

    trace::Tracer::Config off;
    off.sample_every = 0;  // tracing disabled
    trace::Tracer disabled(off);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(disabled.maybe_start(i + 1).valid());
    EXPECT_EQ(disabled.minted_count(), 0u);
}

TEST(Trace, RingRecordsSpansAndSnapshotsInStartOrder) {
    trace::Tracer::Config config;
    config.sample_every = 1;
    trace::Tracer tracer(config);
    const auto ctx = tracer.maybe_start(500);
    ASSERT_TRUE(ctx.valid());
    tracer.record_span(ctx, trace::Stage::kPublish, 700, 30, 8);
    tracer.record_span(ctx, trace::Stage::kSample, 500, 100, 8);
    tracer.record_span(ctx, trace::Stage::kInsert, 900, 10, 8);

    const auto spans = tracer.ring_snapshot();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].stage, trace::Stage::kSample);
    EXPECT_EQ(spans[1].stage, trace::Stage::kPublish);
    EXPECT_EQ(spans[2].stage, trace::Stage::kInsert);
    for (const auto& span : spans) {
        EXPECT_EQ(span.trace_id, ctx.trace_id);
        EXPECT_EQ(span.readings, 8u);
    }
}

TEST(Trace, CompleteRetainsSlowestAndFlagsOutliers) {
    trace::Tracer::Config config;
    config.sample_every = 1;
    config.slowest_keep = 2;
    config.outlier_threshold_ns = 1000;  // fixed: no p99 warm-up needed
    trace::Tracer tracer(config);

    // Three traces: e2e 100 (fast), 500 (medium), 5000 (outlier).
    const auto fast = tracer.maybe_start(10);
    tracer.record_span(fast, trace::Stage::kSample, 10, 5, 1);
    tracer.complete(fast, 110);
    const auto medium = tracer.maybe_start(20);
    tracer.record_span(medium, trace::Stage::kSample, 20, 5, 1);
    tracer.complete(medium, 520);
    const auto slow = tracer.maybe_start(30);
    tracer.record_span(slow, trace::Stage::kSample, 30, 5, 1);
    tracer.complete(slow, 5030);

    EXPECT_EQ(tracer.completed_count(), 3u);
    EXPECT_EQ(tracer.forced_count(), 1u);  // only the 5000ns trace

    const auto slowest = tracer.slowest();
    ASSERT_EQ(slowest.size(), 2u);  // slowest_keep capped
    EXPECT_EQ(slowest[0].trace_id, slow.trace_id);
    EXPECT_EQ(slowest[0].e2e_ns, 5000u);
    EXPECT_TRUE(slowest[0].flags & trace::kFlagForced);
    EXPECT_EQ(slowest[1].trace_id, medium.trace_id);
    EXPECT_FALSE(slowest[1].flags & trace::kFlagForced);
    ASSERT_EQ(slowest[0].spans.size(), 1u);
    EXPECT_EQ(slowest[0].spans[0].stage, trace::Stage::kSample);
}

TEST(Trace, ReportRoundTripsThroughParserAndStitches) {
    trace::Tracer::Config config;
    config.sample_every = 1;
    trace::Tracer tracer(config);
    const auto ctx = tracer.maybe_start(1000);
    tracer.record_span(ctx, trace::Stage::kSample, 1000, 50, 4);
    tracer.record_span(ctx, trace::Stage::kPublish, 1100, 20, 4);
    tracer.complete(ctx, 1200);

    const std::string text = trace::to_text(tracer, "pusher");
    const auto report = trace::parse_report(text);
    EXPECT_EQ(report.site, "pusher");
    ASSERT_GE(report.spans.size(), 2u);
    bool saw_sample = false;
    for (const auto& span : report.spans) {
        EXPECT_EQ(span.trace_id, ctx.trace_id);
        if (span.stage == "sample") {
            saw_sample = true;
            EXPECT_EQ(span.start_ns, 1000u);
            EXPECT_EQ(span.duration_ns, 50u);
            EXPECT_EQ(span.readings, 4u);
        }
    }
    EXPECT_TRUE(saw_sample);

    // A second site recording a later stage of the same trace stitches
    // into one timeline ordered by start time.
    trace::Tracer::Config agent_config;
    agent_config.sample_every = 1;
    trace::Tracer agent_tracer(agent_config);
    agent_tracer.record_span(ctx, trace::Stage::kInsert, 1150, 30, 4);
    const auto agent_report =
        trace::parse_report(trace::to_text(agent_tracer, "agent"));

    const std::string timeline =
        trace::stitch_timeline({report, agent_report});
    EXPECT_NE(timeline.find("sample"), std::string::npos);
    EXPECT_NE(timeline.find("insert"), std::string::npos);
    EXPECT_NE(timeline.find("pusher"), std::string::npos);
    EXPECT_NE(timeline.find("agent"), std::string::npos);
    // sample (start 1000) must precede insert (start 1150).
    EXPECT_LT(timeline.find("sample"), timeline.find("insert"));

    // JSON view carries the same trace id.
    const std::string json = trace::to_json(tracer, "pusher");
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(ctx.trace_id));
    EXPECT_NE(json.find(hex), std::string::npos);
}

// The tentpole end-to-end check: a reading sampled on a live Pusher with
// head sampling at 1/1 carries its trace through coalesce → publish →
// broker → decode → insert, the agent completes it, and stitching the
// two /traces reports yields one timeline with both sites' stages in
// start order. This is the workflow `dcdbconfig trace HOST:PORT...`
// automates.
TEST(Trace, EndToEndStitchedTimelineAcrossPusherAndAgent) {
    TempDir dir;
    store::ClusterConfig cluster_config;
    cluster_config.base_dir = dir.str();
    cluster_config.nodes = 1;
    cluster_config.commitlog_enabled = true;
    cluster_config.commitlog_sync_every = 1;  // every batch syncs: kSync
    store::StoreCluster cluster(cluster_config);
    store::MetaStore meta(dir.str() + "/meta.log");
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp false ; restApi true }"),
        &cluster, &meta);

    pusher::Pusher pusher(
        parse_config("global { topicPrefix /trace ; pushInterval 20ms ;\n"
                     "  restApi true ; traceSampleRate 1 }\n"
                     "plugins { tester { group g { sensors 3 ;\n"
                     "  interval 20ms } } }\n"),
        agent.connect_inproc());
    pusher.start();

    // Wait for at least one trace to complete on the agent side.
    const auto deadline = steady_ns() + 30 * kNsPerSec;
    while (steady_ns() < deadline && agent.tracer().completed_count() < 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GE(agent.tracer().completed_count(), 1u)
        << "no trace completed end-to-end";
    EXPECT_GE(pusher.tracer().minted_count(), 1u);

    ASSERT_NE(pusher.rest_port(), 0);
    ASSERT_NE(agent.rest_port(), 0);
    const auto pusher_resp =
        http_get("127.0.0.1", pusher.rest_port(), "/traces");
    const auto agent_resp =
        http_get("127.0.0.1", agent.rest_port(), "/traces");
    ASSERT_EQ(pusher_resp.status, 200);
    ASSERT_EQ(agent_resp.status, 200);

    const auto pusher_report = trace::parse_report(pusher_resp.body);
    const auto agent_report = trace::parse_report(agent_resp.body);
    EXPECT_EQ(pusher_report.site, "pusher");
    EXPECT_EQ(agent_report.site, "agent");
    ASSERT_FALSE(pusher_report.spans.empty());
    ASSERT_FALSE(agent_report.spans.empty());

    const std::string timeline =
        trace::stitch_timeline({pusher_report, agent_report});
    // At least one stitched trace must cross the process boundary: the
    // pusher's sample stage and the agent's insert stage on one ID.
    EXPECT_NE(timeline.find("trace "), std::string::npos);
    EXPECT_NE(timeline.find("sample"), std::string::npos) << timeline;
    EXPECT_NE(timeline.find("insert"), std::string::npos) << timeline;
    EXPECT_NE(timeline.find("pusher"), std::string::npos);
    EXPECT_NE(timeline.find("agent"), std::string::npos);
    EXPECT_NE(timeline.find("log_append"), std::string::npos)
        << "store spans missing from the stitched timeline:\n" << timeline;

    // The CLI drives the same path end to end.
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(
        tools::run_dcdbconfig(
            {"trace", "127.0.0.1:" + std::to_string(pusher.rest_port()),
             "127.0.0.1:" + std::to_string(agent.rest_port())},
            out, err),
        0)
        << err.str();
    EXPECT_NE(out.str().find("sample"), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("insert"), std::string::npos) << out.str();

    // JSON twin serves the machine-readable form.
    const auto json_resp =
        http_get("127.0.0.1", agent.rest_port(), "/traces.json");
    ASSERT_EQ(json_resp.status, 200);
    EXPECT_NE(json_resp.body.find("\"spans\""), std::string::npos);

    // The agent's store-latency histogram carries a trace exemplar to
    // pivot from /metrics.json into /traces.
    const auto metrics_json =
        http_get("127.0.0.1", agent.rest_port(), "/metrics.json");
    ASSERT_EQ(metrics_json.status, 200);
    EXPECT_NE(metrics_json.body.find("\"exemplar\""), std::string::npos);

    pusher.stop();
}

TEST(Histogram, ExemplarTracksWorstPopulatedBucket) {
    Histogram h;
    h.record(10, 0x1111);
    h.record(1000, 0x2222);
    h.record(50);  // no exemplar
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.worst_exemplar(), 0x2222u);

    // Merge prefers the other side's exemplar when present.
    Histogram h2;
    h2.record(1u << 20, 0x3333);
    auto merged = h.snapshot();
    merged.merge(h2.snapshot());
    EXPECT_EQ(merged.worst_exemplar(), 0x3333u);

    // Exemplar-free histograms report none and export no exemplar key.
    Histogram plain;
    plain.record(5);
    EXPECT_EQ(plain.snapshot().worst_exemplar(), 0u);
}

TEST(Export, JsonCarriesHistogramExemplar) {
    MetricRegistry registry;
    registry.histogram("test.latency").record(1234, 0xABCDEF);
    const std::string json = to_json(registry);
    EXPECT_NE(json.find("\"exemplar\":\"0000000000abcdef\""),
              std::string::npos);
}

}  // namespace
}  // namespace dcdb::telemetry
