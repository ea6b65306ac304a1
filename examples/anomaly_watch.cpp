// Online anomaly detection with the streaming analytics layer.
//
// The paper's future-work vision (Section 9): "a streaming data
// analytics layer ... able to fetch live sensor data and perform online
// data analytics at the Collect Agent ... such as energy efficiency
// optimization or anomaly detection". This example monitors a node's
// power draw, smooths it, derives a sliding average, and raises events
// in real time when a power excursion occurs — which we provoke halfway
// through the run by injecting a fault into the simulated device.
//
// Run:  ./anomaly_watch [seconds]
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "analytics/operators.hpp"
#include "analytics/pipeline.hpp"
#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "common/random.hpp"
#include "net/http.hpp"
#include "pusher/pusher.hpp"
#include "store/cluster.hpp"

using namespace dcdb;

int main(int argc, char** argv) {
    const int seconds = argc > 1 ? std::atoi(argv[1]) : 10;
    const std::string dir = "/tmp/dcdb_anomaly";
    std::filesystem::remove_all(dir);

    store::StoreCluster cluster({dir, 1, 1, "hierarchy", 8u << 20, false});
    store::MetaStore meta(dir + "/meta.log");
    collectagent::CollectAgent agent(
        parse_config("global { listenTcp true }"), &cluster, &meta);

    // Streaming analytics attached at the Collect Agent, as sketched in
    // the paper: smooth + average every power sensor, flag anomalies.
    analytics::AnalyticsPipeline pipeline(agent);
    pipeline.add_stage("/node0/rest/psu/#",
                       std::make_shared<analytics::SlidingAverage>(
                           10 * kNsPerSec));
    pipeline.add_stage("/node0/rest/psu/#",
                       std::make_shared<analytics::ZScoreAnomaly>(32, 5.0));
    pipeline.add_stage("/node0/rest/psu/#",
                       std::make_shared<analytics::ThresholdAlert>(
                           0, 600000));  // raw values are milliwatts
    pipeline.set_event_handler([](const analytics::Event& e) {
        std::printf("  !! EVENT at t=%llu: %s\n",
                    static_cast<unsigned long long>(e.reading.ts / kNsPerSec),
                    e.detail.c_str());
    });

    // Simulated PSU behind a REST endpoint; we flip it into a fault state
    // halfway through the run.
    std::atomic<bool> faulty{false};
    Rng rng(11);
    HttpServer psu(0, [&](const HttpRequest& req) -> HttpResponse {
        if (req.path != "/power") return HttpResponse::not_found();
        const double base = faulty.load() ? 750.0 : 320.0;
        return HttpResponse::ok(
            std::to_string(base + rng.gaussian(0.0, 4.0)));
    });

    auto config = parse_config(
        "global {\n"
        "  mqttBroker 127.0.0.1:" + std::to_string(agent.mqtt_port()) + "\n"
        "  topicPrefix /node0\n"
        "  pushInterval 200ms\n"
        "}\n"
        "plugins {\n"
        "  rest {\n"
        "    entity psu { host 127.0.0.1 ; port " +
        std::to_string(psu.port()) + " }\n"
        "    group psu { entity psu ; interval 200ms\n"
        "      sensor power { path /power }\n"
        "    }\n"
        "  }\n"
        "}\n");
    pusher::Pusher pusher(std::move(config));
    pusher.start();

    std::printf("watching /node0/rest/psu/power (healthy ~320 W); "
                "fault injected at t+%ds...\n",
                seconds / 2);
    std::this_thread::sleep_for(std::chrono::seconds(seconds / 2));
    std::printf("  -> injecting PSU fault (draw jumps to ~750 W)\n");
    faulty.store(true);
    std::this_thread::sleep_for(
        std::chrono::seconds(seconds - seconds / 2));
    pusher.stop();

    std::printf(
        "\npipeline: %llu readings in, %llu derived out, %llu events\n",
        static_cast<unsigned long long>(pipeline.readings_processed()),
        static_cast<unsigned long long>(pipeline.derived_written()),
        static_cast<unsigned long long>(pipeline.events_emitted()));

    // The derived sliding-average series is a first-class stored sensor.
    const auto avg = agent.query_stored("/node0/rest/psu/power/avg", 0,
                                        kTimestampMax);
    std::printf("derived /node0/rest/psu/power/avg: %zu stored readings\n",
                avg.size());
    if (!avg.empty())
        std::printf("  first %.1f W -> last %.1f W (fault visible in the "
                    "derived series)\n",
                    static_cast<double>(avg.front().value) / 1000.0,
                    static_cast<double>(avg.back().value) / 1000.0);
    return 0;
}
