// dcdbcollectagent: the deployable data-broker daemon.
//
// Usage: dcdbcollectagent CONFIG_FILE DB_DIR [--nodes N] [--partitioner P]
//
// Starts a storage cluster rooted at DB_DIR, the Collect Agent's MQTT
// broker and (if enabled) REST API, and runs until SIGINT/SIGTERM.
// Ingest statistics are printed once per minute.
#include <csignal>
#include <cstdio>
#include <thread>

#include "collectagent/collect_agent.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "store/cluster.hpp"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
    std::string config_path;
    std::string db_dir;
    std::size_t nodes = 1;
    std::string partitioner = "hierarchy";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--nodes" && i + 1 < argc) {
            nodes = dcdb::parse_u64(argv[++i]).value_or(1);
        } else if (arg == "--partitioner" && i + 1 < argc) {
            partitioner = argv[++i];
        } else if (config_path.empty()) {
            config_path = arg;
        } else {
            db_dir = arg;
        }
    }
    if (config_path.empty() || db_dir.empty()) {
        std::fprintf(stderr,
                     "usage: dcdbcollectagent CONFIG_FILE DB_DIR "
                     "[--nodes N] [--partitioner hierarchy|murmur3]\n");
        return 2;
    }
    dcdb::Logger::instance().set_level(dcdb::LogLevel::kInfo);

    try {
        const auto config = dcdb::parse_config_file(config_path);
        // One registry for the whole daemon: the agent's collectagent.*
        // and mqtt.broker.* metrics and every store.node<i>.* metric show
        // up on the same /metrics page.
        dcdb::telemetry::MetricRegistry registry;
        dcdb::store::ClusterConfig cluster_config{
            db_dir, nodes, 1, partitioner, 64u << 20, true};
        cluster_config.registry = &registry;
        dcdb::store::StoreCluster cluster(cluster_config);
        dcdb::store::MetaStore meta(db_dir + "/meta.log");
        dcdb::collectagent::CollectAgent agent(config, &cluster, &meta,
                                               &registry);

        std::printf("dcdbcollectagent: MQTT on 127.0.0.1:%u",
                    agent.mqtt_port());
        if (agent.rest_port() != 0)
            std::printf(", REST on 127.0.0.1:%u", agent.rest_port());
        std::printf(", %zu storage node(s) under %s\n", nodes,
                    db_dir.c_str());

        std::signal(SIGINT, handle_signal);
        std::signal(SIGTERM, handle_signal);
        auto last_report = std::chrono::steady_clock::now();
        while (!g_stop) {
            // dcdblint: allow-sleep (main-thread signal poll loop)
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            const auto now = std::chrono::steady_clock::now();
            if (now - last_report >= std::chrono::minutes(1)) {
                last_report = now;
                const auto stats = agent.stats();
                std::printf(
                    "dcdbcollectagent: %llu messages, %llu readings, "
                    "%zu sensors, %llu decode errors, %llu store errors "
                    "(%llu readings refused)\n",
                    static_cast<unsigned long long>(stats.messages),
                    static_cast<unsigned long long>(stats.readings),
                    stats.known_sensors,
                    static_cast<unsigned long long>(stats.decode_errors),
                    static_cast<unsigned long long>(stats.store_errors),
                    static_cast<unsigned long long>(stats.refused));
            }
        }
        std::printf("dcdbcollectagent: shutting down\n");
        cluster.flush_all();
        agent.stop();
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dcdbcollectagent: %s\n", e.what());
        return 1;
    }
}
