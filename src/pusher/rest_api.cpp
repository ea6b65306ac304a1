#include "pusher/rest_api.hpp"

#include <sstream>

#include "common/string_utils.hpp"
#include "core/daemon_api.hpp"
#include "pusher/pusher.hpp"

namespace dcdb::pusher {

namespace {

HttpResponse handle_plugins(Pusher& pusher, const HttpRequest& req) {
    const auto parts = split_nonempty(req.path, '/');
    // parts[0] == "plugins"
    if (parts.size() == 1) {
        if (req.method != "GET")
            return {405, "text/plain", "method not allowed\n"};
        std::ostringstream os;
        ReaderLock lock(pusher.plugins_mutex());
        for (const auto& plugin : pusher.plugins()) {
            os << plugin->name() << " "
               << (plugin->running() ? "running" : "stopped") << " "
               << plugin->sensor_count() << " sensors\n";
        }
        return HttpResponse::ok(os.str());
    }
    if (parts.size() != 3 || req.method != "PUT")
        return HttpResponse::bad_request(
            "use PUT /plugins/<name>/start|stop|reload\n");

    Plugin* plugin = pusher.find_plugin(parts[1]);
    if (!plugin) return HttpResponse::not_found("no such plugin\n");
    const std::string& action = parts[2];
    if (action == "start") {
        ReaderLock lock(pusher.plugins_mutex());
        plugin->start();
        return HttpResponse::ok("started\n");
    }
    if (action == "stop") {
        ReaderLock lock(pusher.plugins_mutex());
        plugin->stop();
        return HttpResponse::ok("stopped\n");
    }
    if (action == "reload") {
        pusher.reload_plugin(parts[1]);
        return HttpResponse::ok("reloaded\n");
    }
    return HttpResponse::bad_request("unknown action: " + action + "\n");
}

HttpResponse handle_stats(Pusher& pusher) {
    const auto s = pusher.stats();
    std::ostringstream os;
    os << "plugins " << s.plugins << "\n"
       << "sensors " << s.sensors << "\n"
       << "samples_taken " << s.samples_taken << "\n"
       << "readings_pushed " << s.readings_pushed << "\n"
       << "messages_sent " << s.messages_sent << "\n"
       << "publish_failures " << s.publish_failures << "\n"
       << "readings_dropped " << s.readings_dropped << "\n"
       << "readings_pending " << s.readings_pending << "\n"
       << "reconnects " << s.reconnects << "\n"
       << "reconnect_failures " << s.reconnect_failures << "\n"
       << "cache_bytes " << s.cache_bytes << "\n";
    return HttpResponse::ok(os.str());
}

}  // namespace

std::unique_ptr<HttpServer> make_pusher_rest_server(Pusher& pusher) {
    // Ready = the path to the Collect Agent is up (an unconfigured
    // broker means cache-only operation, which is as ready as it gets).
    const auto readiness = [&pusher] {
        if (!pusher.mqtt_configured() || pusher.mqtt_connected())
            return Readiness{true, "ok"};
        return Readiness{false, "mqtt session down"};
    };
    const DaemonApi api({"pusher", "pusher", "pusher", pusher.cache(),
                         pusher.telemetry(), pusher.tracer(), readiness},
                        {"/plugins", "/config", "/stats"});
    return std::make_unique<HttpServer>(
        0,
        [&pusher, api](const HttpRequest& req) -> HttpResponse {
            if (starts_with(req.path, "/plugins"))
                return handle_plugins(pusher, req);
            if (req.path == "/config") {
                ReaderLock lock(pusher.plugins_mutex());
                return HttpResponse::ok(pusher.config().to_string());
            }
            if (req.path == "/stats") return handle_stats(pusher);
            return api.serve(req);
        },
        &pusher.telemetry());
}

}  // namespace dcdb::pusher
