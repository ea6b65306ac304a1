#include "pusher/rest_api.hpp"

#include <sstream>

#include "common/string_utils.hpp"
#include "pusher/pusher.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"

namespace dcdb::pusher {

namespace {

/// The real route set, in help order. `/` and the 404 fallback both
/// enumerate THIS table, so the help text cannot drift from the
/// dispatcher again — adding a route means adding it here.
constexpr const char* kRoutes[] = {
    "/sensors", "/plugins", "/config",  "/stats",        "/healthz",
    "/readyz",  "/traces",  "/traces.json", "/metrics", "/metrics.json",
};

std::string route_list() {
    std::string out;
    for (const char* route : kRoutes) {
        out += ' ';
        out += route;
    }
    return out;
}

HttpResponse handle_readyz(Pusher& pusher) {
    // Ready = the path to the Collect Agent is up (an unconfigured
    // broker means cache-only operation, which is as ready as it gets).
    const bool ready = !pusher.mqtt_configured() || pusher.mqtt_connected();
    if (ready)
        return HttpResponse::json("{\"ready\":true,\"reason\":\"ok\"}\n");
    return {503, "application/json",
            "{\"ready\":false,\"reason\":\"mqtt session down\"}\n"};
}

HttpResponse handle_sensors(Pusher& pusher, const HttpRequest& req) {
    const std::string topic = req.path.substr(std::string("/sensors").size());
    if (topic.empty() || topic == "/") {
        std::ostringstream os;
        for (const auto& t : pusher.cache().topics()) os << t << "\n";
        return HttpResponse::ok(os.str());
    }

    telemetry::Counter& hits = pusher.telemetry().counter("pusher.cache.hits");
    telemetry::Counter& misses =
        pusher.telemetry().counter("pusher.cache.misses");

    const auto avg_param = req.query.find("avg");
    if (avg_param != req.query.end()) {
        const auto secs = parse_double(avg_param->second);
        if (!secs) return HttpResponse::bad_request("bad avg parameter\n");
        const auto avg = pusher.cache().average(
            topic, static_cast<TimestampNs>(*secs * 1e9));
        if (!avg) {
            misses.add(1);
            return HttpResponse::not_found("no data for " + topic + "\n");
        }
        hits.add(1);
        return HttpResponse::ok(strfmt("%.6f\n", *avg));
    }

    const auto latest = pusher.cache().latest(topic);
    if (!latest) {
        misses.add(1);
        return HttpResponse::not_found("no data for " + topic + "\n");
    }
    hits.add(1);
    return HttpResponse::ok(strfmt("%llu %lld\n",
                                   static_cast<unsigned long long>(latest->ts),
                                   static_cast<long long>(latest->value)));
}

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
    return std::make_unique<HttpServer>(
        0,
        [&pusher](const HttpRequest& req) -> HttpResponse {
            if (starts_with(req.path, "/sensors"))
                return handle_sensors(pusher, req);
            if (starts_with(req.path, "/plugins"))
                return handle_plugins(pusher, req);
            if (req.path == "/config") {
                ReaderLock lock(pusher.plugins_mutex());
                return HttpResponse::ok(pusher.config().to_string());
            }
            if (req.path == "/stats") return handle_stats(pusher);
            if (req.path == "/healthz")
                return HttpResponse::json("{\"status\":\"ok\"}\n");
            if (req.path == "/readyz") return handle_readyz(pusher);
            if (req.path == "/traces")
                return HttpResponse::ok(
                    telemetry::trace::to_text(pusher.tracer(), "pusher"));
            if (req.path == "/traces.json")
                return HttpResponse::json(
                    telemetry::trace::to_json(pusher.tracer(), "pusher"));
            if (req.path == "/metrics")
                return HttpResponse::ok(
                    telemetry::to_prometheus(pusher.telemetry()),
                    "text/plain; version=0.0.4");
            if (req.path == "/metrics.json")
                return HttpResponse::ok(
                    telemetry::to_json(pusher.telemetry()),
                    "application/json");
            if (req.path == "/")
                return HttpResponse::ok("dcdb pusher:" + route_list() +
                                        "\n");
            return HttpResponse::not_found("not found; routes:" +
                                           route_list() + "\n");
        },
        &pusher.telemetry());
}

}  // namespace dcdb::pusher
