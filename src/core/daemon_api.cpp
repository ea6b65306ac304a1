#include "core/daemon_api.hpp"

#include <optional>
#include <sstream>
#include <string_view>

#include "common/string_utils.hpp"
#include "telemetry/export.hpp"

namespace dcdb {

namespace {

constexpr std::string_view kSensors = "/sensors";

}  // namespace

DaemonApi::DaemonApi(Daemon daemon,
                     std::initializer_list<const char*> own_routes)
    : daemon_(std::move(daemon)),
      hits_(daemon_.registry.counter(daemon_.metric_name + ".cache.hits")),
      misses_(
          daemon_.registry.counter(daemon_.metric_name + ".cache.misses")) {
    routes_ = " /sensors";
    for (const char* route : own_routes) (routes_ += ' ') += route;
    routes_ += " /healthz /readyz /traces /traces.json /metrics"
               " /metrics.json";
}

HttpResponse DaemonApi::serve(const HttpRequest& req) const {
    if (starts_with(req.path, kSensors)) return sensors(req);
    if (req.path == "/healthz")
        return HttpResponse::json("{\"status\":\"ok\"}\n");
    if (req.path == "/readyz") {
        const Readiness readiness = daemon_.readiness();
        return {readiness.ready ? 200 : 503, "application/json",
                std::string("{\"ready\":") +
                    (readiness.ready ? "true" : "false") +
                    ",\"reason\":\"" + readiness.reason + "\"}\n"};
    }
    if (req.path == "/traces")
        return HttpResponse::ok(
            telemetry::trace::to_text(daemon_.tracer, daemon_.trace_site));
    if (req.path == "/traces.json")
        return HttpResponse::json(
            telemetry::trace::to_json(daemon_.tracer, daemon_.trace_site));
    if (req.path == "/metrics")
        return HttpResponse::ok(telemetry::to_prometheus(daemon_.registry),
                                "text/plain; version=0.0.4");
    if (req.path == "/metrics.json")
        return HttpResponse::ok(telemetry::to_json(daemon_.registry),
                                "application/json");
    if (req.path == "/")
        return HttpResponse::ok("dcdb " + daemon_.title + ":" + routes_ +
                                "\n");
    return HttpResponse::not_found("not found; routes:" + routes_ + "\n");
}

HttpResponse DaemonApi::sensors(const HttpRequest& req) const {
    const std::string topic = req.path.substr(kSensors.size());
    if (topic.empty() || topic == "/") {
        std::ostringstream os;
        for (const auto& t : daemon_.cache.topics()) os << t << "\n";
        return HttpResponse::ok(os.str());
    }
    std::optional<std::string> body;
    const auto avg_param = req.query.find("avg");
    if (avg_param != req.query.end()) {
        const auto secs = parse_double(avg_param->second);
        if (!secs) return HttpResponse::bad_request("bad avg parameter\n");
        if (const auto avg = daemon_.cache.average(
                topic, static_cast<TimestampNs>(*secs * 1e9)))
            body = strfmt("%.6f\n", *avg);
    } else if (const auto latest = daemon_.cache.latest(topic)) {
        body = strfmt("%llu %lld\n",
                      static_cast<unsigned long long>(latest->ts),
                      static_cast<long long>(latest->value));
    }
    if (!body) {
        misses_.add(1);
        return HttpResponse::not_found("no data for " + topic + "\n");
    }
    hits_.add(1);
    return HttpResponse::ok(std::move(*body));
}

}  // namespace dcdb
