// The RESTful API routes that Pushers and Collect Agents share.
//
// "Collect Agents provide a sensor cache that can be queried via the
// same RESTful API [as Pushers]" (paper, Section 5.3). Both daemons keep
// their cache in a CacheSet, so one implementation serves its routes,
// the probes and the telemetry for both; each daemon's handler answers
// its own routes first and falls through to DaemonApi::serve.
//
//   GET /sensors                    cached sensor topics, sorted
//   GET /sensors<topic>             latest reading of a sensor
//   GET /sensors<topic>?avg=<sec>   windowed average
//   GET /healthz                    liveness
//   GET /readyz                     the daemon's readiness verdict
//   GET /traces, /traces.json       the flight recorder
//   GET /metrics, /metrics.json     the metric registry
//   GET /                           every route, in help order
//
// Any other path is a 404 that lists every route. `/` and the 404 both
// enumerate the one route list the API is built with, so the help text
// cannot drift from the dispatchers.
#pragma once

#include <functional>
#include <initializer_list>
#include <string>

#include "core/sensor_cache.hpp"
#include "net/http.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace dcdb {

/// A daemon's readiness verdict (REST /readyz); `reason` explains a
/// false one.
struct Readiness {
    bool ready{false};
    std::string reason;
};

class DaemonApi {
  public:
    /// What the shared routes read from one daemon.
    struct Daemon {
        std::string title;        // the `/` page: "dcdb <title>:"
        std::string trace_site;   // names the daemon in /traces
        std::string metric_name;  // <name>.cache.hits and .misses
        const CacheSet& cache;
        telemetry::MetricRegistry& registry;
        const telemetry::trace::Tracer& tracer;
        std::function<Readiness()> readiness;
    };

    /// `own_routes`: the daemon's own routes in help order, listed after
    /// /sensors. Registers the /sensors hit and miss counters.
    DaemonApi(Daemon daemon, std::initializer_list<const char*> own_routes);

    /// Answers a shared route, and any other path with the 404.
    HttpResponse serve(const HttpRequest& req) const;

  private:
    HttpResponse sensors(const HttpRequest& req) const;

    Daemon daemon_;
    std::string routes_;  // " /sensors /plugins ...", in help order
    telemetry::Counter& hits_;
    telemetry::Counter& misses_;
};

}  // namespace dcdb
