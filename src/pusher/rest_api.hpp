// Pusher RESTful API (paper, Section 5.3): retrieve the configuration,
// start/stop/reload individual plugins, and read the sensor cache. The
// cache, probe and telemetry routes are the ones every daemon serves
// (core/daemon_api.hpp); the Pusher adds:
//
//   GET  /plugins                      plugin list with status
//   PUT  /plugins/<name>/start|stop    control sampling
//   PUT  /plugins/<name>/reload        re-read plugin configuration
//   GET  /config                       running configuration
//   GET  /stats                        sampling and push counters
#pragma once

#include <memory>

#include "net/http.hpp"

namespace dcdb::pusher {

class Pusher;

/// Create the HTTP server bound to an ephemeral localhost port.
std::unique_ptr<HttpServer> make_pusher_rest_server(Pusher& pusher);

}  // namespace dcdb::pusher
