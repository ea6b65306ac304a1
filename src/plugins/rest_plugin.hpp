// REST plugin: samples numeric values from HTTP endpoints ("RESTful
// APIs" data source, paper Section 3.1; the cooling case study uses
// "the Pusher's REST and SNMP plugins", Section 7.1).
//
// Configuration:
//   rest {
//       entity cooling { host 127.0.0.1 ; port 8080 }
//       group loop {
//           entity cooling
//           interval 1s
//           sensor inlet_temp { path /inlet_temp }
//       }
//   }
//
// Endpoints must answer GET <path> with a plain-text number (integers or
// decimals; decimals are scaled by 1000 and published as milli-units).
#pragma once

#include <string>

#include "pusher/plugin.hpp"

namespace dcdb::plugins {

class RestPlugin final : public pusher::Plugin {
  public:
    std::string name() const override { return "rest"; }
    void configure(const ConfigNode& config,
                   const pusher::PluginContext& ctx) override;
};

}  // namespace dcdb::plugins
