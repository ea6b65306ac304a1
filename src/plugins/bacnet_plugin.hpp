// BACnet plugin: building-management-system data (paper, Section 3.1 —
// chillers, pumps, air handlers). Reads present-value properties from a
// simulated BACnet device via the device registry.
//
// Configuration:
//   bacnet {
//       entity bms { device building0 }
//       group chillers {
//           entity bms
//           interval 10s
//           sensor inlet_temp { instance 101 }
//       }
//   }
#pragma once

#include <string>

#include "pusher/plugin.hpp"

namespace dcdb::plugins {

class BacnetPlugin final : public pusher::Plugin {
  public:
    std::string name() const override { return "bacnet"; }
    void configure(const ConfigNode& config,
                   const pusher::PluginContext& ctx) override;
};

}  // namespace dcdb::plugins
