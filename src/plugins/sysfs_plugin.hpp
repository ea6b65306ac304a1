// SysFS plugin: samples single-value kernel files ("we use SysFS to
// sample various temperature and energy sensors", paper Section 6.2.1).
//
// Configuration:
//   sysfs {
//       group temps {
//           interval 1s
//           sensor cpu_temp {
//               path  /sys/class/thermal/thermal_zone0/temp
//               delta false       ; optional (for energy counters)
//           }
//       }
//   }
#pragma once

#include <string>

#include "pusher/plugin.hpp"

namespace dcdb::plugins {

class SysfsPlugin final : public pusher::Plugin {
  public:
    std::string name() const override { return "sysfs"; }
    void configure(const ConfigNode& config,
                   const pusher::PluginContext& ctx) override;
};

}  // namespace dcdb::plugins
