// SNMP plugin: out-of-band facility/IT sensors over real UDP SNMPv2c
// (paper, Sections 3.1 and 7.1 — the cooling case study's data path).
//
// Configuration:
//   snmp {
//       entity agent0 { port 16161 ; community public }
//       group pdu {
//           entity agent0
//           interval 1s
//           sensor outlet0 { oid 1.3.6.1.4.1.1000.1 }
//       }
//   }
#pragma once

#include <string>

#include "pusher/plugin.hpp"

namespace dcdb::plugins {

class SnmpPlugin final : public pusher::Plugin {
  public:
    std::string name() const override { return "snmp"; }
    void configure(const ConfigNode& config,
                   const pusher::PluginContext& ctx) override;
};

}  // namespace dcdb::plugins
