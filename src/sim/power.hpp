// Node power model: idle + activity-driven dynamic power with
// mean-reverting measurement noise. Drives the simulated power sensors
// (IPMI/SysFS) and the application-characterization case study.
#pragma once

#include <cstdint>

#include "common/random.hpp"
#include "sim/apps.hpp"
#include "sim/arch.hpp"

namespace dcdb::sim {

class NodePowerModel {
  public:
    NodePowerModel(const ArchModel& arch, AppModel app,
                   std::uint64_t seed = 7);

    /// Instantaneous node power draw in watts at run offset `t_s`.
    double power_w(double t_s);

  private:
    AppModel app_;
    double idle_w_;
    double peak_w_;
    OuProcess noise_;
    double last_t_{0};
};

}  // namespace dcdb::sim
