// Simulated per-core performance-monitoring unit.
//
// Stands in for perf_event_open, which is unavailable/unprivileged in
// this environment. Counters advance with wall (or simulated) time
// according to an application model's phase-structured IPC, preserving
// the properties the perfevents plugin and Figure 10 rely on: per-core
// granularity, monotonic accumulation, and IPC/power correlation.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "sim/apps.hpp"
#include "sim/arch.hpp"
#include "sim/power.hpp"

namespace dcdb::sim {

struct CoreCounters {
    std::uint64_t instructions{0};
    std::uint64_t cycles{0};
    std::uint64_t cache_misses{0};
    std::uint64_t branch_misses{0};
};

class PerfCounterModel {
  public:
    PerfCounterModel(const ArchModel& arch, const AppModel& app,
                     std::uint64_t seed = 11);

    /// Advance the simulation to run offset `t_s` (monotone) and return
    /// nothing; counters accumulate internally.
    void advance_to(double t_s);

    /// Counter snapshot for one hardware thread.
    CoreCounters core(std::size_t core_index) const;

    /// Node power at the current simulation time (correlated with the
    /// active phase, as in a real system).
    double power_w() const { return last_power_w_; }

    std::size_t core_count() const { return cores_.size(); }

    const ArchModel& arch() const { return arch_; }
    const AppModel& app() const { return app_; }

  private:
    ArchModel arch_;
    AppModel app_;
    NodePowerModel power_;
    mutable std::mutex mutex_;
    std::vector<CoreCounters> cores_;
    std::vector<Rng> core_rng_;
    double t_{0};
    double last_power_w_;
};

}  // namespace dcdb::sim
