// Process self-metering: CPU load and memory usage.
//
// The paper's evaluation (Section 6.1) characterizes Pushers and Collect
// Agents by "CPU Load ... the percentage of active CPU time spent by a
// process against its total runtime, as measured by the Linux ps command"
// and "Memory Usage of a process ... quantified by ps". We reproduce both
// from /proc/self, so benches meter the very process under test.
#pragma once

#include <cstdint>

namespace dcdb {

struct ProcSample {
    std::uint64_t cpu_ns{0};   // user+system CPU time consumed so far
    std::uint64_t wall_ns{0};  // steady clock at sampling time
    std::uint64_t rss_bytes{0};
};

/// Snapshot of the calling process: utime+stime of all its threads from
/// getrusage(RUSAGE_SELF), resident set from /proc/self/statm (0 when
/// /proc is unavailable).
ProcSample sample_self();

/// CPU time consumed by the calling *thread* (CLOCK_THREAD_CPUTIME_ID).
std::uint64_t thread_cpu_ns();

/// Windowed CPU-load meter: load() returns the percentage of one core the
/// process used since the previous call (may exceed 100 on multi-threaded
/// processes, as in the paper's Figure 8 where the Collect Agent reaches
/// 900%).
class CpuLoadMeter {
  public:
    CpuLoadMeter() : last_(sample_self()) {}

    /// CPU load in percent over the window since the last call.
    double load_percent();

    /// Current resident set size in bytes.
    std::uint64_t rss_bytes() const;

  private:
    ProcSample last_;
};

}  // namespace dcdb
