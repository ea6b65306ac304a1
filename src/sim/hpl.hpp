// HPL analog: a compute-bound multi-threaded kernel standing in for the
// shared-memory Intel-MKL Linpack runs of the paper's Sections 6.2/6.3.
//
// The property the overhead experiments need is that the kernel saturates
// every hardware thread with floating-point work, so any CPU time stolen
// by a Pusher's sampler threads lengthens the measured runtime. A blocked
// DGEMM delivers exactly that (HPL's runtime is >90% DGEMM).
#pragma once

#include <cstddef>

namespace dcdb::sim {

struct HplResult {
    double seconds{0};      // wall time for the fixed work package
    double cpu_seconds{0};  // CPU time of the workers, summed
    double gflops{0};       // achieved rate
};

class HplAnalog {
  public:
    /// `threads`: worker count (0 = all hardware threads).
    /// `matrix_n`: DGEMM operand size per block; work is fixed per run.
    explicit HplAnalog(int threads = 0, std::size_t matrix_n = 192);

    /// Calibrate `repetitions` so one run() takes roughly
    /// `target_seconds` on the unloaded machine. Sized from the workers'
    /// CPU time, so a busy machine does not skew it.
    void calibrate(double target_seconds);

    /// Execute the fixed work package; returns wall time and rate.
    HplResult run() const;

    int threads() const { return threads_; }
    std::size_t repetitions() const { return repetitions_; }
    void set_repetitions(std::size_t r) { repetitions_ = r; }

  private:
    int threads_;
    std::size_t n_;
    std::size_t repetitions_{8};
};

}  // namespace dcdb::sim
