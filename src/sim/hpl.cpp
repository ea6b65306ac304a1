#include "sim/hpl.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/proc_metrics.hpp"
#include "common/random.hpp"

namespace dcdb::sim {

namespace {

/// One worker's DGEMM package: C += A*B repeated `reps` times on
/// thread-private buffers (no sharing, no false sharing). Reports the
/// thread's CPU time in `cpu_ns`.
void dgemm_package(std::size_t n, std::size_t reps, std::uint64_t seed,
                   double* checksum, std::uint64_t* cpu_ns) {
    const std::uint64_t cpu0 = thread_cpu_ns();
    std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
    Rng rng(seed);
    for (auto& x : a) x = rng.uniform(-1.0, 1.0);
    for (auto& x : b) x = rng.uniform(-1.0, 1.0);

    constexpr std::size_t kBlock = 48;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t ii = 0; ii < n; ii += kBlock) {
            const std::size_t imax = std::min(ii + kBlock, n);
            for (std::size_t kk = 0; kk < n; kk += kBlock) {
                const std::size_t kmax = std::min(kk + kBlock, n);
                for (std::size_t i = ii; i < imax; ++i) {
                    for (std::size_t k = kk; k < kmax; ++k) {
                        const double aik = a[i * n + k];
                        double* crow = &c[i * n];
                        const double* brow = &b[k * n];
                        for (std::size_t j = 0; j < n; ++j)
                            crow[j] += aik * brow[j];
                    }
                }
            }
        }
    }
    // Fold the result so the work cannot be optimized away.
    double sum = 0;
    for (const double x : c) sum += x;
    *checksum = sum;
    *cpu_ns = thread_cpu_ns() - cpu0;
}

}  // namespace

HplAnalog::HplAnalog(int threads, std::size_t matrix_n)
    : threads_(threads > 0
                   ? threads
                   : static_cast<int>(std::thread::hardware_concurrency())),
      n_(matrix_n) {
    if (threads_ <= 0) threads_ = 2;
}

void HplAnalog::calibrate(double target_seconds) {
    repetitions_ = 1;
    const HplResult probe = run();
    // Per-worker CPU time is what the wall time would be with every
    // worker on its own idle core.
    const double per_rep = std::max(probe.cpu_seconds / threads_, 1e-4);
    repetitions_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(target_seconds / per_rep));
}

HplResult HplAnalog::run() const {
    std::vector<std::thread> workers;
    std::vector<double> checksums(static_cast<std::size_t>(threads_));
    std::vector<std::uint64_t> cpu_ns(static_cast<std::size_t>(threads_));
    workers.reserve(static_cast<std::size_t>(threads_));

    const ScopeTimer timer;
    for (int t = 0; t < threads_; ++t) {
        const auto i = static_cast<std::size_t>(t);
        workers.emplace_back(dgemm_package, n_, repetitions_,
                             static_cast<std::uint64_t>(t + 1),
                             &checksums[i], &cpu_ns[i]);
    }
    for (auto& w : workers) w.join();
    const double seconds = timer.elapsed_s();

    const double flops = 2.0 * static_cast<double>(n_) * n_ * n_ *
                         static_cast<double>(repetitions_) *
                         static_cast<double>(threads_);
    HplResult result;
    result.seconds = seconds;
    for (const std::uint64_t ns : cpu_ns)
        result.cpu_seconds += static_cast<double>(ns) / 1e9;
    result.gflops = flops / seconds / 1e9;
    return result;
}

}  // namespace dcdb::sim
