// Deterministic pseudo-random utilities for the simulation substrates.
//
// Device models (temperatures, power draw, performance counters) need
// reproducible stochastic processes. We use SplitMix64/xoshiro256** so the
// whole evaluation pipeline is seedable and repeatable.
#pragma once

#include <cmath>
#include <cstdint>

namespace dcdb {

/// SplitMix64 — used to seed xoshiro and as a cheap standalone generator.
inline std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x5DEECE66Dull) {
        std::uint64_t sm = seed;
        for (auto& word : s_) word = splitmix64(sm);
    }

    std::uint64_t next_u64() {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double uniform() {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n) { return next_u64() % n; }

    /// Standard normal via Box-Muller (one value per call; simple and
    /// stateless, which keeps streams reproducible under reordering).
    double gaussian() {
        double u1 = uniform();
        if (u1 < 1e-300) u1 = 1e-300;
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    }

    double gaussian(double mean, double stddev) {
        return mean + stddev * gaussian();
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }
    std::uint64_t s_[4];
};

/// Ornstein-Uhlenbeck process: mean-reverting noise used for simulated
/// temperatures, fan speeds and power draw. dX = theta*(mu - X)dt + sigma*dW.
class OuProcess {
  public:
    OuProcess(double mu, double theta, double sigma, std::uint64_t seed)
        : mu_(mu), theta_(theta), sigma_(sigma), x_(mu), rng_(seed) {}

    /// Advance the process by dt seconds and return the new value. Uses
    /// the exact discretization (unconditionally stable for any dt):
    ///   X' = mu + (X - mu) e^{-theta dt}
    ///        + sigma sqrt((1 - e^{-2 theta dt}) / (2 theta)) N(0,1)
    double step(double dt) {
        const double decay = std::exp(-theta_ * dt);
        const double stationary_sd =
            sigma_ * std::sqrt((1.0 - decay * decay) / (2.0 * theta_));
        x_ = mu_ + (x_ - mu_) * decay + stationary_sd * rng_.gaussian();
        return x_;
    }

    double value() const { return x_; }
    double mean() const { return mu_; }

  private:
    double mu_;
    double theta_;
    double sigma_;
    double x_;
    Rng rng_;
};

}  // namespace dcdb
