#include "common/fault.hpp"

#include <chrono>
#include <thread>

namespace dcdb {

FaultInjector& FaultInjector::instance() {
    static FaultInjector injector;
    return injector;
}

void FaultInjector::arm(FaultPoint point, FaultSpec spec,
                        std::uint64_t seed) {
    Slot& s = slot(point);
    MutexLock lock(s.mutex);
    s.spec = spec;
    s.rng = Rng(seed);
    s.triggers = 0;
    s.injected.store(0, std::memory_order_relaxed);
    s.rolls.store(0, std::memory_order_relaxed);
    s.armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm(FaultPoint point) {
    slot(point).armed.store(false, std::memory_order_release);
}

void FaultInjector::disarm_all() {
    for (auto& s : slots_) s.armed.store(false, std::memory_order_release);
}

FaultAction FaultInjector::roll(FaultPoint point) {
    Slot& s = slot(point);
    if (!s.armed.load(std::memory_order_acquire)) return FaultAction::kNone;

    MutexLock lock(s.mutex);
    if (!s.armed.load(std::memory_order_relaxed)) return FaultAction::kNone;
    s.rolls.fetch_add(1, std::memory_order_relaxed);

    const double u = s.rng.uniform();
    FaultAction action = FaultAction::kNone;
    if (u < s.spec.error_prob) {
        action = FaultAction::kError;
    } else if (u < s.spec.error_prob + s.spec.drop_prob) {
        action = FaultAction::kDrop;
    } else if (u < s.spec.error_prob + s.spec.drop_prob +
                       s.spec.delay_prob) {
        action = FaultAction::kDelay;
    }
    if (action != FaultAction::kNone) {
        s.injected.fetch_add(1, std::memory_order_relaxed);
        ++s.triggers;
        if (s.spec.max_triggers != 0 && s.triggers >= s.spec.max_triggers)
            s.armed.store(false, std::memory_order_release);
    }
    return action;
}

FaultAction FaultInjector::apply(FaultPoint point) {
    const FaultAction action = roll(point);
    if (action != FaultAction::kDelay) return action;
    // dcdblint: allow-sleep (an injected delay simulates a slow link/disk)
    std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns(point)));
    return FaultAction::kNone;
}

TimestampNs FaultInjector::delay_ns(FaultPoint point) const {
    const Slot& s = slot(point);
    MutexLock lock(s.mutex);
    return s.spec.delay_ns;
}

bool FaultInjector::armed(FaultPoint point) const {
    return slot(point).armed.load(std::memory_order_acquire);
}

std::uint64_t FaultInjector::injected(FaultPoint point) const {
    return slot(point).injected.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::rolls(FaultPoint point) const {
    return slot(point).rolls.load(std::memory_order_relaxed);
}

}  // namespace dcdb
