// Deterministic fault injection for reliability testing.
//
// A process-wide injector with one slot per instrumented code site
// ("fault point"). Production code asks `apply()` before the real
// operation; the injector draws an action (error / drop / delay) from a
// seeded RNG, serves a delay itself and leaves errors and drops to the
// site. Always compiled in, disarmed by default: a disarmed roll is a
// single atomic load, so the hooks cost nothing on the hot paths (see
// bench_reliability).
//
// Tests arm points via ScopedFault so a failing test can never leak an
// armed fault into its neighbors.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/mutex.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace dcdb {

/// Instrumented code sites.
enum class FaultPoint : std::size_t {
    kMqttSend = 0,     // Transport::send (client and broker sides)
    kMqttRecv,         // Transport::recv
    kStoreInsert,      // StorageNode::insert
    kCommitLogAppend,  // CommitLog::append
    kStoreFlush,       // StorageNode flush: after the SSTable is durably
                       // written, before the commit log resets (the
                       // crash-durability window of DESIGN.md §9)
    kStoreCompact,     // StorageNode maintenance: during the unlocked
                       // streaming merge (kDelay widens the window for
                       // insert-during-compaction tests)
    kCount
};

enum class FaultAction {
    kNone,   // proceed normally
    kError,  // throw the site's transient error
    kDrop,   // lose the operation (close connection / skip the write)
    kDelay,  // sleep for the configured duration, then proceed
};

struct FaultSpec {
    double error_prob{0.0};
    double drop_prob{0.0};
    double delay_prob{0.0};
    TimestampNs delay_ns{0};
    /// Auto-disarm after this many injections (0 = unlimited). Makes
    /// "fail exactly the next N operations" tests deterministic.
    std::uint64_t max_triggers{0};
};

class FaultInjector {
  public:
    static FaultInjector& instance();

    void arm(FaultPoint point, FaultSpec spec, std::uint64_t seed = 42);
    void disarm(FaultPoint point);
    void disarm_all();

    /// Decide the fate of one operation at `point`. Thread-safe.
    FaultAction roll(FaultPoint point);

    /// roll(), serving a kDelay here: sleeps the armed delay and returns
    /// kNone. So the site sees only kNone, kError or kDrop. Thread-safe.
    FaultAction apply(FaultPoint point);

    bool armed(FaultPoint point) const;
    std::uint64_t injected(FaultPoint point) const;
    std::uint64_t rolls(FaultPoint point) const;

  private:
    FaultInjector() = default;

    TimestampNs delay_ns(FaultPoint point) const;

    struct Slot {
        std::atomic<bool> armed{false};
        // dcdblint: allow-atomic(common cannot depend on telemetry)
        std::atomic<std::uint64_t> injected{0};
        // dcdblint: allow-atomic(same)
        std::atomic<std::uint64_t> rolls{0};
        mutable Mutex mutex;
        FaultSpec spec DCDB_GUARDED_BY(mutex);
        Rng rng DCDB_GUARDED_BY(mutex){42};
        std::uint64_t triggers DCDB_GUARDED_BY(mutex){0};
    };

    Slot& slot(FaultPoint point) {
        return slots_[static_cast<std::size_t>(point)];
    }
    const Slot& slot(FaultPoint point) const {
        return slots_[static_cast<std::size_t>(point)];
    }

    std::array<Slot, static_cast<std::size_t>(FaultPoint::kCount)> slots_;
};

/// Arms a fault point for the current scope, disarms on destruction.
class ScopedFault {
  public:
    ScopedFault(FaultPoint point, FaultSpec spec, std::uint64_t seed = 42)
        : point_(point) {
        FaultInjector::instance().arm(point_, spec, seed);
    }
    ~ScopedFault() { FaultInjector::instance().disarm(point_); }

    ScopedFault(const ScopedFault&) = delete;
    ScopedFault& operator=(const ScopedFault&) = delete;

    std::uint64_t injected() const {
        return FaultInjector::instance().injected(point_);
    }

  private:
    FaultPoint point_;
};

}  // namespace dcdb
