// Sampler: the Pusher's pool of sampling threads.
//
// "Pushers are configured to use two sampling threads" (paper, Section
// 6.1). Each group fires at wall-clock timestamps aligned to its
// interval (NTP-synchronized in production, see common/clock.hpp), so
// readings correlate across plugins, Pushers and nodes and parallel
// applications are interrupted simultaneously, minimizing jitter.
//
// Implementation: a min-heap of (deadline, group) shared by N worker
// threads; a worker pops the earliest deadline, sleeps until it is due,
// samples the group, and reschedules it. A group that is being sampled
// is not in the heap, so no group is ever sampled concurrently with
// itself, and remove_groups() waits for such a read to end.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"
#include "core/sensor_cache.hpp"
#include "pusher/sensor_group.hpp"
#include "telemetry/registry.hpp"

namespace dcdb::pusher {

class Sampler {
  public:
    /// `threads`: number of sampling threads (paper production: 2).
    /// `registry` receives pusher.samples, the per-sample latency
    /// histogram and pusher.push.dropped; nullptr keeps a private
    /// registry. `tracer`, when set, head-samples group reads and parks
    /// the minted context on the group for the push thread.
    /// `keep_pending` false tells every group to keep no pending
    /// readings: nothing publishes them.
    Sampler(int threads, CacheSet* cache,
            telemetry::MetricRegistry* registry = nullptr,
            telemetry::trace::Tracer* tracer = nullptr,
            bool keep_pending = true);
    ~Sampler();

    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    /// Register a group; first deadline is the next aligned boundary.
    /// Its sensors' slots are resolved here, so a push round finds a
    /// rebuilt sensor's backlog before its first new reading. The group's
    /// pending readings dropped at a full slot count in
    /// pusher.push.dropped from now on.
    void add_group(SensorGroup* group) DCDB_EXCLUDES(mutex_);

    /// Remove all groups belonging to a reconfigured plugin. Returns once
    /// none of them is being read or will be again, so the caller may
    /// free them.
    void remove_groups(const std::vector<SensorGroup*>& groups)
        DCDB_EXCLUDES(mutex_);

    void start() DCDB_EXCLUDES(mutex_);
    void stop() DCDB_EXCLUDES(mutex_);
    bool running() const { return running_.load(std::memory_order_relaxed); }

    std::uint64_t samples_taken() const { return samples_.value(); }
    /// Pending readings the groups' full slots dropped.
    std::uint64_t readings_dropped() const { return dropped_.value(); }

  private:
    struct Scheduled {
        TimestampNs deadline;
        SensorGroup* group;
        bool operator>(const Scheduled& other) const {
            return deadline > other.deadline;
        }
    };

    void worker_loop() DCDB_EXCLUDES(mutex_);

    int thread_count_;
    CacheSet* cache_;
    telemetry::trace::Tracer* tracer_;
    bool keep_pending_;
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::Counter& samples_;
    telemetry::Histogram& sample_latency_;
    telemetry::Counter& dropped_;
    Mutex mutex_;
    CondVar cv_;
    // A min-heap on the deadline (std::greater).
    std::vector<Scheduled> queue_ DCDB_GUARDED_BY(mutex_);
    // Groups a worker is reading now, and groups remove_groups() is
    // waiting for: a worker does not reschedule those.
    std::vector<SensorGroup*> reading_ DCDB_GUARDED_BY(mutex_);
    std::vector<SensorGroup*> removed_ DCDB_GUARDED_BY(mutex_);
    CondVar read_done_;  // a read of a removed group ended
    // Only the control thread that calls start()/stop() touches threads_;
    // workers never do, so it needs no lock.
    std::vector<std::thread> threads_;
    // Written under mutex_ (so cv waits stay race-free) but read by the
    // lock-free running() probe — hence atomic.
    std::atomic<bool> running_{false};
};

}  // namespace dcdb::pusher
