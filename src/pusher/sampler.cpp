#include "pusher/sampler.hpp"

#include <algorithm>

#include "common/clock.hpp"

namespace dcdb::pusher {

Sampler::Sampler(int threads, CacheSet* cache,
                 telemetry::MetricRegistry* registry,
                 telemetry::trace::Tracer* tracer, bool keep_pending)
    : thread_count_(std::max(threads, 1)),
      cache_(cache),
      tracer_(tracer),
      keep_pending_(keep_pending),
      samples_(telemetry::resolve_registry(registry, owned_registry_)
                   .counter("pusher.samples")),
      sample_latency_(telemetry::resolve_registry(registry, owned_registry_)
                          .histogram("pusher.sample.latency")),
      dropped_(telemetry::resolve_registry(registry, owned_registry_)
                   .counter("pusher.push.dropped")) {}

Sampler::~Sampler() { stop(); }

void Sampler::add_group(SensorGroup* group) {
    group->set_pending(&dropped_, keep_pending_);
    MutexLock lock(mutex_);
    queue_.push({next_aligned(now_ns(), group->interval_ns()), group});
    cv_.notify_one();
}

void Sampler::remove_groups(const std::vector<SensorGroup*>& groups) {
    MutexLock lock(mutex_);
    removed_.insert(removed_.end(), groups.begin(), groups.end());
    cv_.notify_all();
}

void Sampler::start() {
    MutexLock lock(mutex_);
    if (running_.load(std::memory_order_relaxed)) return;
    running_.store(true, std::memory_order_relaxed);
    threads_.reserve(static_cast<std::size_t>(thread_count_));
    for (int t = 0; t < thread_count_; ++t)
        threads_.emplace_back([this] { worker_loop(); });
}

void Sampler::stop() {
    {
        MutexLock lock(mutex_);
        if (!running_.load(std::memory_order_relaxed)) return;
        running_.store(false, std::memory_order_relaxed);
    }
    cv_.notify_all();
    for (auto& t : threads_) {
        if (t.joinable()) t.join();
    }
    threads_.clear();
}

void Sampler::worker_loop() {
    mutex_.lock();
    while (running_.load(std::memory_order_relaxed)) {
        if (queue_.empty()) {
            while (running_.load(std::memory_order_relaxed) &&
                   queue_.empty())
                cv_.wait(mutex_);
            continue;
        }
        Scheduled next = queue_.top();

        // Dropped group? Discard without rescheduling.
        const auto removed_it =
            std::find(removed_.begin(), removed_.end(), next.group);
        if (removed_it != removed_.end()) {
            queue_.pop();
            removed_.erase(removed_it);
            continue;
        }

        const TimestampNs now = now_ns();
        if (next.deadline > now) {
            // Sleep until due (or until a new earlier group arrives).
            cv_.wait_for(mutex_,
                         std::chrono::nanoseconds(next.deadline - now));
            continue;
        }
        queue_.pop();
        mutex_.unlock();

        const TimestampNs read_start = steady_ns();
        next.group->read_all(next.deadline, cache_);
        const std::uint64_t read_dur = steady_ns() - read_start;
        samples_.add(1);
        // Head sampling happens here — at the moment a reading is born —
        // so the trace's origin is the aligned deadline every later
        // stage's wall-clock spans compare against. The untraced path is
        // one counter increment + mask test inside maybe_start().
        const auto ctx = tracer_ ? tracer_->maybe_start(next.deadline)
                                 : telemetry::trace::TraceContext{};
        if (ctx.valid()) {
            sample_latency_.record(read_dur, ctx.trace_id);
            tracer_->record_span(
                ctx, telemetry::trace::Stage::kSample, next.deadline,
                read_dur,
                static_cast<std::uint32_t>(next.group->sensors().size()));
            next.group->pending_trace().put(ctx);
        } else {
            sample_latency_.record(read_dur);
        }

        mutex_.lock();
        // Reschedule at the next aligned boundary, skipping any deadlines
        // we are too late for (overload shedding rather than backlog).
        queue_.push({next_aligned(std::max(now_ns(), next.deadline),
                                  next.group->interval_ns()),
                     next.group});
    }
    mutex_.unlock();
}

}  // namespace dcdb::pusher
