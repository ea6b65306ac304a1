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
    for (const auto& sensor : group->sensors())
        sensor->resolve_slot(*cache_, group->interval_ns());
    MutexLock lock(mutex_);
    queue_.push_back({next_aligned(now_ns(), group->interval_ns()), group});
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
    cv_.notify_one();
}

void Sampler::remove_groups(const std::vector<SensorGroup*>& groups) {
    const auto listed = [&groups](SensorGroup* group) {
        return std::ranges::count(groups, group) != 0;
    };
    MutexLock lock(mutex_);
    std::erase_if(queue_, [&](const Scheduled& s) { return listed(s.group); });
    std::make_heap(queue_.begin(), queue_.end(), std::greater<>{});
    // A worker reading one of them now must not reschedule it.
    removed_.insert(removed_.end(), groups.begin(), groups.end());
    while (std::ranges::any_of(reading_, listed)) read_done_.wait(mutex_);
    std::erase_if(removed_, listed);
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
        Scheduled next = queue_.front();
        const TimestampNs now = now_ns();
        if (next.deadline > now) {
            // Sleep until due (or until a new earlier group arrives).
            cv_.wait_for(mutex_,
                         std::chrono::nanoseconds(next.deadline - now));
            continue;
        }
        std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
        queue_.pop_back();
        reading_.push_back(next.group);
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
        std::erase(reading_, next.group);
        if (std::ranges::count(removed_, next.group) != 0) {
            read_done_.notify_all();  // remove_groups() waits for it
            continue;
        }
        // Reschedule at the next aligned boundary, skipping any deadlines
        // we are too late for (overload shedding rather than backlog).
        queue_.push_back({next_aligned(std::max(now_ns(), next.deadline),
                                       next.group->interval_ns()),
                          next.group});
        std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
    }
    mutex_.unlock();
}

}  // namespace dcdb::pusher
