#include "core/sensor_cache.hpp"

#include <algorithm>
#include <atomic>

namespace dcdb {

SensorCache::SensorCache(TimestampNs window_ns, TimestampNs interval_hint_ns)
    : window_ns_(window_ns) {
    interval_hint_ns = std::max<TimestampNs>(interval_hint_ns, 1);
    const std::size_t hint =
        static_cast<std::size_t>(window_ns / interval_hint_ns) + 2;
    ring_.resize(std::clamp<std::size_t>(hint, 4, 1u << 20));
}

void SensorCache::grow() {
    // Re-linearize into a doubled ring (rare; only when the hint was off).
    std::vector<Reading> bigger(ring_.size() * 2);
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i)
        bigger[i] = ring_[(start + i) % ring_.size()];
    head_ = count_;
    ring_ = std::move(bigger);
}

void SensorCache::push(const Reading& r) {
    // Evict entries older than the window only when the ring is full, so
    // the common path is a single store.
    if (count_ == ring_.size()) {
        const std::size_t oldest = head_;  // == start when full
        // Clamp the window start at 0: timestamps smaller than the window
        // (early boot, test clocks) must not underflow the unsigned
        // subtraction — every reading is in-window then, so grow.
        const TimestampNs window_start =
            r.ts >= window_ns_ ? r.ts - window_ns_ : 0;
        if (ring_[oldest].ts >= window_start) {
            // Oldest entry still inside the window: ring too small.
            grow();
        } else {
            --count_;  // drop the oldest
        }
    }
    ring_[head_ % ring_.size()] = r;
    head_ = (head_ + 1) % ring_.size();
    ++count_;
}

std::optional<Reading> SensorCache::latest() const {
    if (count_ == 0) return std::nullopt;
    return ring_[(head_ + ring_.size() - 1) % ring_.size()];
}

std::vector<Reading> SensorCache::view(TimestampNs t0, TimestampNs t1) const {
    std::vector<Reading> out;
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i) {
        const Reading& r = ring_[(start + i) % ring_.size()];
        if (r.ts >= t0 && r.ts <= t1) out.push_back(r);
    }
    return out;
}

std::optional<double> SensorCache::average(TimestampNs horizon_ns) const {
    const auto newest = latest();
    if (!newest) return std::nullopt;
    const TimestampNs t0 =
        newest->ts >= horizon_ns ? newest->ts - horizon_ns : 0;
    double sum = 0;
    std::size_t n = 0;
    const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i) {
        const Reading& r = ring_[(start + i) % ring_.size()];
        if (r.ts >= t0) {
            sum += static_cast<double>(r.value);
            ++n;
        }
    }
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
}

void CacheSet::Slot::push(const Reading& r) {
    MutexLock lock(mutex_);
    cache_.push(r);
}

std::optional<Reading> CacheSet::Slot::latest() const {
    MutexLock lock(mutex_);
    return cache_.latest();
}

std::vector<Reading> CacheSet::Slot::view(TimestampNs t0,
                                          TimestampNs t1) const {
    MutexLock lock(mutex_);
    return cache_.view(t0, t1);
}

std::optional<double> CacheSet::Slot::average(TimestampNs horizon_ns) const {
    MutexLock lock(mutex_);
    return cache_.average(horizon_ns);
}

std::size_t CacheSet::Slot::memory_bytes() const {
    MutexLock lock(mutex_);
    return cache_.memory_bytes();
}

namespace {
// dcdblint: allow-atomic(id source, not a stat counter)
std::atomic<std::uint64_t> g_next_cache_set_id{1};
}  // namespace

CacheSet::CacheSet(TimestampNs window_ns)
    : window_ns_(window_ns),
      id_(g_next_cache_set_id.fetch_add(1, std::memory_order_relaxed)) {}

CacheSet::Slot& CacheSet::slot(std::string_view topic,
                               TimestampNs interval_hint_ns) {
    if (Slot* s = slots_.find(topic)) return *s;
    // try_emplace keeps a slot another thread created meanwhile.
    return *slots_.try_emplace(topic, window_ns_, interval_hint_ns).first;
}

void CacheSet::push(std::string_view topic, const Reading& r,
                    TimestampNs interval_hint_ns) {
    slot(topic, interval_hint_ns).push(r);
}

std::optional<Reading> CacheSet::latest(std::string_view topic) const {
    const Slot* s = slots_.find(topic);
    return s ? s->latest() : std::nullopt;
}

std::vector<Reading> CacheSet::view(std::string_view topic, TimestampNs t0,
                                    TimestampNs t1) const {
    const Slot* s = slots_.find(topic);
    return s ? s->view(t0, t1) : std::vector<Reading>{};
}

std::optional<double> CacheSet::average(std::string_view topic,
                                        TimestampNs horizon_ns) const {
    const Slot* s = slots_.find(topic);
    return s ? s->average(horizon_ns) : std::nullopt;
}

std::vector<std::string> CacheSet::topics() const {
    std::vector<std::string> out;
    slots_.for_each([&out](std::string_view topic, const Slot&) {
        out.emplace_back(topic);
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t CacheSet::sensor_count() const { return slots_.size(); }

std::size_t CacheSet::memory_bytes() const {
    std::size_t total = 0;
    slots_.for_each([&total](std::string_view topic, const Slot& slot) {
        total += slot.memory_bytes() + topic.size();
    });
    return total;
}

}  // namespace dcdb
