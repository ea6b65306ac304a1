#include "core/sensor_cache.hpp"

#include <algorithm>

namespace dcdb {

SensorCache::SensorCache(TimestampNs window_ns, TimestampNs interval_hint_ns)
    : window_ns_(window_ns) {
    interval_hint_ns = std::max<TimestampNs>(interval_hint_ns, 1);
    const std::size_t hint =
        static_cast<std::size_t>(window_ns / interval_hint_ns) + 2;
    base_capacity_ =
        static_cast<std::uint32_t>(std::clamp<std::size_t>(hint, 4, 1u << 20));
    reshape(base_capacity_);
}

void SensorCache::reshape(std::uint32_t capacity) {
    const std::uint32_t keep = std::min(count_, capacity);
    auto ring = std::make_unique<Reading[]>(capacity);
    for (std::uint32_t i = 0; i < keep; ++i) ring[i] = at(count_ - keep + i);
    ring_ = std::move(ring);
    capacity_ = capacity;
    head_ = keep % capacity;
    count_ = keep;
}

bool SensorCache::push(const Reading& r, bool pending) {
    const bool joins = pending || pending_ != 0;
    const bool dropped = joins && pending_ == kMaxPending;
    if (dropped) {
        // Full at the cap: the oldest pending reading stops being
        // pending, in O(1).
        --pending_;
        ++head_seq_;
    }
    // Evict the oldest reading only when the ring is full, so the common
    // path is a single store, and only once it is outside the window and
    // not pending; otherwise grow (rare: the hint was off, or a backlog).
    if (count_ == capacity_) {
        // Clamp the window start at 0: timestamps smaller than the window
        // (early boot, test clocks) must not underflow the unsigned
        // subtraction — every reading is in-window then, so grow.
        const TimestampNs window_start =
            r.ts >= window_ns_ ? r.ts - window_ns_ : 0;
        if (ring_[head_].ts >= window_start) {  // the oldest, when full
            reshape(2 * capacity_);
        } else if (count_ == pending_) {
            // Every reading is pending: no more than the cap is needed.
            reshape(std::min<std::uint32_t>(2 * capacity_, kMaxPending));
        } else {
            --count_;  // drop the oldest
        }
    }
    ring_[head_] = r;
    if (++head_ == capacity_) head_ = 0;
    ++count_;
    pending_ += joins ? 1 : 0;
    return dropped;
}

std::size_t SensorCache::peek_pending(std::vector<Reading>& out,
                                      std::uint64_t& end) const {
    // The pending readings end at head_ and may wrap: copy both runs.
    const std::uint32_t first = (head_ + capacity_ - pending_) % capacity_;
    const std::uint32_t run = std::min(pending_, capacity_ - first);
    out.insert(out.end(), &ring_[first], &ring_[first] + run);
    out.insert(out.end(), &ring_[0], &ring_[0] + (pending_ - run));
    end = head_seq_ + pending_;
    return pending_;
}

std::size_t SensorCache::release_pending(std::uint64_t end) {
    const std::uint64_t ahead = end > head_seq_ ? end - head_seq_ : 0;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ahead, pending_));
    if (n == 0) return 0;
    head_seq_ += n;
    pending_ -= n;
    // A release that empties a ring above this size, and 4x what it took,
    // shrinks it: an agent outage's backlog is not retained. Only when
    // the hint-sized ring still holds the whole window, though: the
    // newest reading it would lose is outside the window.
    constexpr std::size_t kShrinkRing = 256;
    if (pending_ == 0 && capacity_ > base_capacity_ &&
        capacity_ > kShrinkRing && capacity_ > 4 * std::size_t{n} &&
        (count_ <= base_capacity_ ||
         at(count_ - base_capacity_ - 1).ts + window_ns_ <
             at(count_ - 1).ts))
        reshape(base_capacity_);
    return n;
}

std::optional<Reading> SensorCache::latest() const {
    if (count_ == 0) return std::nullopt;
    return at(count_ - 1);
}

std::vector<Reading> SensorCache::view(TimestampNs t0, TimestampNs t1) const {
    std::vector<Reading> out;
    for (std::size_t i = 0; i < count_; ++i) {
        const Reading& r = at(i);
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
    for (std::size_t i = 0; i < count_; ++i) {
        const Reading& r = at(i);
        if (r.ts >= t0) {
            sum += static_cast<double>(r.value);
            ++n;
        }
    }
    if (n == 0) return std::nullopt;
    return sum / static_cast<double>(n);
}

bool CacheSet::Slot::push(const Reading& r, bool pending) {
    MutexLock lock(mutex_);
    return cache_.push(r, pending);
}

std::size_t CacheSet::Slot::peek_pending(std::vector<Reading>& out,
                                         std::uint64_t& end) const {
    MutexLock lock(mutex_);
    return cache_.peek_pending(out, end);
}

std::size_t CacheSet::Slot::release_pending(std::uint64_t end) {
    MutexLock lock(mutex_);
    return cache_.release_pending(end);
}

std::size_t CacheSet::Slot::pending() const {
    MutexLock lock(mutex_);
    return cache_.pending();
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

CacheSet::CacheSet(TimestampNs window_ns) : window_ns_(window_ns) {}

CacheSet::Slot& CacheSet::slot(std::string_view topic,
                               TimestampNs interval_hint_ns,
                               const SensorId& sid) {
    if (Slot* s = find(topic)) return *s;
    // try_emplace keeps a slot another thread created meanwhile.
    return *slots_.try_emplace(topic, window_ns_, interval_hint_ns, sid)
                .first;
}

void CacheSet::push(std::string_view topic, const Reading& r,
                    TimestampNs interval_hint_ns) {
    slot(topic, interval_hint_ns).push(r);
}

std::optional<Reading> CacheSet::latest(std::string_view topic) const {
    const Slot* s = find(topic);
    return s ? s->latest() : std::nullopt;
}

std::vector<Reading> CacheSet::view(std::string_view topic, TimestampNs t0,
                                    TimestampNs t1) const {
    const Slot* s = find(topic);
    return s ? s->view(t0, t1) : std::vector<Reading>{};
}

std::optional<double> CacheSet::average(std::string_view topic,
                                        TimestampNs horizon_ns) const {
    const Slot* s = find(topic);
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

std::uint64_t CacheSet::pending() const {
    std::uint64_t total = 0;
    slots_.for_each([&total](std::string_view, const Slot& slot) {
        total += slot.pending();
    });
    return total;
}

}  // namespace dcdb
