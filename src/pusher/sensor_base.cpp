#include "pusher/sensor_base.hpp"

#include <algorithm>

#include "mqtt/topic.hpp"

namespace dcdb::pusher {

namespace {

/// Smallest pending ring; it doubles from here up to kMaxPending.
constexpr std::size_t kMinPendingRing = 4;
/// A release that empties a ring above this size frees it once it is 4x
/// what the release took, so an agent outage's backlog is not retained.
constexpr std::size_t kShrinkPendingRing = 256;

}  // namespace

SensorBase::SensorBase(std::string name, std::string topic)
    : name_(std::move(name)),
      topic_(normalize_sensor_topic(topic)) {}

void SensorBase::grow_pending() {
    // Unroll the ring so the oldest reading sits at index 0, then widen.
    std::rotate(pending_.begin(),
                pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_),
                pending_.end());
    pending_head_ = 0;
    pending_.resize(std::min(std::max(pending_.size() * 2, kMinPendingRing),
                             kMaxPending));
}

bool SensorBase::store_reading(Reading r, CacheSet* cache,
                               TimestampNs interval_hint_ns,
                               bool keep_pending) {
    CacheSet::Slot* slot = nullptr;
    bool overwrote = false;
    {
        MutexLock lock(mutex_);
        if (delta_) {
            const Value raw = r.value;
            if (!last_raw_) {
                last_raw_ = raw;
                return false;  // first sample of a counter has no delta yet
            }
            r.value = raw - *last_raw_;
            last_raw_ = raw;
        }
        if (keep_pending && pending_count_ == kMaxPending) {
            // Full at the cap: overwrite the oldest reading in O(1).
            pending_[pending_head_] = r;
            pending_head_ = (pending_head_ + 1) % pending_.size();
            ++head_seq_;
            ++dropped_;
            overwrote = true;
        } else if (keep_pending) {
            if (pending_count_ == pending_.size()) grow_pending();
            pending_[(pending_head_ + pending_count_) % pending_.size()] = r;
            ++pending_count_;
        }
        latest_ = r;
        if (cache && cache->id() == cache_id_) slot = cache_slot_;
    }
    if (!cache) return overwrote;
    if (!slot) {
        // First reading into this set: resolve the slot once, outside
        // the sensor lock (creating it takes the set's insert mutex).
        slot = &cache->slot(topic_, interval_hint_ns);
        MutexLock lock(mutex_);
        cache_id_ = cache->id();
        cache_slot_ = slot;
    }
    slot->push(r);
    return overwrote;
}

std::size_t SensorBase::peek_pending_into(std::vector<Reading>& out,
                                          std::uint64_t& end) {
    MutexLock lock(mutex_);
    const std::size_t n = pending_count_;
    const auto head = pending_.begin() +
                      static_cast<std::ptrdiff_t>(pending_head_);
    const std::size_t first = std::min(n, pending_.size() - pending_head_);
    out.insert(out.end(), head, head + static_cast<std::ptrdiff_t>(first));
    out.insert(out.end(), pending_.begin(),
               pending_.begin() + static_cast<std::ptrdiff_t>(n - first));
    end = head_seq_ + n;
    return n;
}

std::size_t SensorBase::release_pending(std::uint64_t end) {
    MutexLock lock(mutex_);
    const std::uint64_t ahead = end > head_seq_ ? end - head_seq_ : 0;
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(ahead, pending_count_));
    if (n == 0) return 0;
    pending_head_ = (pending_head_ + n) % pending_.size();
    head_seq_ += n;
    pending_count_ -= n;
    if (pending_count_ == 0 && pending_.size() > kShrinkPendingRing &&
        pending_.size() > 4 * n) {
        std::vector<Reading>().swap(pending_);
        pending_head_ = 0;
    }
    return n;
}

std::vector<Reading> SensorBase::drain_pending() {
    std::vector<Reading> out;
    std::uint64_t end = 0;
    peek_pending_into(out, end);
    release_pending(end);
    return out;
}

std::optional<Reading> SensorBase::latest() const {
    MutexLock lock(mutex_);
    return latest_;
}

std::size_t SensorBase::pending_count() const {
    MutexLock lock(mutex_);
    return pending_count_;
}

std::uint64_t SensorBase::dropped_readings() const {
    MutexLock lock(mutex_);
    return dropped_;
}

}  // namespace dcdb::pusher
