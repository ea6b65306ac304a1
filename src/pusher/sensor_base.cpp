#include "pusher/sensor_base.hpp"

#include "mqtt/topic.hpp"

namespace dcdb::pusher {

SensorBase::SensorBase(std::string name, std::string topic)
    : name_(std::move(name)),
      topic_(normalize_sensor_topic(topic)) {}

CacheSet::Slot& SensorBase::resolve_slot(CacheSet& cache,
                                         TimestampNs interval_hint_ns) {
    CacheSet::Slot* slot = slot_.load(std::memory_order_relaxed);
    if (!slot) {
        slot = &cache.slot(topic_, interval_hint_ns);
        slot_.store(slot, std::memory_order_release);
    }
    return *slot;
}

bool SensorBase::store_reading(Reading r, CacheSet& cache,
                               TimestampNs interval_hint_ns, bool pending) {
    if (delta_) {
        const Value raw = r.value;
        if (!last_raw_) {
            last_raw_ = raw;
            return false;  // first sample of a counter has no delta yet
        }
        r.value = raw - *last_raw_;
        last_raw_ = raw;
    }
    return resolve_slot(cache, interval_hint_ns).push(r, pending);
}

std::size_t SensorBase::peek_pending_into(std::vector<Reading>& out,
                                          std::uint64_t& end) const {
    CacheSet::Slot* s = slot();
    end = 0;
    return s ? s->peek_pending(out, end) : 0;
}

std::size_t SensorBase::release_pending(std::uint64_t end) const {
    CacheSet::Slot* s = slot();
    return s ? s->release_pending(end) : 0;
}

}  // namespace dcdb::pusher
