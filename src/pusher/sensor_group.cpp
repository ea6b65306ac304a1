#include "pusher/sensor_group.hpp"

#include "common/logging.hpp"

namespace dcdb::pusher {

SensorGroup::SensorGroup(std::string name, TimestampNs interval_ns)
    : name_(std::move(name)),
      interval_ns_(interval_ns == 0 ? kNsPerSec : interval_ns) {}

SensorBase& SensorGroup::add_sensor(std::unique_ptr<SensorBase> sensor) {
    sensors_.push_back(std::move(sensor));
    scratch_.resize(sensors_.size());
    return *sensors_.back();
}

void SensorGroup::read_all(TimestampNs ts, CacheSet* cache) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    scratch_.resize(sensors_.size());
    bool ok = false;
    try {
        ok = do_read(ts, scratch_);
    } catch (const std::exception& e) {
        DCDB_WARN("pusher") << "group " << name_ << " read failed: "
                            << e.what();
        return;
    }
    if (!ok) return;
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
        dropped += sensors_[i]->store_reading({ts, scratch_[i]}, *cache,
                                              interval_ns_, keep_pending_);
    }
    if (dropped != 0 && dropped_) dropped_->add(dropped);
    reads_.add(1);
}

}  // namespace dcdb::pusher
