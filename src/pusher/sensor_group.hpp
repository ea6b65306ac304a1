// SensorGroup — "the next aggregation level combining multiple sensors.
// All sensors that belong to one group share the same sampling interval
// and are always read collectively at the same point in time" (paper,
// Section 4.1). Plugins subclass this and implement do_read().
//
// Entity — "an optional hierarchy level to aggregate groups or to provide
// additional functionality to them", e.g. the host connection shared by
// all groups reading from the same IPMI/SNMP endpoint.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/sensor_cache.hpp"
#include "pusher/sensor_base.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace dcdb::pusher {

/// Optional shared resource for a set of groups (e.g. one connection to
/// a remote IPMI host or SNMP agent).
class Entity {
  public:
    explicit Entity(std::string name) : name_(std::move(name)) {}
    virtual ~Entity() = default;
    const std::string& name() const { return name_; }

  private:
    std::string name_;
};

class SensorGroup {
  public:
    SensorGroup(std::string name, TimestampNs interval_ns);
    virtual ~SensorGroup() = default;

    const std::string& name() const { return name_; }
    TimestampNs interval_ns() const { return interval_ns_; }

    /// Sample every sensor of the group with the shared timestamp `ts`
    /// (the aligned deadline, so readings correlate across nodes without
    /// interpolation). Called from sampler threads, never two at once for
    /// one group; must not block for long. Readings go through
    /// store_reading() into the sensors' slots of `cache` (not null).
    void read_all(TimestampNs ts, CacheSet* cache);

    /// Set by the Pusher's sampler before the group is first read: each
    /// pending reading a full slot drops adds 1 to `dropped`, and with
    /// `keep` false the sensors keep no pending readings (a Pusher with
    /// no publisher). A standalone group keeps them.
    void set_pending(telemetry::Counter* dropped, bool keep) {
        dropped_ = dropped;
        keep_pending_ = keep;
    }

    SensorBase& add_sensor(std::unique_ptr<SensorBase> sensor);
    const std::vector<std::unique_ptr<SensorBase>>& sensors() const {
        return sensors_;
    }

    void set_enabled(bool enabled) { enabled_.store(enabled); }
    bool enabled() const { return enabled_.load(); }

    std::uint64_t reads_performed() const { return reads_.value(); }

    /// Handoff slot for a trace minted by the sampler for this group's
    /// latest read; the push thread takes it when it peeks the group.
    telemetry::trace::PendingTrace& pending_trace() {
        return pending_trace_;
    }

  protected:
    /// Plugin-specific acquisition: fill `out[i]` with the value for
    /// sensors()[i]. Returning false skips this cycle (e.g. source
    /// temporarily unavailable).
    virtual bool do_read(TimestampNs ts, std::vector<Value>& out) = 0;

  private:
    std::string name_;
    TimestampNs interval_ns_;
    std::vector<std::unique_ptr<SensorBase>> sensors_;
    std::vector<Value> scratch_;  // reused across reads, no hot-path alloc
    std::atomic<bool> enabled_{true};
    telemetry::Counter reads_;  // per-group, not registry-published
    telemetry::Counter* dropped_{nullptr};
    bool keep_pending_{true};
    telemetry::trace::PendingTrace pending_trace_;
};

}  // namespace dcdb::pusher
