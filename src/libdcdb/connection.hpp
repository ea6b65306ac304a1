// libDCDB: the database-independent access library (paper, Section 5.1).
//
// "All accesses to Storage Backends are performed via a well-defined API
// that is independent from the underlying database implementation."
// Connection wraps a store cluster + metadata store and provides raw and
// physical-unit queries, time-series operations (integral, derivative —
// the `query` tool's analysis tasks, Section 5.2), inserts for imports,
// and transparent evaluation of virtual sensors.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/metadata.hpp"
#include "core/sensor_id.hpp"
#include "store/cluster.hpp"
#include "store/metastore.hpp"

namespace dcdb::lib {

/// One reading of a named sensor (a CSV row, a written-back sample).
struct TopicReading {
    std::string topic;
    Reading reading;
};

/// One point of a physical-unit time series.
struct Sample {
    TimestampNs ts{0};
    double value{0};
    friend bool operator==(const Sample&, const Sample&) = default;
};

class Connection {
  public:
    /// Both referents are owned by the caller and must outlive the
    /// connection (Collect Agents share the same cluster/metastore).
    Connection(store::StoreCluster& cluster, store::MetaStore& meta);

    TopicMapper& mapper() { return mapper_; }
    MetadataStore& metadata() { return metadata_store_; }
    store::StoreCluster& cluster() { return cluster_; }

    /// Raw stored readings (integer values, no scaling). Iterates all
    /// time buckets intersecting [t0, t1]. Unknown sensors yield {}.
    std::vector<Reading> query_raw(const std::string& topic, TimestampNs t0,
                                   TimestampNs t1) const;

    /// Physical-unit query: applies the sensor's scaling factor; virtual
    /// sensors are evaluated (lazily, with write-back caching).
    std::vector<Sample> query(const std::string& topic, TimestampNs t0,
                              TimestampNs t1);

    /// Insert one reading.
    void insert(const std::string& topic, const Reading& reading,
                std::uint32_t ttl_s = 0);

    /// Insert readings in order, in store batches of up to 1,024: one
    /// commit-log record per batch and node, not one per reading
    /// (csvimport, virtual-sensor write-back).
    void insert(std::span<const TopicReading> readings,
                std::uint32_t ttl_s = 0);

    /// Trapezoidal integral of the physical series over [t0, t1]
    /// (value-unit x seconds; e.g. W -> J).
    double integral(const std::string& topic, TimestampNs t0, TimestampNs t1);

    /// Finite-difference derivative (value-unit per second).
    std::vector<Sample> derivative(const std::string& topic, TimestampNs t0,
                                   TimestampNs t1);

    /// All sensor topics known to the storage layer (from the topic
    /// dictionary), optionally below a hierarchy prefix.
    std::vector<std::string> list_sensors(const std::string& prefix = "") const;

    /// Define a virtual sensor (stored in metadata; evaluated on query).
    void define_virtual(const std::string& topic, const std::string& expression,
                        const std::string& unit, double scale = 1.0);

  private:
    friend class VirtualEvaluator;

    store::StoreCluster& cluster_;
    store::MetaStore& meta_;
    TopicMapper mapper_;
    MetadataStore metadata_store_;
};

/// Linear interpolation of `series` at `ts` (clamped at the ends).
/// Series must be non-empty and sorted by timestamp.
double interpolate_at(const std::vector<Sample>& series, TimestampNs ts);

}  // namespace dcdb::lib
