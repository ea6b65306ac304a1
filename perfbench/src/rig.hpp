// The system under test: one storage node, a Collect Agent and one tester
// Pusher per session, talking MQTT over loopback TCP. The benchmark
// drives each Pusher itself (SensorGroup::read_all, then Pusher::push_now)
// instead of starting its sampler and push threads, so the generator owns
// the schedule and timestamps are synthetic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "libdcdb/connection.hpp"
#include "pusher/pusher.hpp"
#include "spans.hpp"
#include "store/cluster.hpp"
#include "store/metastore.hpp"
#include "telemetry/registry.hpp"

namespace dcdb::collectagent {
class CollectAgent;
}

namespace perfbench {

struct Workload {
    const char* name;
    int sessions;            // Pushers, one TCP connection and thread each
    int groups;              // sensor groups per Pusher
    int sensors;             // sensors per group
    int readings_per_round;  // readings per sensor per round
    int interval_s;          // synthetic sampling interval of every sensor
    double rounds_per_s;     // per session; 0 = closed loop
    bool queries_beside_ingest;
    int preload_rounds;      // per session, written during set-up
};

// Store settings, as dcdbcollectagent configures its cluster.
inline constexpr std::size_t kMemtableFlushBytes = 64u << 20;
inline constexpr std::size_t kCommitlogSyncEvery = 256;
// Every query asks for one sensor's one-hour window.
inline constexpr dcdb::TimestampNs kQueryWindowNs = 3600 * dcdb::kNsPerSec;

/// Outcome of one window query.
struct QueryResult {
    double us{0};
    std::size_t rows{0};
    bool ok{false};
};

/// Result of reading every sensor back after a run.
struct Verification {
    std::uint64_t expected{0};  // readings sampled
    std::uint64_t missing{0};   // sampled but not stored
    std::uint64_t wrong{0};     // wrong value, or a stray timestamp
    std::string first_error;
};

class StandInAgent;

class Rig {
  public:
    /// Opens the store under `data_dir`, starts the agent (the real
    /// CollectAgent, or the span-recording stand-in when `traced`) and
    /// connects one Pusher per session. Nothing is published yet.
    Rig(const Workload& workload, std::string data_dir, bool traced,
        std::uint64_t seed);
    ~Rig();

    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    /// First sighting of every topic, then the workload's history preload
    /// (flushed to SSTables). Ends by opening the libDCDB connection.
    void warm_up();

    /// Sample and publish one round of `session`; returns once every
    /// publish of the round is acknowledged.
    void round(int session) { round(session, workload_.readings_per_round); }

    /// Readings per sensor of `session` acknowledged so far.
    std::uint64_t acked(int session) const;

    /// Query a random sensor's one-hour window ending at a random reading
    /// acknowledged so far, and check the rows against the expected series.
    /// Once a full hour is stored, only full windows are picked, so the
    /// rows per query do not depend on how much the run ingested.
    QueryResult query_window(dcdb::Rng& rng);

    /// Read every sensor back through libDCDB and check each reading.
    Verification verify();

    const Workload& workload() const { return workload_; }
    const std::string& data_dir() const { return dir_.path; }
    dcdb::store::StoreCluster& cluster() { return *cluster_; }
    dcdb::store::NodeStats node_stats() { return cluster_->node(0).stats(); }
    std::uint64_t publish_failures() const;
    std::uint64_t readings_per_round() const;
    std::vector<std::vector<Span>> spans() const;

  private:
    struct Session {
        std::unique_ptr<Lane> lane;  // traced runs only
        std::unique_ptr<dcdb::pusher::Pusher> pusher;
        std::vector<dcdb::pusher::SensorGroup*> groups;
        std::uint64_t next_reading{0};  // per-sensor reading index
        std::uint32_t rounds{0};
        std::atomic<std::uint64_t> acked{0};
    };

    /// A round of `reads` readings per sensor, sent with one push_now().
    void round(int session, int reads);
    dcdb::TimestampNs ts(int session, int group, std::uint64_t k) const;
    const std::string& topic(int session, int group, int sensor) const;

    /// Removes the data directory; declared first so it goes last.
    struct DataDir {
        std::string path;
        ~DataDir();
    };

    DataDir dir_;
    const Workload workload_;
    const dcdb::TimestampNs base_ts_;
    const dcdb::TimestampNs step_ns_;         // sampling interval
    const std::uint64_t window_readings_;     // readings in a full window
    dcdb::telemetry::MetricRegistry registry_;
    std::unique_ptr<dcdb::store::StoreCluster> cluster_;
    std::unique_ptr<dcdb::store::MetaStore> meta_;
    std::unique_ptr<dcdb::collectagent::CollectAgent> agent_;
    std::unique_ptr<StandInAgent> stand_in_;
    std::vector<std::unique_ptr<Session>> sessions_;
    std::vector<std::string> topics_;
    std::unique_ptr<dcdb::lib::Connection> connection_;
};

}  // namespace perfbench
