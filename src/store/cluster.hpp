// Multi-node store cluster: partitioned, optionally replicated.
//
// Stands in for the distributed Cassandra deployment of paper Section
// 4.3: any node can be asked to insert or query, data is distributed via
// a pluggable partitioner, and the hierarchy partitioner gives DCDB its
// "store on the nearest server" locality. Replication writes each
// partition to `replication` consecutive nodes (Cassandra's
// SimpleStrategy ring walk).
#pragma once

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "store/node.hpp"
#include "store/partitioner.hpp"
#include "telemetry/registry.hpp"

namespace dcdb::store {

struct ClusterConfig {
    std::string base_dir;
    std::size_t nodes{1};
    std::size_t replication{1};
    std::string partitioner{"hierarchy"};
    std::size_t memtable_flush_bytes{8u << 20};
    bool commitlog_enabled{true};
    /// Per-node commit-log fdatasync cadence (see NodeConfig).
    std::size_t commitlog_sync_every{256};
    /// Size-tiered maintenance knob passed through to every node (see
    /// NodeConfig::compaction_min_tables).
    std::size_t compaction_min_tables{4};
    /// Shared metric registry; each node registers its metrics under a
    /// distinct store.node<i> prefix. nullptr keeps a private registry.
    telemetry::MetricRegistry* registry{nullptr};
};

struct ClusterStats {
    std::vector<NodeStats> per_node;
    /// Inserts answered by the node the writer suggested as "nearest"
    /// (see insert()'s `local_hint`), i.e. writes that needed no network
    /// hop in a colocated deployment.
    std::uint64_t local_writes{0};
    std::uint64_t total_writes{0};
};

class StoreCluster {
  public:
    explicit StoreCluster(ClusterConfig config);
    /// Stops the maintenance thread if still running.
    ~StoreCluster();

    std::size_t node_count() const { return nodes_.size(); }
    std::size_t replication() const { return config_.replication; }
    const Partitioner& partitioner() const { return *partitioner_; }

    /// Primary owner of a key.
    std::size_t primary_node(const Key& key) const;

    /// Insert into the primary and its replicas, as a one-row mutation:
    /// insert_batch is the only write path. `local_hint`, when >= 0, is
    /// the index of the node colocated with the writer; used only for
    /// locality accounting (the paper's "nearest server" claim).
    void insert(const Key& key, TimestampNs ts, Value value,
                std::uint32_t ttl_s = 0, int local_hint = -1);

    /// Batched insert: each mutation goes whole to the node its key
    /// names and to that node's replicas, and each node's share lands
    /// via StorageNode::insert_batch — one writer-lock acquisition and
    /// one commit-log record per node touched. Write accounting is in
    /// readings.
    void insert_batch(std::span<const Mutation> mutations,
                      int local_hint = -1,
                      const telemetry::trace::TraceContext* trace = nullptr);
    /// The same, for entries cut into mutations by to_mutations().
    void insert_batch(std::span<const BatchEntry> entries,
                      int local_hint = -1,
                      const telemetry::trace::TraceContext* trace = nullptr);

    /// Forward the flight recorder to every node (log_append / sync
    /// spans for traced batches). Set before traffic starts.
    void set_tracer(telemetry::trace::Tracer* tracer);

    /// Readiness probe: every node accepts writes (StorageNode::writable).
    bool writable() const;

    /// Query the primary replica.
    std::vector<Row> query(const Key& key, TimestampNs t0,
                           TimestampNs t1) const;

    /// Query a specific replica (for replication tests / failure drills).
    std::vector<Row> query_replica(std::size_t replica_index, const Key& key,
                                   TimestampNs t0, TimestampNs t1) const;

    void flush_all();
    void compact_all();
    void truncate_before(TimestampNs cutoff);

    /// Start the background maintenance thread: every `interval` it runs
    /// one size-tiered maintenance round (StorageNode::maintain) on each
    /// node. Maintenance is non-blocking, so inserts and queries proceed
    /// while tiers merge. A node's failed round is logged and counted
    /// (store.cluster.maintenance.errors); the next round retries it.
    /// No-op when already running.
    void start_maintenance(std::chrono::milliseconds interval);
    /// Stop and join the maintenance thread; safe to call when not
    /// running. The in-flight round, if any, completes first.
    void stop_maintenance();
    bool maintenance_running() const;
    /// Completed maintenance rounds (each round visits every node).
    std::uint64_t maintenance_rounds() const;

    StorageNode& node(std::size_t i) { return *nodes_.at(i); }
    ClusterStats stats() const;

  private:
    void maintenance_loop(std::chrono::milliseconds interval);

    ClusterConfig config_;
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::MetricRegistry& registry_;  // config_.registry or owned
    telemetry::Counter& local_writes_;
    telemetry::Counter& total_writes_;
    telemetry::Counter& maintenance_errors_;
    std::unique_ptr<Partitioner> partitioner_;
    std::vector<std::unique_ptr<StorageNode>> nodes_;

    // Maintenance thread lifecycle. The thread sleeps on the condvar so
    // stop_maintenance() interrupts a pending interval immediately.
    mutable Mutex maintenance_mutex_;
    CondVar maintenance_cv_;
    bool maintenance_stop_ DCDB_GUARDED_BY(maintenance_mutex_){false};
    bool maintenance_running_ DCDB_GUARDED_BY(maintenance_mutex_){false};
    std::uint64_t maintenance_rounds_ DCDB_GUARDED_BY(maintenance_mutex_){0};
    std::thread maintenance_thread_;
};

}  // namespace dcdb::store
