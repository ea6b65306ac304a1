#include "store/cluster.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"

namespace dcdb::store {

StoreCluster::StoreCluster(ClusterConfig config)
    : config_(std::move(config)),
      registry_(telemetry::resolve_registry(config_.registry, owned_registry_)),
      local_writes_(registry_.counter("store.cluster.writes.local")),
      total_writes_(registry_.counter("store.cluster.writes.total")),
      maintenance_errors_(
          registry_.counter("store.cluster.maintenance.errors")) {
    if (config_.nodes == 0) throw StoreError("cluster needs >= 1 node");
    if (config_.replication == 0 || config_.replication > config_.nodes)
        throw StoreError("replication must be in [1, nodes]");
    partitioner_ = make_partitioner(config_.partitioner);
    nodes_.reserve(config_.nodes);
    for (std::size_t i = 0; i < config_.nodes; ++i) {
        NodeConfig nc;
        nc.data_dir = config_.base_dir + "/node" + std::to_string(i);
        nc.memtable_flush_bytes = config_.memtable_flush_bytes;
        nc.commitlog_enabled = config_.commitlog_enabled;
        nc.commitlog_sync_every = config_.commitlog_sync_every;
        nc.compaction_min_tables = config_.compaction_min_tables;
        nc.registry = &registry_;
        nc.metric_prefix = "store.node" + std::to_string(i);
        nodes_.push_back(std::make_unique<StorageNode>(std::move(nc)));
    }
}

StoreCluster::~StoreCluster() { stop_maintenance(); }

std::size_t StoreCluster::primary_node(const Key& key) const {
    return partitioner_->node_for(key, nodes_.size());
}

void StoreCluster::insert(const Key& key, TimestampNs ts, Value value,
                          std::uint32_t ttl_s, int local_hint) {
    const Row row{ts, value, Row::expiry_at(ts, ttl_s)};
    const Mutation mutation{key, std::span<const Row>(&row, 1)};
    insert_batch(std::span<const Mutation>(&mutation, 1), local_hint);
}

void StoreCluster::insert_batch(std::span<const BatchEntry> entries,
                                int local_hint,
                                const telemetry::trace::TraceContext* trace) {
    insert_batch(to_mutations(entries), local_hint, trace);
}

void StoreCluster::insert_batch(std::span<const Mutation> mutations,
                                int local_hint,
                                const telemetry::trace::TraceContext* trace) {
    std::uint64_t rows = 0;
    for (const auto& m : mutations) rows += m.rows.size();
    if (rows == 0) return;

    if (nodes_.size() == 1) {
        // One node owns every key (replication is then 1 too): the batch
        // goes through as it is, with no per-node copy.
        nodes_[0]->insert_batch(mutations, trace);
        total_writes_.add(rows);
        if (local_hint == 0) local_writes_.add(rows);
        return;
    }

    // Group per destination node so each node sees one insert_batch
    // call (one lock acquisition, one commit-log record) per replica
    // sweep. thread_local keeps the steady-state path allocation-free;
    // agent session threads each get their own buckets.
    thread_local std::vector<std::vector<Mutation>> buckets;
    if (buckets.size() < nodes_.size()) buckets.resize(nodes_.size());
    for (auto& bucket : buckets) bucket.clear();

    std::uint64_t local = 0;
    for (const auto& m : mutations) {
        const std::size_t primary = primary_node(m.key);
        if (local_hint >= 0 &&
            static_cast<std::size_t>(local_hint) == primary)
            local += m.rows.size();
        for (std::size_t r = 0; r < config_.replication; ++r)
            buckets[(primary + r) % nodes_.size()].push_back(m);
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (!buckets[i].empty()) nodes_[i]->insert_batch(buckets[i], trace);

    total_writes_.add(rows);
    if (local > 0) local_writes_.add(local);
}

void StoreCluster::set_tracer(telemetry::trace::Tracer* tracer) {
    for (auto& node : nodes_) node->set_tracer(tracer);
}

bool StoreCluster::writable() const {
    for (const auto& node : nodes_) {
        if (!node->writable()) return false;
    }
    return true;
}

std::vector<Row> StoreCluster::query(const Key& key, TimestampNs t0,
                                     TimestampNs t1) const {
    return nodes_[primary_node(key)]->query(key, t0, t1);
}

std::vector<Row> StoreCluster::query_replica(std::size_t replica_index,
                                             const Key& key, TimestampNs t0,
                                             TimestampNs t1) const {
    if (replica_index >= config_.replication)
        throw StoreError("replica index out of range");
    const std::size_t node =
        (primary_node(key) + replica_index) % nodes_.size();
    return nodes_[node]->query(key, t0, t1);
}

void StoreCluster::flush_all() {
    for (auto& node : nodes_) node->flush();
}

void StoreCluster::compact_all() {
    for (auto& node : nodes_) node->compact();
}

void StoreCluster::truncate_before(TimestampNs cutoff) {
    for (auto& node : nodes_) node->truncate_before(cutoff);
}

void StoreCluster::start_maintenance(std::chrono::milliseconds interval) {
    {
        MutexLock lock(maintenance_mutex_);
        if (maintenance_running_) return;
        maintenance_stop_ = false;
        maintenance_running_ = true;
    }
    maintenance_thread_ =
        std::thread([this, interval] { maintenance_loop(interval); });
}

void StoreCluster::stop_maintenance() {
    {
        MutexLock lock(maintenance_mutex_);
        if (!maintenance_running_) return;
        maintenance_stop_ = true;
    }
    maintenance_cv_.notify_all();
    maintenance_thread_.join();
    MutexLock lock(maintenance_mutex_);
    maintenance_running_ = false;
}

bool StoreCluster::maintenance_running() const {
    MutexLock lock(maintenance_mutex_);
    return maintenance_running_;
}

std::uint64_t StoreCluster::maintenance_rounds() const {
    MutexLock lock(maintenance_mutex_);
    return maintenance_rounds_;
}

void StoreCluster::maintenance_loop(std::chrono::milliseconds interval) {
    for (;;) {
        {
            MutexLock lock(maintenance_mutex_);
            if (!maintenance_stop_)
                maintenance_cv_.wait_for(maintenance_mutex_, interval);
            if (maintenance_stop_) return;
        }
        for (auto& node : nodes_) {
            try {
                node->maintain();
            } catch (const std::exception& e) {
                // The node keeps serving its tables; the next round
                // tries again.
                maintenance_errors_.add(1);
                DCDB_WARN("store") << "maintenance round failed: " << e.what();
            }
        }
        MutexLock lock(maintenance_mutex_);
        ++maintenance_rounds_;
    }
}

ClusterStats StoreCluster::stats() const {
    ClusterStats s;
    s.per_node.reserve(nodes_.size());
    for (const auto& node : nodes_) s.per_node.push_back(node->stats());
    s.local_writes = local_writes_.value();
    s.total_writes = total_writes_.value();
    return s;
}

}  // namespace dcdb::store
