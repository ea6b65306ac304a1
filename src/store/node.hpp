// Single storage server: commit log + memtable + SSTables (the Cassandra
// storage engine path, scoped to what DCDB's workload exercises).
//
// Maintenance (compact / truncate_before / maintain) is non-blocking:
// the writer lock is held only to snapshot the input table set and to
// swap in the merged result; the streaming merge itself (see
// store/compaction.hpp) runs with no locks held, so concurrent inserts
// and queries proceed throughout. DESIGN.md §9 documents the
// snapshot/merge/swap protocol and its durability ordering.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "store/commitlog.hpp"
#include "store/memtable.hpp"
#include "store/sstable.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace dcdb::store {

struct NodeConfig {
    std::string data_dir;
    std::size_t memtable_flush_bytes{8u << 20};
    bool commitlog_enabled{true};
    /// fdatasync the commit log every N rows (0 = only on close).
    /// Bounds what a machine crash loses to at most N readings per node;
    /// a killed process loses none.
    std::size_t commitlog_sync_every{256};
    /// Size-tiered maintenance: minimum adjacent similar-size tables
    /// before maintain() merges a tier.
    std::size_t compaction_min_tables{4};
    /// Shared metric registry for the node's counters and latency
    /// histograms; nullptr keeps a private one.
    telemetry::MetricRegistry* registry{nullptr};
    /// Dot-name prefix for this node's metrics. A cluster sharing one
    /// registry gives each node a distinct prefix (store.node0, ...) so
    /// per-node stats stay per-node.
    std::string metric_prefix{"store"};
};

struct NodeStats {
    std::uint64_t writes{0};
    std::uint64_t reads{0};
    std::uint64_t flushes{0};
    std::uint64_t compactions{0};
    std::size_t sstables{0};
    std::size_t memtable_rows{0};
    std::uint64_t disk_bytes{0};
    std::uint64_t commitlog_syncs{0};
    /// Bytes of the commit-log records appended (frames included).
    std::uint64_t commitlog_bytes{0};
    std::uint64_t bloom_checks{0};
    /// SSTable probes skipped because the bloom filter proved absence.
    std::uint64_t bloom_negatives{0};
    /// Input tables consumed by compaction merges.
    std::uint64_t compaction_tables{0};
    /// Bytes written by compaction merges (the rewrite amplification).
    std::uint64_t compaction_bytes{0};
};

class StorageNode {
  public:
    /// Opens existing SSTables in `data_dir` and replays the commit log.
    explicit StorageNode(NodeConfig config);

    StorageNode(const StorageNode&) = delete;
    StorageNode& operator=(const StorageNode&) = delete;

    /// Insert one reading; `ttl_s` 0 means no expiry. Triggers a memtable
    /// flush when the configured threshold is crossed. Implemented as a
    /// one-row mutation — insert_batch is the only write path.
    void insert(const Key& key, TimestampNs ts, Value value,
                std::uint32_t ttl_s = 0) DCDB_EXCLUDES(mutex_);

    /// Insert a whole batch of mutations under ONE writer-lock
    /// acquisition and ONE commit-log record (crash-atomic: replay
    /// delivers all of the batch's rows or none). The record is encoded
    /// before the lock is taken; the lock covers its write, the sync
    /// cadence and the memtable insert, one index probe per mutation.
    /// The fault hook rolls once per batch — a batch is the unit of
    /// work, so it fails or lands as a unit.
    /// A non-null `trace` (plus a tracer via set_tracer) adds
    /// log_append / sync spans for this batch to the flight recorder.
    void insert_batch(std::span<const Mutation> mutations,
                      const telemetry::trace::TraceContext* trace = nullptr)
        DCDB_EXCLUDES(mutex_);
    /// The same, for entries cut into mutations by to_mutations().
    void insert_batch(std::span<const BatchEntry> entries,
                      const telemetry::trace::TraceContext* trace = nullptr)
        DCDB_EXCLUDES(mutex_);

    /// Wire the flight recorder for traced batches. Set before traffic
    /// starts (plain pointer, not synchronized against inserts).
    void set_tracer(telemetry::trace::Tracer* tracer) { tracer_ = tracer; }

    /// Readiness probe: the data directory still accepts writes (a
    /// full or remounted-read-only disk flips this to false), the
    /// commit log has not failed a write, and the last memtable flush
    /// did not fail (every insert retries it, and is refused until one
    /// succeeds). Takes no lock, so a probe never waits behind a flush or
    /// an fdatasync: commitlog_ is set only in the constructor, and
    /// CommitLog::failed() and flush_failed_ read atomics.
    bool writable() const DCDB_NO_THREAD_SAFETY_ANALYSIS;

    /// Merged view over memtable and SSTables, newest write wins per
    /// timestamp (merge_newest_wins, store/merge.hpp); an expired winner
    /// is filtered and still hides older copies. Sorted by timestamp.
    std::vector<Row> query(const Key& key, TimestampNs t0,
                           TimestampNs t1) const DCDB_EXCLUDES(mutex_);

    /// Force the memtable to disk.
    void flush() DCDB_EXCLUDES(mutex_);

    /// Merge all SSTables into one, dropping expired and shadowed rows
    /// (the `config` tool's "compact" maintenance command drives this).
    /// Streaming and non-blocking: inserts and queries proceed while the
    /// merge runs.
    void compact() DCDB_EXCLUDES(mutex_);

    /// Drop all rows with ts < cutoff across the node (the `config`
    /// tool's "delete old data" command). Rows inserted concurrently
    /// with the purge are preserved regardless of timestamp.
    void truncate_before(TimestampNs cutoff) DCDB_EXCLUDES(mutex_);

    /// One background maintenance round: merge the best size tier of
    /// adjacent similar-size tables, if any (the StoreCluster
    /// maintenance thread calls this periodically). Returns true when a
    /// tier was merged.
    bool maintain() DCDB_EXCLUDES(mutex_);

    NodeStats stats() const DCDB_EXCLUDES(mutex_);

  private:
    void flush_locked() DCDB_REQUIRES(mutex_);
    /// Shared snapshot/merge/swap engine behind compact(),
    /// truncate_before() and maintain(). `merge_all` selects every table
    /// (manual compaction / purge); otherwise the size-tiered policy
    /// picks a run. Returns true when a merge happened.
    bool run_maintenance(bool merge_all, TimestampNs cutoff)
        DCDB_EXCLUDES(mutex_) DCDB_EXCLUDES(maintenance_mutex_);
    std::string sstable_path(std::uint64_t generation) const;

    NodeConfig config_;
    telemetry::trace::Tracer* tracer_{nullptr};
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::Counter& writes_;
    telemetry::Counter& reads_;
    telemetry::Counter& flushes_;
    telemetry::Counter& compactions_;
    telemetry::Counter& bloom_checks_;
    telemetry::Counter& bloom_negatives_;
    telemetry::Counter& compaction_tables_;
    telemetry::Counter& compaction_bytes_;
    telemetry::Counter& flush_errors_;
    telemetry::Counter& commitlog_bytes_;
    telemetry::Histogram& flush_latency_;
    telemetry::Histogram& compaction_latency_;
    /// Writer-lock hold time of the maintenance phases (snapshot, swap):
    /// the insert/query stall a compaction actually causes — this is the
    /// histogram bench_compaction's smoke gate bounds.
    telemetry::Histogram& compaction_stall_;
    telemetry::Histogram& commitlog_sync_latency_;
    /// Serializes maintenance operations (compact / truncate_before /
    /// maintain): the unlocked merge phase relies on being the only
    /// remover of SSTables. Lock order: maintenance_mutex_ -> mutex_.
    Mutex maintenance_mutex_;
    mutable SharedMutex mutex_;
    Memtable memtable_ DCDB_GUARDED_BY(mutex_);
    // The commit log's RecordLog has its own lock; the pointer itself is
    // only set at construction. Lock order: mutex_ -> RecordLog.
    std::unique_ptr<CommitLog> commitlog_ DCDB_GUARDED_BY(mutex_);
    std::size_t appends_since_sync_ DCDB_GUARDED_BY(mutex_){0};
    // Set when a flush throws, cleared when one succeeds; written under
    // mutex_, read by writable() without it.
    std::atomic<bool> flush_failed_{false};
    // Oldest-to-newest shadowing order == ascending generation: flushes
    // append fresh generations and a tier merge inherits its newest
    // input's generation, so the invariant survives mid-sequence merges
    // and reopen-from-disk sorts (see store/compaction.hpp).
    std::vector<std::unique_ptr<SsTable>> sstables_ DCDB_GUARDED_BY(mutex_);
    std::uint64_t next_generation_ DCDB_GUARDED_BY(mutex_){1};
    // Per-node flush count for compact()'s "anything new since the last
    // merge?" decision; the registry counter may be shared cluster-wide.
    std::uint64_t local_flushes_ DCDB_GUARDED_BY(mutex_){0};
};

}  // namespace dcdb::store
