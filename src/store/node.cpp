#include "store/node.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "common/bytebuf.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "store/compaction.hpp"
#include "store/merge.hpp"

namespace dcdb::store {

namespace fs = std::filesystem;

StorageNode::StorageNode(NodeConfig config)
    : config_(std::move(config)),
      writes_(telemetry::resolve_registry(config_.registry, owned_registry_)
                  .counter(config_.metric_prefix + ".writes")),
      reads_(telemetry::resolve_registry(config_.registry, owned_registry_)
                 .counter(config_.metric_prefix + ".reads")),
      flushes_(telemetry::resolve_registry(config_.registry, owned_registry_)
                   .counter(config_.metric_prefix + ".flushes")),
      compactions_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter(config_.metric_prefix + ".compactions")),
      bloom_checks_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter(config_.metric_prefix + ".bloom.checks")),
      bloom_negatives_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter(config_.metric_prefix + ".bloom.negatives")),
      compaction_tables_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter(config_.metric_prefix + ".compaction.tables")),
      compaction_bytes_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter(config_.metric_prefix + ".compaction.bytes")),
      flush_errors_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter(config_.metric_prefix + ".flush.errors")),
      commitlog_bytes_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .counter(config_.metric_prefix + ".commitlog.bytes")),
      flush_latency_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .histogram(config_.metric_prefix + ".flush.latency")),
      compaction_latency_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .histogram(config_.metric_prefix + ".compaction.latency")),
      compaction_stall_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .histogram(config_.metric_prefix + ".compaction.stall")),
      commitlog_sync_latency_(
          telemetry::resolve_registry(config_.registry, owned_registry_)
              .histogram(config_.metric_prefix + ".commitlog.sync.latency")) {
    if (config_.data_dir.empty()) throw StoreError("data_dir required");
    fs::create_directories(config_.data_dir);

    // Open existing SSTables in generation order; sweep temporaries a
    // crashed flush or compaction left behind (their contents are either
    // incomplete or still fully covered by the inputs + commit log).
    std::vector<std::pair<std::uint64_t, std::string>> found;
    for (const auto& entry : fs::directory_iterator(config_.data_dir)) {
        const std::string name = entry.path().filename().string();
        if (starts_with(name, "sstable-") && ends_with(name, ".tmp")) {
            std::error_code ec;
            fs::remove(entry.path(), ec);
            continue;
        }
        if (starts_with(name, "sstable-") && ends_with(name, ".db")) {
            const auto gen = parse_u64(name.substr(8, name.size() - 11));
            if (gen) found.emplace_back(*gen, entry.path().string());
        }
    }
    std::sort(found.begin(), found.end());
    for (const auto& [gen, path] : found) {
        try {
            sstables_.push_back(SsTable::open(path));
        } catch (const StoreError& e) {
            // A torn write (crash during flush/compaction) must not take
            // the whole node down: quarantine the file and carry on.
            DCDB_WARN("store") << "quarantining corrupt sstable " << path
                               << ": " << e.what();
            std::error_code ec;
            // dcdblint: allow-durable-io(a quarantine, not a publish)
            fs::rename(path, path + ".corrupt", ec);
        }
        next_generation_ = std::max(next_generation_, gen + 1);
    }

    // Recover writes that never reached an SSTable: the commit log replays
    // into the memtable as it opens (even on a node without one now).
    const std::string log_path = config_.data_dir + "/commit.log";
    if (config_.commitlog_enabled || fs::exists(log_path)) {
        auto log = std::make_unique<CommitLog>(
            log_path, [this](const Key& key, std::span<const Row> rows) {
                memtable_.insert(key, rows);
            });
        if (config_.commitlog_enabled) commitlog_ = std::move(log);
    }
}

std::string StorageNode::sstable_path(std::uint64_t generation) const {
    return config_.data_dir + "/sstable-" + std::to_string(generation) + ".db";
}

void StorageNode::insert(const Key& key, TimestampNs ts, Value value,
                         std::uint32_t ttl_s) {
    const Row row{ts, value, Row::expiry_at(ts, ttl_s)};
    const Mutation mutation{key, std::span<const Row>(&row, 1)};
    insert_batch(std::span<const Mutation>(&mutation, 1));
}

void StorageNode::insert_batch(std::span<const BatchEntry> entries,
                               const telemetry::trace::TraceContext* trace) {
    insert_batch(to_mutations(entries), trace);
}

void StorageNode::insert_batch(std::span<const Mutation> mutations,
                               const telemetry::trace::TraceContext* trace) {
    std::size_t rows = 0;
    for (const auto& m : mutations) rows += m.rows.size();
    if (rows == 0) return;

    // Fault hook: errors model a transiently failing storage server
    // (callers are expected to retry), drops model silent write loss
    // (exists so loss-detection tests can prove they detect it). One
    // roll per batch: the batch fails or lands as a unit, mirroring the
    // crash atomicity of its single commit-log record.
    const FaultAction fault =
        FaultInjector::instance().apply(FaultPoint::kStoreInsert);
    if (fault == FaultAction::kError)
        throw StoreError("injected store insert fault");
    if (fault == FaultAction::kDrop) return;

    // The commit-log record and its CRC are encoded straight from the
    // mutations before the writer lock is taken. The scratch is
    // thread_local, so the steady-state batch path does not allocate.
    thread_local std::vector<std::uint8_t> record;
    if (config_.commitlog_enabled) CommitLog::encode_record(mutations, record);

    // Span timings are captured inside the writer lock but recorded
    // after it drops — the flight-recorder write is lock-free, yet there
    // is no reason to stretch the lock hold for diagnostics.
    const bool traced = trace != nullptr && trace->valid() &&
                        tracer_ != nullptr;
    TimestampNs append_wall = 0;
    TimestampNs sync_wall = 0;
    std::uint64_t append_dur = 0;
    std::uint64_t sync_dur = 0;
    bool synced = false;
    {
        WriterLock lock(mutex_);
        if (commitlog_) {
            TimestampNs append_start = 0;
            if (traced) {
                append_wall = now_ns();
                append_start = steady_ns();
            }
            commitlog_->append(record, rows);
            commitlog_bytes_.add(record.size());
            if (traced) append_dur = steady_ns() - append_start;
            // The sync cadence counts rows, not batches: the durability
            // contract ("a machine crash loses at most
            // commitlog_sync_every readings") must not widen just
            // because the writer batched.
            appends_since_sync_ += rows;
            if (config_.commitlog_sync_every != 0 &&
                appends_since_sync_ >= config_.commitlog_sync_every) {
                if (traced) sync_wall = now_ns();
                const TimestampNs sync_start = steady_ns();
                commitlog_->sync();
                const std::uint64_t dur = steady_ns() - sync_start;
                commitlog_sync_latency_.record(dur);
                if (traced) {
                    sync_dur = dur;
                    synced = true;
                }
                appends_since_sync_ = 0;
            }
        }
        for (const auto& m : mutations) memtable_.insert(m.key, m.rows);
        writes_.add(rows);
        if (memtable_.approx_bytes() >= config_.memtable_flush_bytes)
            flush_locked();
    }
    trim_scratch(record);
    if (traced && append_wall != 0) {
        tracer_->record_span(*trace, telemetry::trace::Stage::kLogAppend,
                             append_wall, append_dur,
                             static_cast<std::uint32_t>(rows));
    }
    if (traced && synced) {
        tracer_->record_span(*trace, telemetry::trace::Stage::kSync,
                             sync_wall, sync_dur,
                             static_cast<std::uint32_t>(rows));
    }
}

std::vector<Row> StorageNode::query(const Key& key, TimestampNs t0,
                                    TimestampNs t1) const {
    reads_.add(1);
    ReaderLock lock(mutex_);

    // One cursor per source, newest first: the memtable, then SSTables
    // newest-to-oldest, as merge_newest_wins takes them.
    std::vector<RowCursor> sources;
    sources.reserve(sstables_.size() + 1);
    sources.push_back(memtable_.cursor(key, t0, t1));
    for (auto it = sstables_.rbegin(); it != sstables_.rend(); ++it) {
        // Bloom effectiveness: every negative is one SSTable probe the
        // filter saved. The node probes once per table; SsTable::cursor
        // deliberately does not re-check (the second probe would skew
        // these counters and cost a redundant hash).
        bloom_checks_.add(1);
        if (!(*it)->may_contain(key)) {
            bloom_negatives_.add(1);
            continue;
        }
        sources.push_back((*it)->cursor(key, t0, t1));
    }

    // An expired winner is dropped, and still hides the older copies the
    // merge consumed under it.
    const TimestampNs now = now_ns();
    std::vector<Row> out;
    merge_newest_wins(sources, [&](const Row& row) {
        if (!row.expired(now)) out.push_back(row);
    });
    return out;
}

void StorageNode::flush() {
    WriterLock lock(mutex_);
    flush_locked();
}

void StorageNode::flush_locked() {
    if (memtable_.empty()) return;
    const TimestampNs start = steady_ns();
    const std::uint64_t gen = next_generation_++;
    FaultAction fault = FaultAction::kNone;
    try {
        // finish() publishes durably (fsync -> rename -> dir fsync)
        // before returning: once it does, the rows survive a crash with
        // or without the commit log, so resetting the log below is safe.
        const std::vector<Key> keys = memtable_.sorted_keys();
        SsTableWriter writer(sstable_path(gen), gen, keys.size());
        for (const Key& key : keys) {
            writer.begin_partition(key);
            for (RowCursor c = memtable_.cursor(key, 0, kTimestampMax);
                 !c.done(); c.next())
                writer.add_row(c.row());
            writer.end_partition();
        }
        sstables_.push_back(writer.finish());

        // Fault hook sitting exactly in the crash-durability window: the
        // new SSTable is on disk, the commit log still holds the same
        // rows.
        fault = FaultInjector::instance().apply(FaultPoint::kStoreFlush);
        if (fault == FaultAction::kError)
            throw StoreError("injected store flush fault");
    } catch (...) {
        // The rows stay in the memtable and the log; the next insert
        // retries the flush. Not ready until one succeeds.
        flush_failed_.store(true);
        flush_errors_.add(1);
        throw;
    }
    flush_failed_.store(false);
    if (fault == FaultAction::kDrop)
        return;  // flush "crashed" before the commit-log reset

    memtable_.clear();
    if (commitlog_) {
        commitlog_->reset();
        appends_since_sync_ = 0;
    }
    flushes_.add(1);
    ++local_flushes_;
    flush_latency_.record(steady_ns() - start);
}

bool StorageNode::run_maintenance(bool merge_all, TimestampNs cutoff) {
    // One maintenance operation at a time: the unlocked merge phase
    // relies on being the only remover of SSTables (inserts may append
    // new ones concurrently, which the swap preserves).
    MutexLock maintenance(maintenance_mutex_);
    const TimestampNs op_start = steady_ns();

    // Phase 1 — brief writer lock: flush pending rows so they join the
    // merge, pick the input run, inherit the output generation.
    std::vector<const SsTable*> inputs;
    std::uint64_t out_generation = 0;
    bool from_oldest = true;  // the purge rule, store/compaction.hpp
    {
        const TimestampNs stall_start = steady_ns();
        WriterLock lock(mutex_);
        flush_locked();
        if (merge_all) {
            if (sstables_.empty() ||
                (sstables_.size() <= 1 && cutoff == 0 &&
                 local_flushes_ == 0)) {
                compaction_stall_.record(steady_ns() - stall_start);
                return false;
            }
            for (const auto& table : sstables_)
                inputs.push_back(table.get());
        } else {
            std::vector<std::uint64_t> sizes;
            sizes.reserve(sstables_.size());
            for (const auto& table : sstables_)
                sizes.push_back(table->file_bytes());
            // Tables within 2x of each other's size form a tier (the
            // policy's default ratio).
            const TierRange tier = select_size_tier(
                sizes, std::max<std::size_t>(config_.compaction_min_tables, 2));
            if (tier.size() < 2) {
                compaction_stall_.record(steady_ns() - stall_start);
                return false;
            }
            for (std::size_t i = tier.begin; i < tier.end; ++i)
                inputs.push_back(sstables_[i].get());
            from_oldest = tier.begin == 0;
        }
        // The merged table inherits its newest input's generation, so
        // the on-disk ordering matches the shadowing order after reopen.
        out_generation = inputs.back()->generation();
        compaction_stall_.record(steady_ns() - stall_start);
    }

    // Phase 2 — no locks held: the streaming merge. Inserts and queries
    // proceed against the snapshot + any tables flushed meanwhile; an
    // injected delay widens that window for insert-during-compaction
    // tests.
    const FaultAction fault =
        FaultInjector::instance().apply(FaultPoint::kStoreCompact);
    if (fault == FaultAction::kError)
        throw StoreError("injected store compact fault");
    if (fault == FaultAction::kDrop)
        return false;  // round abandoned, nothing swapped
    MergeOptions options;
    options.cutoff = cutoff;
    options.now = from_oldest ? now_ns() : 0;
    MergeResult result =
        merge_tables(inputs, sstable_path(out_generation), out_generation,
                     options);
    const std::string out_path =
        result.table ? result.table->path() : std::string{};

    // Phase 3 — brief writer lock: atomically swap the merged table in
    // for its inputs. Tables flushed during the merge sit after the run
    // and keep shadowing it, exactly as their generations say.
    std::vector<std::string> doomed;
    {
        const TimestampNs stall_start = steady_ns();
        WriterLock lock(mutex_);
        const auto first = std::find_if(
            sstables_.begin(), sstables_.end(),
            [&](const auto& table) { return table.get() == inputs.front(); });
        if (first == sstables_.end() ||
            static_cast<std::size_t>(sstables_.end() - first) < inputs.size())
            throw StoreError("compaction inputs vanished mid-merge");
        doomed.reserve(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
            doomed.push_back((first + static_cast<std::ptrdiff_t>(i))
                                 ->get()
                                 ->path());
        const auto idx = first - sstables_.begin();
        sstables_.erase(first,
                        first + static_cast<std::ptrdiff_t>(inputs.size()));
        if (result.table)
            sstables_.insert(sstables_.begin() + idx,
                             std::move(result.table));
        compaction_stall_.record(steady_ns() - stall_start);
    }

    // Phase 4 — no locks: delete the replaced files. The merged output
    // reused the newest input's path; removing it here would delete the
    // fresh table, so it is skipped. (A crash before this point leaves
    // superseded files: the merged table shadows the rows it kept, but
    // rows the merge dropped, truncated or expired, come back on reopen.)
    for (const auto& path : doomed) {
        if (path == out_path) continue;
        std::error_code ec;
        fs::remove(path, ec);
    }

    compactions_.add(1);
    compaction_tables_.add(result.stats.tables_in);
    compaction_bytes_.add(result.stats.bytes_out);
    compaction_latency_.record(steady_ns() - op_start);
    return true;
}

void StorageNode::compact() { run_maintenance(/*merge_all=*/true, 0); }

void StorageNode::truncate_before(TimestampNs cutoff) {
    run_maintenance(/*merge_all=*/true, cutoff);
}

bool StorageNode::maintain() {
    return run_maintenance(/*merge_all=*/false, 0);
}

NodeStats StorageNode::stats() const {
    ReaderLock lock(mutex_);
    NodeStats s;
    s.writes = writes_.value();
    s.reads = reads_.value();
    s.flushes = flushes_.value();
    s.compactions = compactions_.value();
    s.sstables = sstables_.size();
    s.memtable_rows = memtable_.row_count();
    for (const auto& table : sstables_) s.disk_bytes += table->file_bytes();
    if (commitlog_) s.commitlog_syncs = commitlog_->syncs();
    s.commitlog_bytes = commitlog_bytes_.value();
    s.bloom_checks = bloom_checks_.value();
    s.bloom_negatives = bloom_negatives_.value();
    s.compaction_tables = compaction_tables_.value();
    s.compaction_bytes = compaction_bytes_.value();
    return s;
}

bool StorageNode::writable() const {
    return !flush_failed_.load() && !(commitlog_ && commitlog_->failed()) &&
           ::access(config_.data_dir.c_str(), W_OK) == 0;
}

}  // namespace dcdb::store
