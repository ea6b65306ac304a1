// Append-only commit log for durability between memtable flushes
// (Cassandra's commit-log role): a RecordLog (store/file.hpp) with magic
// 'DCL2', version 4, and one record per *batch*, whose body is its runs,
//   key(20) | u32 row count n | n x (ts(8) + value(8) + expiry(4))
// repeated, big-endian. A batch is atomic under crash: replay delivers
// all of its runs or (torn or corrupt) none, and a torn batch ends
// replay.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "store/file.hpp"
#include "store/key.hpp"
#include "store/row.hpp"
#include "telemetry/metrics.hpp"

namespace dcdb::store {

/// The store's write unit: a run of one partition's rows, as a Collect
/// Agent section yields them (one sensor, one day bucket). The rows are
/// usually in timestamp order; of equal timestamps the later row wins.
struct Mutation {
    Key key;
    std::span<const Row> rows;
};

/// One reading of a batched insert; `ttl_s` 0 means no expiry. Entries
/// of one batch may address different keys. to_mutations() turns
/// entries into mutations, so they take the one write path.
struct BatchEntry {
    Key key;
    TimestampNs ts{0};
    Value value{0};
    std::uint32_t ttl_s{0};

    Row row() const { return Row{ts, value, Row::expiry_at(ts, ttl_s)}; }
};

/// `entries` as mutations, one per run of consecutive entries with equal
/// keys. The rows and mutations live in thread-local scratch: the span is
/// valid until the calling thread's next call.
std::span<const Mutation> to_mutations(std::span<const BatchEntry> entries);

class CommitLog {
  public:
    using Apply = std::function<void(const Key&, std::span<const Row>)>;

    /// Open (creating if needed) the log at `path`, replaying each run
    /// of every intact record into `apply` in append order (RecordLog's
    /// open policy: the torn tail is truncated, a foreign header refused).
    CommitLog(std::string path, const Apply& apply);
    ~CommitLog();

    CommitLog(const CommitLog&) = delete;
    CommitLog& operator=(const CommitLog&) = delete;

    /// Encode a whole batch as ONE sealed record into `out`, replacing
    /// its contents; runs without rows are left out. Returns the rows
    /// encoded. Needs no lock: StorageNode encodes into thread-local
    /// scratch before it takes its writer lock.
    static std::size_t encode_record(std::span<const Mutation> mutations,
                                     std::vector<std::uint8_t>& out);

    /// Append one record of `rows` rows from encode_record(): one
    /// write(2), crash-atomic. It survives a killed process once this
    /// returns.
    void append(std::span<const std::uint8_t> record, std::size_t rows);

    /// fdatasync: the appended records reach the device, and survive a
    /// machine crash. StorageNode calls it every commitlog_sync_every
    /// rows.
    void sync();

    /// Truncate to the header in place, after a memtable flush.
    void reset();

    /// True once a write failed (RecordLog::failed).
    bool failed() const { return log_.failed(); }

    /// Rows in the current log, replayed ones included (zero on reset).
    std::uint64_t records_appended() const {
        return static_cast<std::uint64_t>(records_.value());
    }
    std::uint64_t syncs() const { return syncs_.value(); }

  private:
    // Read by stats paths without a lock; declared before log_, whose
    // replay counts into records_.
    telemetry::Gauge records_;
    telemetry::Counter syncs_;
    RecordLog log_;
};

}  // namespace dcdb::store
