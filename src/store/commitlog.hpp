// Append-only commit log for durability between memtable flushes
// (Cassandra's commit-log role): a RecordLog (store/file.hpp) with magic
// 'DCL2', version 3, and one record per *batch*, whose body is its rows,
//   len / 40 x (key(20) + ts(8) + value(8) + expiry(4))   big-endian.
// A batch is atomic under crash: replay delivers all of its rows or
// (torn or corrupt) none, and a torn batch ends replay.
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

/// One reading of a batched insert; `ttl_s` 0 means no expiry. Entries
/// of one batch may address different keys (the key's time bucket is
/// derived per reading, and an agent batch spans sensors).
struct BatchEntry {
    Key key;
    TimestampNs ts{0};
    Value value{0};
    std::uint32_t ttl_s{0};

    /// The stored row: the TTL becomes an absolute expiry in UNIX
    /// seconds.
    Row row() const {
        return Row{ts, value,
                   ttl_s == 0 ? 0u
                              : static_cast<std::uint32_t>(ts / kNsPerSec +
                                                           ttl_s)};
    }
};

class CommitLog {
  public:
    using Apply = std::function<void(const Key&, const Row&)>;

    /// Open (creating if needed) the log at `path`, replaying each row
    /// of every intact record into `apply` in append order (RecordLog's
    /// open policy: the torn tail is truncated, a foreign header refused).
    CommitLog(std::string path, const Apply& apply);
    ~CommitLog();

    CommitLog(const CommitLog&) = delete;
    CommitLog& operator=(const CommitLog&) = delete;

    /// Encode a whole batch as ONE sealed record into `out`, replacing
    /// its contents. Needs no lock: StorageNode encodes into thread-local
    /// scratch before it takes its writer lock.
    static void encode_record(std::span<const BatchEntry> entries,
                              std::vector<std::uint8_t>& out);

    /// Append one record from encode_record(): one write(2),
    /// crash-atomic. It survives a killed process once this returns.
    void append(std::span<const std::uint8_t> record);

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
