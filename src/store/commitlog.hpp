// Append-only commit log for durability between memtable flushes
// (Cassandra's commit-log role). Each record carries a checksum; replay
// stops at the first corrupt or truncated record, recovering everything
// durably appended before a crash, and reports the byte offset of the
// valid prefix so the caller can truncate the torn tail before reopening
// the log in append mode — otherwise post-crash appends would land after
// garbage and be unreachable on the next replay.
//
// On-disk format: an 8-byte file header (u32 magic 'DCL2', u32 version
// 2), then one record per *batch*:
//
//   u32 count + count x (key(20) + ts(8) + value(8) + expiry(4)) + crc(4)
//
// with every field big-endian and the crc covering the count and every
// entry. A batch is atomic under crash: replay either delivers all of
// its rows or (torn/corrupt) none, and a torn batch ends replay. A file
// without the header replays nothing (its valid prefix is empty).
#pragma once

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
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
    /// Open (creating if needed) the log at `path` for appending. An
    /// empty file gets the header; a non-empty file without it is
    /// refused with StoreError.
    explicit CommitLog(std::string path);
    ~CommitLog();

    CommitLog(const CommitLog&) = delete;
    CommitLog& operator=(const CommitLog&) = delete;

    /// Encode a whole batch as ONE checksummed record into `out`,
    /// replacing its contents. Needs no lock: StorageNode encodes into
    /// thread-local scratch before it takes its writer lock.
    static void encode_record(std::span<const BatchEntry> entries,
                              std::vector<std::uint8_t>& out);

    /// Append one record from encode_record() that holds `rows` rows:
    /// one buffered write, crash-atomic.
    void append(std::span<const std::uint8_t> record, std::size_t rows)
        DCDB_EXCLUDES(mutex_);

    /// Encode and append in one call.
    void append_batch(std::span<const BatchEntry> entries)
        DCDB_EXCLUDES(mutex_);

    /// Durable flush: fflush to the OS, then fdatasync to the device.
    /// This is the crash-durability point — Cassandra's "batch" sync
    /// level; StorageNode calls it every commitlog_sync_every appends.
    void sync() DCDB_EXCLUDES(mutex_);

    /// Truncate after a successful memtable flush, leaving only the
    /// header.
    void reset() DCDB_EXCLUDES(mutex_);

    const std::string& path() const { return path_; }
    /// Rows in the current log (resets with the log on truncation).
    std::uint64_t records_appended() const {
        return static_cast<std::uint64_t>(records_.value());
    }
    std::uint64_t syncs() const { return syncs_.value(); }

    struct ReplayResult {
        std::uint64_t records{0};      // intact rows recovered
        std::uint64_t valid_bytes{0};  // offset of the first torn byte
    };

    /// Replay a log file in append order; `apply` is invoked for each
    /// intact row. Replay stops at the first corrupt or short record.
    static ReplayResult replay(
        const std::string& path,
        const std::function<void(const Key&, const Row&)>& apply);

  private:
    std::string path_;
    std::FILE* file_ DCDB_PT_GUARDED_BY(mutex_){nullptr};
    dcdb::Mutex mutex_;
    // Read by stats paths without the mutex. records_ is a gauge: it
    // drops back to zero when reset() truncates the log.
    telemetry::Gauge records_;
    telemetry::Counter syncs_;
};

}  // namespace dcdb::store
