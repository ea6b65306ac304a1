// Durable files: the one module of the store that frames, checksums,
// replays and truncates logs, and that orders syncs and renames
// (dcdblint's `durable-io` rule keeps them here).
//
// A RecordLog is an 8-byte header (u32 magic, u32 version), then records
//   u32 len | len bytes of body | u32 crc      (big-endian)
// with crc = murmur3 over len + body. The commit log ('DCL2') and the
// metadata dictionary ('DMS1') differ only in magic and body codec.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>

#include "common/mutex.hpp"

namespace dcdb::store {

/// fflush `f` (written at `path`), then fsync it. Throws StoreError.
void sync_file(std::FILE* f, const std::string& path);

/// Read exactly `n` bytes at `offset` of `fd` (opened from `path`),
/// retrying EINTR and short reads. Throws StoreError if the file ends
/// first or the read fails.
void pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset,
                 const std::string& path);

/// Durably publish a written temporary file: sync_file, close, rename
/// `tmp_path` over `path`, then fsync the parent directory so the rename
/// survives a crash. Takes ownership of `f`, closing it even on a throw.
void publish_file(std::FILE* f, const std::string& tmp_path,
                  const std::string& path);

class RecordLog {
  public:
    /// A body's frame: its u32 length before it, its u32 CRC after it.
    static constexpr std::size_t kFrameBytes = 8;

    /// Takes one replayed body; false rejects it, ending replay there.
    using Replay = std::function<bool(std::span<const std::uint8_t> body)>;

    /// Open (creating if needed) the log at `path`. A file shorter than
    /// the header starts empty. Any other header than `magic` + `version`
    /// is refused with StoreError, leaving the file untouched. Otherwise
    /// every intact record replays in order (non-zero length that fits
    /// the bytes left, matching CRC, body accepted by `replay`), and all
    /// bytes after the last one are truncated.
    RecordLog(std::string path, std::uint32_t magic, std::uint32_t version,
              const Replay& replay);
    ~RecordLog();

    RecordLog(const RecordLog&) = delete;
    RecordLog& operator=(const RecordLog&) = delete;

    /// Write the frame of `record`, laid out as 4 spare bytes, the body
    /// and 4 spare bytes. Takes no lock. Throws StoreError if the body
    /// does not fit the u32 length.
    static void seal(std::span<std::uint8_t> record);

    /// Each of these throws StoreError on failure. After a failed write
    /// the log refuses every later call until it is reopened: a partial
    /// record on disk would hide every append behind it from replay.
    /// A returned append is in the kernel, so it survives a killed
    /// process; only a machine crash can lose it before the next sync.
    void append(std::span<const std::uint8_t> record) DCDB_EXCLUDES(mutex_);
    void sync() DCDB_EXCLUDES(mutex_);   // fdatasync
    void reset() DCDB_EXCLUDES(mutex_);  // truncate to the header in place

    /// True once a write failed: the log refuses writes until reopened.
    /// Takes no lock, so it never waits behind a write or an fdatasync.
    bool failed() const { return failed_.load(); }

    const std::string& path() const { return path_; }

  private:
    void check_usable() DCDB_REQUIRES(mutex_);
    [[noreturn]] void fail(const char* what) DCDB_REQUIRES(mutex_);

    const std::string path_;
    dcdb::Mutex mutex_;
    int fd_ DCDB_GUARDED_BY(mutex_){-1};  // opened O_APPEND
    std::atomic<bool> failed_{false};  // set under mutex_
};

}  // namespace dcdb::store
