#include "store/commitlog.hpp"

#include <cstring>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/bytebuf.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "store/murmur.hpp"

namespace dcdb::store {

namespace {

// File header: magic 'DCL2' + version.
constexpr std::uint32_t kLogMagic = 0x44434C32;  // 'DCL2'
constexpr std::uint32_t kLogVersion = 2;
constexpr std::size_t kHeaderBytes = 4 + 4;

// Per-entry payload inside a batch record: key(20) + ts + value + expiry
constexpr std::size_t kEntryBytes = Key::kBytes + 8 + 8 + 4;
// Replay sanity bound on a batch record's count field: anything larger
// is treated as a corrupt tail rather than a 40 MB allocation.
constexpr std::uint32_t kMaxBatchEntries = 1u << 20;

std::uint32_t record_crc(std::span<const std::uint8_t> body) {
    return static_cast<std::uint32_t>(murmur3_token(body));
}

void write_header(std::FILE* f, const std::string& path) {
    ByteWriter w(kHeaderBytes);
    w.u32be(kLogMagic);
    w.u32be(kLogVersion);
    if (std::fwrite(w.data().data(), 1, w.size(), f) != w.size())
        throw StoreError("cannot write commit log header: " + path);
}

bool is_header(const std::uint8_t (&hdr)[kHeaderBytes]) {
    ByteReader r(hdr);
    return r.u32be() == kLogMagic && r.u32be() == kLogVersion;
}

}  // namespace

CommitLog::CommitLog(std::string path) : path_(std::move(path)) {
    // "a+": the header check reads from offset 0, every write appends.
    file_ = std::fopen(path_.c_str(), "ab+");
    if (!file_) throw StoreError("cannot open commit log " + path_);
    std::rewind(file_);
    std::uint8_t hdr[kHeaderBytes];
    const std::size_t got = std::fread(hdr, 1, sizeof hdr, file_);
    std::fseek(file_, 0, SEEK_END);
    if (got == 0) {
        write_header(file_, path_);
    } else if (got != sizeof hdr || !is_header(hdr)) {
        std::fclose(file_);
        throw StoreError("not a DCL2 commit log: " + path_);
    }
}

CommitLog::~CommitLog() {
    if (!file_) return;
    // Best-effort durability on orderly shutdown; a crash relies on the
    // periodic sync() cadence instead.
    std::fflush(file_);
#ifndef _WIN32
    ::fdatasync(::fileno(file_));
#endif
    std::fclose(file_);
}

void CommitLog::encode_record(std::span<const BatchEntry> entries,
                              std::vector<std::uint8_t>& out) {
    const std::size_t checked = 4 + entries.size() * kEntryBytes;
    // No clear(): resize only zero-fills growth, and every byte below is
    // overwritten.
    out.resize(checked + 4);
    std::uint8_t* p = out.data();
    store_be32(p, static_cast<std::uint32_t>(entries.size()));
    p += 4;
    for (const auto& entry : entries) {
        entry.key.serialize(p);
        store_be64(p + Key::kBytes, entry.ts);
        store_be64(p + Key::kBytes + 8,
                   static_cast<std::uint64_t>(entry.value));
        store_be32(p + Key::kBytes + 16, entry.row().expiry_s);
        p += kEntryBytes;
    }
    store_be32(p, record_crc({out.data(), checked}));
}

void CommitLog::append(std::span<const std::uint8_t> record,
                       std::size_t rows) {
    if (rows == 0) return;  // replay reads a zero count as a torn tail
    if (FaultInjector::instance().roll(FaultPoint::kCommitLogAppend) ==
        FaultAction::kError)
        throw StoreError("injected commit log fault: " + path_);

    MutexLock lock(mutex_);
    if (std::fwrite(record.data(), 1, record.size(), file_) != record.size())
        throw StoreError("commit log append failed: " + path_);
    records_.add(static_cast<std::int64_t>(rows));
}

void CommitLog::append_batch(std::span<const BatchEntry> entries) {
    std::vector<std::uint8_t> record;
    encode_record(entries, record);
    append(record, entries.size());
}

void CommitLog::sync() {
    MutexLock lock(mutex_);
    if (std::fflush(file_) != 0)
        throw StoreError("commit log flush failed: " + path_);
#ifndef _WIN32
    if (::fdatasync(::fileno(file_)) != 0)
        throw StoreError("commit log fdatasync failed: " + path_);
#endif
    syncs_.add(1);
}

void CommitLog::reset() {
    MutexLock lock(mutex_);
    std::fclose(file_);
    file_ = std::fopen(path_.c_str(), "wb");
    if (!file_) throw StoreError("cannot truncate commit log " + path_);
    write_header(file_, path_);
    records_.set(0);
}

CommitLog::ReplayResult CommitLog::replay(
    const std::string& path,
    const std::function<void(const Key&, const Row&)>& apply) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) return {};  // no log, nothing to recover

    // A file without the header replays nothing: its valid prefix is
    // empty, so the caller truncates it like any torn tail.
    std::uint8_t hdr[kHeaderBytes];
    if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr || !is_header(hdr)) {
        std::fclose(f);
        return {};
    }
    ReplayResult result;
    result.valid_bytes = kHeaderBytes;
    std::vector<std::uint8_t> rec;
    for (;;) {
        std::uint8_t cnt[4];
        if (std::fread(cnt, 1, sizeof cnt, f) != sizeof cnt) break;
        const std::uint32_t count =
            (static_cast<std::uint32_t>(cnt[0]) << 24) |
            (static_cast<std::uint32_t>(cnt[1]) << 16) |
            (static_cast<std::uint32_t>(cnt[2]) << 8) |
            static_cast<std::uint32_t>(cnt[3]);
        if (count == 0 || count > kMaxBatchEntries) break;  // corrupt
        const std::size_t body = count * kEntryBytes;
        rec.resize(4 + body + 4);
        std::memcpy(rec.data(), cnt, 4);
        if (std::fread(rec.data() + 4, 1, body + 4, f) != body + 4)
            break;  // torn batch: none of its rows replay
        ByteReader r(rec);
        const auto checked =
            std::span<const std::uint8_t>(rec.data(), 4 + body);
        r.bytes(4);  // count, already parsed
        const std::uint32_t crc =
            (static_cast<std::uint32_t>(rec[4 + body]) << 24) |
            (static_cast<std::uint32_t>(rec[4 + body + 1]) << 16) |
            (static_cast<std::uint32_t>(rec[4 + body + 2]) << 8) |
            static_cast<std::uint32_t>(rec[4 + body + 3]);
        if (crc != record_crc(checked)) break;  // corrupt tail
        for (std::uint32_t i = 0; i < count; ++i) {
            const Key key = Key::deserialize(r.bytes(Key::kBytes).data());
            Row row;
            row.ts = r.u64be();
            row.value = r.i64be();
            row.expiry_s = r.u32be();
            apply(key, row);
        }
        result.records += count;
        result.valid_bytes += 4 + body + 4;
    }
    std::fclose(f);
    return result;
}

}  // namespace dcdb::store
