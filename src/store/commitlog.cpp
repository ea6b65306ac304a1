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

void write_entry(ByteWriter& w, const KeyedRow& entry) {
    std::uint8_t kb[Key::kBytes];
    entry.key.serialize(kb);
    w.bytes(kb, sizeof kb);
    w.u64be(entry.row.ts);
    w.i64be(entry.row.value);
    w.u32be(entry.row.expiry_s);
}

KeyedRow read_entry(ByteReader& r) {
    KeyedRow entry;
    const auto kb = r.bytes(Key::kBytes);
    entry.key = Key::deserialize(kb.data());
    entry.row.ts = r.u64be();
    entry.row.value = r.i64be();
    entry.row.expiry_s = r.u32be();
    return entry;
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

void CommitLog::append(const Key& key, const Row& row) {
    const KeyedRow entry{key, row};
    append_batch(std::span<const KeyedRow>(&entry, 1));
}

void CommitLog::append_batch(std::span<const KeyedRow> entries) {
    if (entries.empty()) return;
    if (FaultInjector::instance().roll(FaultPoint::kCommitLogAppend) ==
        FaultAction::kError)
        throw StoreError("injected commit log fault: " + path_);

    // One record, one write, one crc for the whole batch.
    ByteWriter w(4 + entries.size() * kEntryBytes + 4);
    w.u32be(static_cast<std::uint32_t>(entries.size()));
    for (const auto& entry : entries) write_entry(w, entry);
    w.u32be(record_crc(w.data()));

    MutexLock lock(mutex_);
    if (std::fwrite(w.data().data(), 1, w.size(), file_) != w.size())
        throw StoreError("commit log append failed: " + path_);
    records_.add(static_cast<std::int64_t>(entries.size()));
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
            const KeyedRow entry = read_entry(r);
            apply(entry.key, entry.row);
        }
        result.records += count;
        result.valid_bytes += 4 + body + 4;
    }
    std::fclose(f);
    return result;
}

}  // namespace dcdb::store
