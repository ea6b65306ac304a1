#include "store/commitlog.hpp"

#include "common/bytebuf.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"

namespace dcdb::store {

namespace {

constexpr std::uint32_t kLogMagic = 0x44434C32;  // 'DCL2'
constexpr std::uint32_t kLogVersion = 3;

constexpr std::size_t kEntryBytes = Key::kBytes + Row::kBytes;  // one row

}  // namespace

CommitLog::CommitLog(std::string path, const Apply& apply)
    : log_(std::move(path), kLogMagic, kLogVersion,
           [&](std::span<const std::uint8_t> body) {
               if (body.size() % kEntryBytes != 0) return false;
               for (ByteReader r(body); !r.empty();) {
                   const Key key =
                       Key::deserialize(r.bytes(Key::kBytes).data());
                   // A braced list evaluates in order: ts, value, expiry.
                   apply(key, Row{r.u64be(), r.i64be(), r.u32be()});
               }
               records_.add(
                   static_cast<std::int64_t>(body.size() / kEntryBytes));
               return true;
           }) {}

CommitLog::~CommitLog() {
    // Best-effort durability on orderly shutdown. A killed process loses
    // no appended record; a machine crash relies on the sync() cadence.
    try {
        log_.sync();
    } catch (const StoreError& e) {
        DCDB_WARN("store") << "commit log not synced at close: " << e.what();
    }
}

void CommitLog::encode_record(std::span<const BatchEntry> entries,
                              std::vector<std::uint8_t>& out) {
    // No clear(): resize only zero-fills growth, and every byte is
    // overwritten below or by seal().
    out.resize(RecordLog::kFrameBytes + entries.size() * kEntryBytes);
    std::uint8_t* p = out.data() + 4;  // behind the length
    for (const auto& entry : entries) {
        entry.key.serialize(p);
        store_be64(p + Key::kBytes, entry.ts);
        store_be64(p + Key::kBytes + 8,
                   static_cast<std::uint64_t>(entry.value));
        store_be32(p + Key::kBytes + 16, entry.row().expiry_s);
        p += kEntryBytes;
    }
    RecordLog::seal(out);
}

void CommitLog::append(std::span<const std::uint8_t> record) {
    // An empty batch writes nothing: a zero length reads as a torn tail.
    if (record.size() <= RecordLog::kFrameBytes) return;
    if (FaultInjector::instance().apply(FaultPoint::kCommitLogAppend) ==
        FaultAction::kError)
        throw StoreError("injected commit log fault: " + log_.path());
    log_.append(record);
    records_.add(static_cast<std::int64_t>(
        (record.size() - RecordLog::kFrameBytes) / kEntryBytes));
}

void CommitLog::sync() {
    log_.sync();
    syncs_.add(1);
}

void CommitLog::reset() {
    log_.reset();
    records_.set(0);
}

}  // namespace dcdb::store
