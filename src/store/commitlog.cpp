#include "store/commitlog.hpp"

#include "common/bytebuf.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"

namespace dcdb::store {

namespace {

constexpr std::uint32_t kLogMagic = 0x44434C32;  // 'DCL2'
constexpr std::uint32_t kLogVersion = 4;

constexpr std::size_t kRunHeadBytes = Key::kBytes + 4;  // key, row count

/// The rows of a record body, or 0 when its runs do not frame it exactly
/// (no run is empty, so a framed body has rows).
std::size_t count_rows(std::span<const std::uint8_t> body) {
    std::size_t rows = 0;
    for (ByteReader r(body); !r.empty();) {
        if (r.remaining() < kRunHeadBytes) return 0;
        r.bytes(Key::kBytes);
        const std::uint32_t n = r.u32be();
        if (n == 0 || r.remaining() / Row::kBytes < n) return 0;
        r.bytes(std::size_t{n} * Row::kBytes);
        rows += n;
    }
    return rows;
}

}  // namespace

std::span<const Mutation> to_mutations(std::span<const BatchEntry> entries) {
    thread_local std::vector<Row> rows;
    thread_local std::vector<Mutation> mutations;
    rows.resize(entries.size());  // sized first: no span dangles
    mutations.clear();
    for (std::size_t i = 0, begin = 0; i < entries.size(); ++i) {
        rows[i] = entries[i].row();
        if (i + 1 == entries.size() || entries[i + 1].key != entries[i].key) {
            mutations.push_back(
                {entries[i].key,
                 std::span<const Row>(rows).subspan(begin, i + 1 - begin)});
            begin = i + 1;
        }
    }
    return mutations;
}

CommitLog::CommitLog(std::string path, const Apply& apply)
    : log_(std::move(path), kLogMagic, kLogVersion,
           [this, &apply, rows = std::vector<Row>()](
               std::span<const std::uint8_t> body) mutable {
               // Framing is checked before any run applies: a record
               // replays whole or not at all.
               const std::size_t count = count_rows(body);
               if (count == 0) return false;
               for (ByteReader r(body); !r.empty();) {
                   const Key key =
                       Key::deserialize(r.bytes(Key::kBytes).data());
                   rows.resize(r.u32be());
                   // A braced list evaluates in order: ts, value, expiry.
                   for (Row& row : rows)
                       row = Row{r.u64be(), r.i64be(), r.u32be()};
                   apply(key, rows);
               }
               records_.add(static_cast<std::int64_t>(count));
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

std::size_t CommitLog::encode_record(std::span<const Mutation> mutations,
                                     std::vector<std::uint8_t>& out) {
    std::size_t rows = 0;
    std::size_t runs = 0;
    for (const auto& m : mutations) {
        rows += m.rows.size();
        runs += m.rows.empty() ? 0 : 1;
    }
    const std::size_t bytes =
        RecordLog::kFrameBytes + runs * kRunHeadBytes + rows * Row::kBytes;
    // No clear(): resize only zero-fills growth, and every byte is
    // overwritten below or by seal().
    out.resize(bytes);
    std::uint8_t* p = out.data() + 4;  // behind the length
    for (const auto& m : mutations) {
        if (m.rows.empty()) continue;
        m.key.serialize(p);
        store_be32(p + Key::kBytes, static_cast<std::uint32_t>(m.rows.size()));
        p += kRunHeadBytes;
        for (const Row& row : m.rows) {
            store_be64(p, row.ts);
            store_be64(p + 8, static_cast<std::uint64_t>(row.value));
            store_be32(p + 16, row.expiry_s);
            p += Row::kBytes;
        }
    }
    RecordLog::seal(out);
    return rows;
}

void CommitLog::append(std::span<const std::uint8_t> record,
                       std::size_t rows) {
    // An empty batch writes nothing: a zero length reads as a torn tail.
    if (record.size() <= RecordLog::kFrameBytes) return;
    if (FaultInjector::instance().apply(FaultPoint::kCommitLogAppend) ==
        FaultAction::kError)
        throw StoreError("injected commit log fault: " + log_.path());
    log_.append(record);
    records_.add(static_cast<std::int64_t>(rows));
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
