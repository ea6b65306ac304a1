// Immutable on-disk sorted string table.
//
// File layout (all integers big-endian):
//
//   [data]    per partition, in key order: a sequence of *blocks* of up
//               to kBlockRows rows each (sorted by ts). Every block is
//               independently encoded as raw fixed-size rows or
//               Gorilla-compressed (store/tsblock.hpp) — whichever is
//               smaller — and the choice is recorded per block in the
//               index, not in the data stream.
//   [index]   per partition: key (20B), u64 data offset, u64 row count,
//               u64 min_ts, u64 max_ts, u32 block count, then per block:
//               u8 format, u32 rows, u32 payload bytes, u64 min_ts,
//               u64 max_ts
//   [bloom]   u32 hash count, u64 word count, words
//   [footer]  u64 index offset, u64 bloom offset, u64 partition count,
//               u64 generation, u32 magic 'DST2'
//
// The index and bloom filter are loaded at open, which checks every
// count and block range against the file and throws StoreError on a
// malformed table. Row data is served to RowCursors (store/merge.hpp)
// with one pread per whole block, whatever its encoding, so a table costs
// O(partitions + blocks) memory regardless of row volume.
//
// Durability ordering (DESIGN.md §9): tables are written to `path.tmp`,
// fsynced, renamed into place, and the parent directory is fsynced —
// only then may the caller discard the rows' other home (the commit
// log). A crash at any point leaves either the old directory state or
// the complete new table, never a half-written `.db` file.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "store/bloom.hpp"
#include "store/key.hpp"
#include "store/merge.hpp"
#include "store/row.hpp"
#include "store/tsblock.hpp"

namespace dcdb::store {

/// Rows per data block: small enough that decoding one compressed block
/// stays cheap on point queries, large enough to amortize the block
/// directory entry (~25 bytes) into noise.
inline constexpr std::size_t kBlockRows = 512;

class SsTable {
  public:
    /// Write a new table from partitions in ascending key order: any
    /// sized range of (key, rows) pairs, such as a std::map. Returns the
    /// opened table. (A flush drains memtable cursors into
    /// SsTableWriter instead.)
    template <typename Partitions>
    static std::unique_ptr<SsTable> write(const std::string& path,
                                          std::uint64_t generation,
                                          const Partitions& partitions);

    /// Open an existing table (loads index + bloom).
    static std::unique_ptr<SsTable> open(const std::string& path);

    ~SsTable();
    SsTable(const SsTable&) = delete;
    SsTable& operator=(const SsTable&) = delete;

    /// A cursor over `key`'s rows in [t0, t1] (store/merge.hpp); an
    /// empty one when the table lacks the key. Does NOT consult the bloom
    /// filter: StorageNode::query probes it once via may_contain() first,
    /// and a second probe would double-count bloom effectiveness stats.
    RowCursor cursor(const Key& key, TimestampNs t0, TimestampNs t1) const;

    /// Rows in [t0, t1] for `key`, appended to `out` in timestamp order:
    /// one cursor, drained.
    void query(const Key& key, TimestampNs t0, TimestampNs t1,
               std::vector<Row>& out) const;

    bool may_contain(const Key& key) const;

    /// Partitions in key order, by index: what compaction walks, one
    /// RowCursor per partition.
    const Key& partition_key(std::size_t partition) const {
        return index_[partition].key;
    }

    std::uint64_t generation() const { return generation_; }
    std::size_t partition_count() const { return index_.size(); }
    std::uint64_t row_count() const;
    const std::string& path() const { return path_; }
    std::uint64_t file_bytes() const { return file_bytes_; }
    /// Bytes of the data region (everything before the index) — the
    /// compressed row payload, for bytes-per-reading accounting.
    std::uint64_t data_bytes() const { return data_bytes_; }

  private:
    friend class RowCursor;  // walks index_ and reads blocks

    struct BlockRef {
        BlockFormat format{BlockFormat::kRaw};
        std::uint64_t rows{0};
        std::uint64_t bytes{0};       // payload bytes on disk
        std::uint64_t rel_offset{0};  // from the partition's data offset
        TimestampNs min_ts{0};
        TimestampNs max_ts{0};
    };

    struct IndexEntry {
        Key key;
        std::uint64_t offset;
        std::uint64_t rows;
        TimestampNs min_ts;
        TimestampNs max_ts;
        std::vector<BlockRef> blocks;
    };

    SsTable() = default;
    /// Decode one whole block of `entry` into `out`, reading its bytes
    /// into `raw`.
    void read_block(const IndexEntry& entry, const BlockRef& block,
                    std::vector<std::uint8_t>& raw,
                    std::vector<Row>& out) const;
    const IndexEntry* find_entry(const Key& key) const;

    std::string path_;
    int fd_{-1};
    std::uint64_t generation_{0};
    std::uint64_t file_bytes_{0};
    std::uint64_t data_bytes_{0};
    std::vector<IndexEntry> index_;  // sorted by key
    std::unique_ptr<BloomFilter> bloom_;
};

/// Streaming SSTable writer: rows go to the (buffered) output file one
/// encoded block at a time, so writing a table needs O(partitions +
/// blocks) memory for the index + bloom filter, never O(rows). This is
/// what lets compaction merge arbitrarily large tables with bounded
/// memory.
///
/// Protocol: begin_partition(key) with strictly ascending keys,
/// add_row() with ascending timestamps within the partition, then
/// end_partition(); finish() seals the file (index, bloom, footer),
/// makes it durable (fsync -> rename -> parent-dir fsync) and returns
/// the opened table. A writer destroyed before finish() removes its
/// temporary file.
class SsTableWriter {
  public:
    /// `expected_partitions` sizes the bloom filter; an upper bound is
    /// fine (oversizing only lowers the false-positive rate).
    SsTableWriter(std::string path, std::uint64_t generation,
                  std::size_t expected_partitions);
    ~SsTableWriter();

    SsTableWriter(const SsTableWriter&) = delete;
    SsTableWriter& operator=(const SsTableWriter&) = delete;

    void begin_partition(const Key& key);
    void add_row(const Row& row);
    /// Ends the open partition; a partition that received no rows is
    /// omitted from the index entirely.
    void end_partition();

    /// Seal + durably publish the table, then open it. The returned
    /// table may be empty (zero partitions); callers that do not want an
    /// empty table on disk remove it via its path().
    std::unique_ptr<SsTable> finish();

  private:
    struct PendingBlock {
        BlockFormat format{BlockFormat::kRaw};
        std::uint32_t rows{0};
        std::uint32_t bytes{0};
        TimestampNs min_ts{0};
        TimestampNs max_ts{0};
    };

    struct PendingEntry {
        Key key;
        std::uint64_t offset{0};
        std::uint64_t rows{0};
        TimestampNs min_ts{0};
        TimestampNs max_ts{0};
        std::vector<PendingBlock> blocks;
    };

    void put(const void* data, std::size_t n);
    /// Encode + write the buffered rows as one block.
    void flush_block();

    std::string path_;
    std::string tmp_path_;
    std::uint64_t generation_;
    std::FILE* file_{nullptr};
    std::uint64_t offset_{0};
    BloomFilter bloom_;
    std::vector<PendingEntry> index_;
    std::vector<Row> block_rows_;            // current block buffer
    std::vector<std::uint8_t> block_bytes_;  // encode scratch
    bool in_partition_{false};
};

template <typename Partitions>
std::unique_ptr<SsTable> SsTable::write(const std::string& path,
                                        std::uint64_t generation,
                                        const Partitions& partitions) {
    SsTableWriter writer(path, generation, std::size(partitions));
    for (const auto& [key, rows] : partitions) {
        if (rows.empty()) continue;
        writer.begin_partition(key);
        for (const Row& row : rows) writer.add_row(row);
        writer.end_partition();
    }
    return writer.finish();
}

}  // namespace dcdb::store
