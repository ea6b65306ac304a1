// Row cursors and the one newest-wins merge (DESIGN.md §9).
//
// A RowCursor walks one source's rows of one partition within [t0, t1],
// in timestamp order: a memtable partition's chunks, or an SSTable
// partition's blocks. Chunks and blocks outside the window are skipped;
// a chunk is read in place, a block is decoded into scratch the cursor
// reuses. It is defined beside the block reader, in sstable.cpp.
//
// merge_newest_wins() reconciles cursors by Cassandra's one rule for
// reads and compactions alike: of the rows that share a timestamp, the
// newest source's row wins. StorageNode::query and merge_tables
// (store/compaction.hpp) both read through it; what each does with a
// winning row (drop it as expired or cut off, keep it) is its `emit`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "store/row.hpp"

namespace dcdb::store {

class SsTable;

/// One link of a memtable partition: a sorted run of `size` rows, stored
/// right behind this header, every one older than the next chunk's first.
/// A chunk is never empty. The last chunk's `size` is not kept current:
/// the memtable holds it beside the partition's key, so that an append
/// writes no header.
struct RowChunk {
    RowChunk* next{nullptr};
    std::uint32_t size{0};
    std::uint32_t capacity{0};

    Row* rows() { return reinterpret_cast<Row*>(this + 1); }
    const Row* rows() const { return reinterpret_cast<const Row*>(this + 1); }
};

class RowCursor {
  public:
    /// A cursor with no rows.
    RowCursor() = default;
    /// A memtable partition's chunks from `first` on, whose last chunk
    /// holds `last_size` rows, trimmed to [t0, t1]. The chunks must
    /// outlive the cursor.
    RowCursor(const RowChunk* first, std::uint32_t last_size, TimestampNs t0,
              TimestampNs t1);
    /// Partition `partition` (an index in key order) of `table`, trimmed
    /// to [t0, t1]. The table must outlive the cursor.
    RowCursor(const SsTable& table, std::size_t partition, TimestampNs t0,
              TimestampNs t1);

    // Move-only: the current run may point into this cursor's scratch,
    // which a move keeps and a copy would not.
    RowCursor(RowCursor&&) = default;

    bool done() const { return pos_ == run_.size(); }
    /// The current row; valid until next().
    const Row& row() const { return run_[pos_]; }
    void next() {
        if (++pos_ == run_.size()) load_block();
    }

  private:
    /// Step to the source's next chunk or decoded block that has rows in
    /// the window; the run stays empty when none is left.
    void load_block();

    std::span<const Row> run_;  // the chunk's or decoded block's window
    std::size_t pos_{0};
    TimestampNs t0_{0};
    TimestampNs t1_{0};
    const RowChunk* chunk_{nullptr};  // the next chunk to read
    std::uint32_t last_size_{0};
    const SsTable* table_{nullptr};
    std::size_t partition_{0};
    std::size_t block_{0};      // the next block to decode
    std::size_t end_block_{0};  // one past the last block in the window
    std::vector<Row> scratch_;
    std::vector<std::uint8_t> raw_;
};

/// Merge `sources`, given newest first, by timestamp: emit(row) receives,
/// in ascending timestamp order, each timestamp's row from the newest
/// source that holds it; the older copies it shadows are consumed without
/// reaching `emit`. Returns the rows consumed from all sources, shadowed
/// copies included.
template <typename Emit>
std::uint64_t merge_newest_wins(std::span<RowCursor> sources, Emit&& emit) {
    std::uint64_t consumed = 0;
    for (;;) {
        RowCursor* winner = nullptr;        // smallest head, newest on a tie
        TimestampNs bound = kTimestampMax;  // smallest head of the others
        for (RowCursor& c : sources) {
            if (c.done()) continue;
            if (!winner || c.row().ts < winner->row().ts) {
                if (winner) bound = winner->row().ts;
                winner = &c;
            } else if (c.row().ts < bound) {
                bound = c.row().ts;
            }
        }
        if (!winner) return consumed;
        const TimestampNs ts = winner->row().ts;
        emit(winner->row());
        for (RowCursor& c : sources) {
            if (!c.done() && c.row().ts == ts) {
                c.next();
                ++consumed;
            }
        }
        // The winner's rows before every other source's head shadow
        // nothing and are shadowed by nothing.
        while (!winner->done() && winner->row().ts < bound) {
            emit(winner->row());
            winner->next();
            ++consumed;
        }
    }
}

}  // namespace dcdb::store
