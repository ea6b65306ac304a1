// In-memory write buffer, one per storage node (Cassandra memtable).
//
// Writes land here first (after the commit log) and are served from here
// until a flush turns the memtable into an immutable SSTable. Partitions
// sit in a hash index, probed once per run (one mutation's rows); they
// are sorted by key once, at flush.
//
// A partition's rows are a chain of chunks (RowChunk, store/merge.hpp):
// sorted runs, each older than the next, cut from arena blocks that the
// memtable keeps across clear(), so steady-state ingest touches no fresh
// page and allocates nothing for rows. Chunk capacity grows
// geometrically along the chain up to a cap. Monitoring data arrives in
// order: a run that is strictly increasing and starts after the
// partition's newest row is copied onto the chain's tail in bulk. Any
// other row is placed into its chunk, the newest write winning an equal
// timestamp; a full chunk splits in two, and nothing outside it moves.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "store/key.hpp"
#include "store/merge.hpp"
#include "store/row.hpp"

namespace dcdb::store {

class Memtable {
  public:
    /// Insert `key`'s rows in arrival order: of equal timestamps, the
    /// later row wins.
    void insert(const Key& key, std::span<const Row> rows);
    void insert(const Key& key, const Row& row) {
        insert(key, std::span<const Row>(&row, 1));
    }

    /// A cursor over `key`'s rows in [t0, t1], empty when it has none.
    /// Valid until the next insert or clear().
    RowCursor cursor(const Key& key, TimestampNs t0, TimestampNs t1) const;

    /// Rows in [t0, t1] for `key`, appended to `out` in timestamp order:
    /// one cursor, drained.
    void query(const Key& key, TimestampNs t0, TimestampNs t1,
               std::vector<Row>& out) const;

    /// The partitions' keys in key order, sorted on each call (once per
    /// flush).
    std::vector<Key> sorted_keys() const;

    /// 20 bytes per row plus 68 per partition: what the flush threshold
    /// counts, whatever the chunks hold.
    std::size_t approx_bytes() const { return approx_bytes_; }
    std::size_t row_count() const { return row_count_; }
    bool empty() const { return partitions_.empty(); }
    /// Drop every row. The arena keeps its blocks for the next rows.
    void clear();

  private:
    struct Partition {
        RowChunk* head{nullptr};
        RowChunk* tail{nullptr};
        // The tail's size (its header's is stale) and capacity, kept
        // beside the key: an in-order insert reads no chunk header.
        std::uint32_t tail_size{0};
        std::uint32_t tail_capacity{0};

        /// Whether every row is older than `ts`. It reads the tail's
        /// last row, beside the slot an append writes next.
        bool older_than(TimestampNs ts) const {
            return tail == nullptr || tail->rows()[tail_size - 1].ts < ts;
        }
    };

    /// A chunk for `capacity` rows, cut from the arena.
    RowChunk* new_chunk(std::uint32_t capacity);
    /// Copy `rows`, strictly ascending and newer than every row of `p`,
    /// onto its tail.
    void append(Partition& p, std::span<const Row> rows);
    /// Place `row` into its chunk of `p`, searching from `from`: every
    /// chunk before it holds only older rows, and `p` holds a row as new
    /// as `row`. Leaves `from` at the chunk the row went to.
    void place(Partition& p, const Row& row, RowChunk*& from);

    std::unordered_map<Key, Partition, KeyHash> partitions_;
    std::vector<std::unique_ptr<std::byte[]>> blocks_;  // the arena
    std::size_t block_{0};       // the block chunks are cut from
    std::size_t block_used_{0};  // its bytes already cut
    std::size_t approx_bytes_{0};
    std::size_t row_count_{0};
};

}  // namespace dcdb::store
