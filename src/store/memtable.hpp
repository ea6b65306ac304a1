// In-memory write buffer, one per storage node (Cassandra memtable).
//
// Writes land here first (after the commit log) and are served from here
// until a flush turns the memtable into an immutable SSTable. Partitions
// sit in a hash index, so an insert costs one probe; they are sorted by
// key once, at flush. Rows within a partition are kept sorted by
// clustering timestamp; monitoring data arrives nearly in order, so
// insertion is amortized O(1) by appending and only sorting the (rare)
// out-of-order tail.
#pragma once

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/key.hpp"
#include "store/row.hpp"

namespace dcdb::store {

class Memtable {
  public:
    /// One partition as the SSTable writer consumes it.
    using Partition = std::pair<Key, std::span<const Row>>;

    void insert(const Key& key, const Row& row);

    /// `key`'s rows in timestamp order (empty when it has none): the
    /// span a query's RowCursor walks. Valid until the next insert or
    /// clear().
    std::span<const Row> rows(const Key& key) const;

    /// Rows in [t0, t1] for `key`, appended to `out` in timestamp order:
    /// one cursor over rows(key), drained.
    void query(const Key& key, TimestampNs t0, TimestampNs t1,
               std::vector<Row>& out) const;

    /// The partitions in key order, sorted on each call (once per
    /// flush). The spans are valid until the next insert or clear().
    std::vector<Partition> sorted_partitions() const;

    std::size_t approx_bytes() const { return approx_bytes_; }
    std::size_t row_count() const { return row_count_; }
    bool empty() const { return partitions_.empty(); }
    void clear();

  private:
    std::unordered_map<Key, std::vector<Row>, KeyHash> partitions_;
    std::size_t approx_bytes_{0};
    std::size_t row_count_{0};
};

}  // namespace dcdb::store
