#include "store/memtable.hpp"

#include <algorithm>

#include "store/merge.hpp"

namespace dcdb::store {

void Memtable::insert(const Key& key, const Row& row) {
    auto [it, inserted] = partitions_.try_emplace(key);
    auto& rows = it->second;
    if (inserted) approx_bytes_ += Key::kBytes + 48;  // index node overhead

    // Fast path: monitoring data arrives in timestamp order.
    if (rows.empty() || rows.back().ts < row.ts) {
        rows.push_back(row);
        approx_bytes_ += Row::kBytes;
        ++row_count_;
        return;
    }
    // Stragglers and re-writes: positional upsert keeps the partition
    // sorted and guarantees newest-write-wins for equal timestamps.
    const auto pos = std::lower_bound(
        rows.begin(), rows.end(), row.ts,
        [](const Row& r, TimestampNs t) { return r.ts < t; });
    if (pos != rows.end() && pos->ts == row.ts) {
        *pos = row;
    } else {
        rows.insert(pos, row);
        approx_bytes_ += Row::kBytes;
        ++row_count_;
    }
}

std::span<const Row> Memtable::rows(const Key& key) const {
    const auto it = partitions_.find(key);
    if (it == partitions_.end()) return {};
    return it->second;
}

void Memtable::query(const Key& key, TimestampNs t0, TimestampNs t1,
                     std::vector<Row>& out) const {
    for (RowCursor c(rows(key), t0, t1); !c.done(); c.next())
        out.push_back(c.row());
}

std::vector<Memtable::Partition> Memtable::sorted_partitions() const {
    std::vector<Partition> out;
    out.reserve(partitions_.size());
    for (const auto& [key, rows] : partitions_) out.emplace_back(key, rows);
    std::sort(out.begin(), out.end(),
              [](const Partition& a, const Partition& b) {
                  return a.first < b.first;
              });
    return out;
}

void Memtable::clear() {
    partitions_.clear();
    approx_bytes_ = 0;
    row_count_ = 0;
}

}  // namespace dcdb::store
