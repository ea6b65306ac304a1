#include "store/memtable.hpp"

#include <algorithm>

namespace dcdb::store {

namespace {

constexpr std::uint32_t kFirstChunkRows = 16;
constexpr std::uint32_t kMaxChunkRows = 1024;
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
static_assert(sizeof(RowChunk) + kMaxChunkRows * sizeof(Row) <= kBlockBytes);

TimestampNs newest(const RowChunk& chunk) {
    return chunk.rows()[chunk.size - 1].ts;
}

}  // namespace

RowChunk* Memtable::new_chunk(std::uint32_t capacity) {
    const std::size_t bytes = sizeof(RowChunk) + capacity * sizeof(Row);
    if (block_ == blocks_.size() || block_used_ + bytes > kBlockBytes) {
        if (block_ < blocks_.size()) ++block_;
        if (block_ == blocks_.size())
            blocks_.push_back(
                std::make_unique_for_overwrite<std::byte[]>(kBlockBytes));
        block_used_ = 0;
    }
    auto* chunk = std::construct_at(
        reinterpret_cast<RowChunk*>(blocks_[block_].get() + block_used_),
        RowChunk{nullptr, 0, capacity});
    block_used_ += bytes;
    return chunk;
}

void Memtable::append(Partition& p, std::span<const Row> rows) {
    while (!rows.empty()) {
        if (p.tail_size == p.tail_capacity) {  // full, or no chunk yet
            RowChunk* chunk = new_chunk(
                p.tail == nullptr ? kFirstChunkRows
                                  : std::min(p.tail_capacity * 2,
                                             kMaxChunkRows));
            if (p.tail == nullptr) {
                p.head = chunk;
            } else {
                p.tail->size = p.tail_size;
                p.tail->next = chunk;
            }
            p.tail = chunk;
            p.tail_size = 0;
            p.tail_capacity = chunk->capacity;
        }
        const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::size_t>(
            rows.size(), p.tail_capacity - p.tail_size));
        // A loop, not std::copy_n: most runs are short, and copy_n calls
        // memmove.
        Row* to = p.tail->rows() + p.tail_size;
        for (std::uint32_t i = 0; i < n; ++i) to[i] = rows[i];
        p.tail_size += n;
        rows = rows.subspan(n);
    }
}

void Memtable::place(Partition& p, const Row& row, RowChunk*& from) {
    p.tail->size = p.tail_size;  // every header is current until the end
    RowChunk* chunk = from;
    while (chunk->next != nullptr && newest(*chunk) < row.ts)
        chunk = chunk->next;
    from = chunk;
    Row* pos = std::lower_bound(
        chunk->rows(), chunk->rows() + chunk->size, row.ts,
        [](const Row& r, TimestampNs t) { return r.ts < t; });
    if (pos != chunk->rows() + chunk->size && pos->ts == row.ts) {
        *pos = row;  // newest write wins
        return;
    }
    std::uint32_t at = static_cast<std::uint32_t>(pos - chunk->rows());
    if (chunk->size == chunk->capacity) {
        // Split: the upper half moves to a new chunk linked behind.
        RowChunk* upper = new_chunk(chunk->capacity);
        const std::uint32_t keep = chunk->size / 2;
        upper->size = chunk->size - keep;
        std::copy_n(chunk->rows() + keep, upper->size, upper->rows());
        chunk->size = keep;
        upper->next = chunk->next;
        chunk->next = upper;
        if (p.tail == chunk) p.tail = upper;
        if (at > keep) {
            chunk = upper;
            at -= keep;
        }
    }
    std::copy_backward(chunk->rows() + at, chunk->rows() + chunk->size,
                       chunk->rows() + chunk->size + 1);
    chunk->rows()[at] = row;
    ++chunk->size;
    p.tail_size = p.tail->size;
    p.tail_capacity = p.tail->capacity;
    approx_bytes_ += Row::kBytes;
    ++row_count_;
}

void Memtable::insert(const Key& key, std::span<const Row> rows) {
    if (rows.empty()) return;
    auto [it, inserted] = partitions_.try_emplace(key);
    Partition& p = it->second;
    if (inserted) approx_bytes_ += Key::kBytes + 48;  // index node overhead

    // Fast path: monitoring data arrives in timestamp order.
    const bool in_order =
        p.older_than(rows.front().ts) &&
        std::adjacent_find(rows.begin(), rows.end(),
                           [](const Row& a, const Row& b) {
                               return a.ts >= b.ts;
                           }) == rows.end();
    if (in_order) {
        append(p, rows);
        approx_bytes_ += rows.size() * Row::kBytes;
        row_count_ += rows.size();
        return;
    }
    // Stragglers and rewrites, row by row. A row older than the one
    // before it restarts the chunk search at the head.
    RowChunk* from = p.head;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& row = rows[i];
        if (p.older_than(row.ts)) {
            append(p, std::span<const Row>(&row, 1));
            approx_bytes_ += Row::kBytes;
            ++row_count_;
            continue;
        }
        if (from == nullptr || (i > 0 && row.ts < rows[i - 1].ts))
            from = p.head;
        place(p, row, from);
    }
}

RowCursor Memtable::cursor(const Key& key, TimestampNs t0,
                           TimestampNs t1) const {
    const auto it = partitions_.find(key);
    if (it == partitions_.end()) return RowCursor();
    return RowCursor(it->second.head, it->second.tail_size, t0, t1);
}

void Memtable::query(const Key& key, TimestampNs t0, TimestampNs t1,
                     std::vector<Row>& out) const {
    for (RowCursor c = cursor(key, t0, t1); !c.done(); c.next())
        out.push_back(c.row());
}

std::vector<Key> Memtable::sorted_keys() const {
    std::vector<Key> keys;
    keys.reserve(partitions_.size());
    for (const auto& entry : partitions_) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

void Memtable::clear() {
    partitions_.clear();
    block_ = 0;
    block_used_ = 0;
    approx_bytes_ = 0;
    row_count_ = 0;
}

}  // namespace dcdb::store
