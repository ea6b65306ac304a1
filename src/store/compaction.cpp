#include "store/compaction.hpp"

#include <algorithm>
#include <cstdio>

namespace dcdb::store {

MergeResult merge_tables(const std::vector<const SsTable*>& tables,
                         const std::string& path, std::uint64_t generation,
                         const MergeOptions& options) {
    MergeStats stats;
    stats.tables_in = tables.size();
    std::size_t expected_partitions = 0;
    for (const auto* table : tables) {
        stats.bytes_in += table->file_bytes();
        expected_partitions += table->partition_count();
    }

    SsTableWriter writer(path, generation, expected_partitions);
    const auto keep = [&](const Row& row) {
        if (options.cutoff != 0 && row.ts < options.cutoff) return;
        if (options.now != 0 && row.expired(options.now)) return;
        writer.add_row(row);
        ++stats.rows_out;
    };
    // Each input's next partition; every input lists its keys ascending.
    std::vector<std::size_t> next(tables.size(), 0);
    std::vector<RowCursor> sources;  // one key's partitions, newest first
    sources.reserve(tables.size());
    for (;;) {
        const Key* key = nullptr;
        for (std::size_t i = 0; i < tables.size(); ++i) {
            if (next[i] == tables[i]->partition_count()) continue;
            const Key& k = tables[i]->partition_key(next[i]);
            if (!key || k < *key) key = &k;
        }
        if (!key) break;

        sources.clear();
        for (std::size_t i = tables.size(); i-- > 0;) {
            if (next[i] < tables[i]->partition_count() &&
                tables[i]->partition_key(next[i]) == *key)
                sources.emplace_back(*tables[i], next[i]++, 0, kTimestampMax);
        }
        writer.begin_partition(*key);
        stats.rows_in += merge_newest_wins(sources, keep);
        writer.end_partition();
    }

    auto table = writer.finish();
    if (table->row_count() == 0) {
        const std::string out_path = table->path();
        table.reset();  // close the descriptor before unlinking
        std::remove(out_path.c_str());
        return {nullptr, stats};
    }
    stats.bytes_out = table->file_bytes();
    return {std::move(table), stats};
}

TierRange select_size_tier(const std::vector<std::uint64_t>& file_bytes,
                           std::size_t min_tables, double ratio) {
    TierRange best;
    std::uint64_t best_bytes = 0;
    const std::size_t n = file_bytes.size();
    for (std::size_t b = 0; b < n; ++b) {
        std::uint64_t lo = file_bytes[b];
        std::uint64_t hi = file_bytes[b];
        std::uint64_t bytes = file_bytes[b];
        for (std::size_t e = b + 1; e <= n; ++e) {
            // Window [b, e) satisfies the ratio bound here.
            if (e - b >= min_tables &&
                (best.empty() || e - b > best.size() ||
                 (e - b == best.size() && bytes < best_bytes))) {
                best = {b, e};
                best_bytes = bytes;
            }
            if (e == n) break;
            const std::uint64_t next_lo = std::min(lo, file_bytes[e]);
            const std::uint64_t next_hi = std::max(hi, file_bytes[e]);
            if (static_cast<double>(next_hi) >
                ratio * static_cast<double>(std::max<std::uint64_t>(
                            next_lo, 1)))
                break;
            lo = next_lo;
            hi = next_hi;
            bytes += file_bytes[e];
        }
    }
    return best;
}

}  // namespace dcdb::store
