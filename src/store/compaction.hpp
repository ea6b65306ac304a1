// Streaming compaction for the storage backend (DESIGN.md §9).
//
// One merge serves three maintenance operations — full compaction,
// TTL/cutoff purges (`truncate_before`) and background size-tiered
// maintenance — and it is the query path's merge too: merge_tables walks
// the inputs' partitions in key order and hands each key's partitions,
// as RowCursors, to merge_newest_wins (store/merge.hpp). Merge memory is
// one decoded block (at most kBlockRows rows) per input, independent of
// row volume, and each input row is read exactly once.
//
// Shadowing model: inputs are passed oldest-to-newest and rows with
// equal (key, timestamp) resolve to the newest input. Because shadowing
// is positional (generation order), only ADJACENT runs of tables may be
// merged — merging tables around an unmerged middle generation would
// reorder its shadowing. select_size_tier() therefore only ever
// nominates contiguous runs.
//
// The merged output inherits the generation number of its newest input,
// so the on-disk generation ordering (which the node's reopen scan sorts
// by) stays identical to the in-memory shadowing order even after a
// mid-sequence tier merge.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "store/sstable.hpp"

namespace dcdb::store {

struct MergeOptions {
    /// Drop rows with ts < cutoff (0 = keep all): truncate_before's
    /// purge predicate.
    TimestampNs cutoff{0};
    /// Expiry evaluation instant for the TTL purge (0 = keep expired
    /// rows). The purge rule: a merge drops expired rows only when its
    /// inputs start at the node's oldest table. An expired row still
    /// hides the older copies of its (key, ts) from queries, so a merge
    /// that dropped it while an older table outside its inputs held such
    /// a copy would bring that copy back. compact() and truncate_before()
    /// merge every table, and so does a tier that starts at the oldest;
    /// other tiers keep expired rows for a later merge to drop.
    TimestampNs now{0};
};

struct MergeStats {
    std::size_t tables_in{0};
    std::uint64_t rows_in{0};    // physical rows consumed from inputs
    std::uint64_t rows_out{0};   // surviving rows written
    std::uint64_t bytes_in{0};   // sum of input file sizes
    std::uint64_t bytes_out{0};  // output file size (0 when empty)
};

struct MergeResult {
    /// The merged table, or nullptr when every row was shadowed, expired
    /// or cut off (the output file is removed in that case).
    std::unique_ptr<SsTable> table;
    MergeStats stats;
};

/// Single streaming pass merging `tables` (oldest-to-newest shadowing
/// order) into a new table at `path` with generation `generation`.
/// Each key's partitions go through merge_newest_wins, newest input
/// first; winning rows failing `options` (expired, before cutoff) are
/// dropped.
/// The output is durably published (fsync -> rename -> dir fsync) before
/// this returns. `path` may name an existing input table's file (the
/// generation-inheritance scheme overwrites the newest input in place);
/// inputs are only read via their already-open descriptors, so the
/// replacement is safe.
MergeResult merge_tables(const std::vector<const SsTable*>& tables,
                         const std::string& path, std::uint64_t generation,
                         const MergeOptions& options);

/// Size-tiered compaction policy (Cassandra's STCS, restricted to
/// adjacent runs — see the shadowing note above). `file_bytes` lists the
/// table sizes in shadowing order; returns the [begin, end) index range
/// of the best run of >= `min_tables` adjacent tables whose sizes are
/// within a factor of `ratio` of each other (best = most tables, ties
/// broken toward fewer bytes rewritten), or {0, 0} when no run
/// qualifies.
struct TierRange {
    std::size_t begin{0};
    std::size_t end{0};
    std::size_t size() const { return end - begin; }
    bool empty() const { return end <= begin; }
};
TierRange select_size_tier(const std::vector<std::uint64_t>& file_bytes,
                           std::size_t min_tables = 4, double ratio = 2.0);

}  // namespace dcdb::store
