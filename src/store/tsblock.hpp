// Time-series block codec for SSTable data blocks.
//
// Two formats, selected per block by the writer (the flag lives in the
// SSTable block directory, not in the payload):
//
//   kRaw      — 20 bytes big-endian per row (u64 ts, i64 value,
//               u32 expiry), for blocks that do not compress.
//   kGorilla  — Gorilla-style compression (Pelkonen et al., VLDB 2015):
//               the first row is stored raw, then per row
//                 * timestamps as delta-of-delta with prefix codes
//                   ('0' dod = 0; '10' + 8-bit zigzag; '110' + 14-bit;
//                    '1110' + 24-bit; '1111' + 64-bit escape),
//                 * values XORed against the previous value ('0' when
//                   identical; '10' reuses the previous leading-zeros/
//                   length window; '11' + 6-bit leading + 6-bit length
//                   opens a new window),
//                 * expiries as delta-of-delta ('0' dod = 0;
//                   '1' + 64-bit zigzag escape — a fixed TTL stream is
//                   one bit per row).
//
// Readers decode a block whole in either format; a block holds at most
// kBlockRows (store/sstable.hpp) rows.
//
// The paper-regular workload (fixed sampling stride, slowly moving
// values, constant TTL) compresses to ~2 bits/row timestamps and a few
// bits/row values — well under the 4 bytes/reading budget bench_ingest
// enforces. A block that compresses badly (adversarial jitter) is simply
// stored raw: encode_rows_best never loses to the raw format.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "store/row.hpp"

namespace dcdb::store {

enum class BlockFormat : std::uint8_t { kRaw = 0, kGorilla = 1 };

/// Append `rows` to `out` in the given format.
void encode_rows(BlockFormat format, std::span<const Row> rows,
                 std::vector<std::uint8_t>& out);

/// Encode `rows` into whichever format is smaller and return the choice.
BlockFormat encode_rows_best(std::span<const Row> rows,
                             std::vector<std::uint8_t>& out);

/// Decode exactly `n` rows from `payload`, appending to `out`. Throws
/// StoreError on a malformed payload (short buffer, bad prefix code).
void decode_rows(BlockFormat format, std::span<const std::uint8_t> payload,
                 std::size_t n, std::vector<Row>& out);

}  // namespace dcdb::store
