#include "store/sstable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/bytebuf.hpp"
#include "common/error.hpp"
#include "store/file.hpp"

namespace dcdb::store {

namespace {

constexpr std::uint32_t kMagic = 0x44535432;  // 'DST2'
constexpr std::size_t kFooterBytes = 8 + 8 + 8 + 8 + 4;
// Index: per-partition head + per-block directory entry; bloom head.
constexpr std::size_t kEntryHeadBytes = Key::kBytes + 8 + 8 + 8 + 8 + 4;
constexpr std::size_t kBlockDirBytes = 1 + 4 + 4 + 8 + 8;
constexpr std::size_t kBloomHeadBytes = 4 + 8;

}  // namespace

// ------------------------------------------------------------- writer

SsTableWriter::SsTableWriter(std::string path, std::uint64_t generation,
                             std::size_t expected_partitions)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      generation_(generation),
      bloom_(std::max<std::size_t>(expected_partitions, 1)) {
    file_ = std::fopen(tmp_path_.c_str(), "wb");
    if (!file_) throw StoreError("cannot create " + tmp_path_);
    block_rows_.reserve(kBlockRows);
}

SsTableWriter::~SsTableWriter() {
    if (!file_) return;
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
}

void SsTableWriter::put(const void* data, std::size_t n) {
    if (std::fwrite(data, 1, n, file_) != n)
        throw StoreError("short write to " + tmp_path_);
    offset_ += n;
}

void SsTableWriter::begin_partition(const Key& key) {
    if (in_partition_)
        throw StoreError("unterminated partition in " + tmp_path_);
    if (!index_.empty() && !(index_.back().key < key))
        throw StoreError("partitions out of key order in " + tmp_path_);
    in_partition_ = true;
    PendingEntry e;
    e.key = key;
    e.offset = offset_;
    index_.push_back(e);
}

void SsTableWriter::add_row(const Row& row) {
    auto& e = index_.back();
    if (e.rows == 0) e.min_ts = row.ts;
    e.max_ts = row.ts;
    ++e.rows;
    block_rows_.push_back(row);
    if (block_rows_.size() >= kBlockRows) flush_block();
}

void SsTableWriter::flush_block() {
    if (block_rows_.empty()) return;
    block_bytes_.clear();
    const BlockFormat format = encode_rows_best(block_rows_, block_bytes_);
    PendingBlock block;
    block.format = format;
    block.rows = static_cast<std::uint32_t>(block_rows_.size());
    block.bytes = static_cast<std::uint32_t>(block_bytes_.size());
    block.min_ts = block_rows_.front().ts;
    block.max_ts = block_rows_.back().ts;
    put(block_bytes_.data(), block_bytes_.size());
    index_.back().blocks.push_back(block);
    block_rows_.clear();
}

void SsTableWriter::end_partition() {
    if (!in_partition_)
        throw StoreError("end_partition without begin in " + tmp_path_);
    in_partition_ = false;
    flush_block();
    if (index_.back().rows == 0) {
        index_.pop_back();  // empty partitions are omitted
        return;
    }
    std::uint8_t kb[Key::kBytes];
    index_.back().key.serialize(kb);
    bloom_.insert(kb);
}

std::unique_ptr<SsTable> SsTableWriter::finish() {
    if (in_partition_)
        throw StoreError("finish with open partition in " + tmp_path_);

    ByteWriter tail;
    const std::uint64_t index_offset = offset_;
    for (const auto& e : index_) {
        std::uint8_t kb[Key::kBytes];
        e.key.serialize(kb);
        tail.bytes(kb, sizeof kb);
        tail.u64be(e.offset);
        tail.u64be(e.rows);
        tail.u64be(e.min_ts);
        tail.u64be(e.max_ts);
        tail.u32be(static_cast<std::uint32_t>(e.blocks.size()));
        for (const auto& b : e.blocks) {
            tail.u8(static_cast<std::uint8_t>(b.format));
            tail.u32be(b.rows);
            tail.u32be(b.bytes);
            tail.u64be(b.min_ts);
            tail.u64be(b.max_ts);
        }
    }
    const std::uint64_t bloom_offset = index_offset + tail.size();
    tail.u32be(bloom_.hash_count());
    tail.u64be(bloom_.bits().size());
    for (const auto word : bloom_.bits()) tail.u64be(word);
    tail.u64be(index_offset);
    tail.u64be(bloom_offset);
    tail.u64be(index_.size());
    tail.u64be(generation_);
    tail.u32be(kMagic);
    put(tail.data().data(), tail.size());

    publish_file(std::exchange(file_, nullptr), tmp_path_, path_);
    return SsTable::open(path_);
}

// -------------------------------------------------------------- sstable

std::unique_ptr<SsTable> SsTable::open(const std::string& path) {
    auto table = std::unique_ptr<SsTable>(new SsTable());
    table->path_ = path;
    table->fd_ = ::open(path.c_str(), O_RDONLY);
    if (table->fd_ < 0) throw StoreError("cannot open " + path);

    const off_t size = ::lseek(table->fd_, 0, SEEK_END);
    if (size < static_cast<off_t>(kFooterBytes))
        throw StoreError("truncated sstable " + path);
    table->file_bytes_ = static_cast<std::uint64_t>(size);

    std::uint8_t footer[kFooterBytes];
    pread_exact(table->fd_, footer, sizeof footer,
                static_cast<std::uint64_t>(size) - kFooterBytes, path);
    ByteReader fr(footer);
    const std::uint64_t index_offset = fr.u64be();
    const std::uint64_t bloom_offset = fr.u64be();
    const std::uint64_t n_partitions = fr.u64be();
    table->generation_ = fr.u64be();
    if (fr.u32be() != kMagic) throw StoreError("bad magic in " + path);
    if (index_offset > bloom_offset ||
        bloom_offset > static_cast<std::uint64_t>(size) - kFooterBytes)
        throw StoreError("bad section offsets in " + path);
    table->data_bytes_ = index_offset;

    // Index section. Every count is checked against the bytes left to
    // hold it and every block against the data section, so a corrupt
    // table fails here as a StoreError (and is quarantined) instead of
    // reading past a buffer or reserving a huge vector.
    std::vector<std::uint8_t> raw(bloom_offset - index_offset);
    if (!raw.empty())
        pread_exact(table->fd_, raw.data(), raw.size(), index_offset, path);
    ByteReader ir(raw);
    if (n_partitions > raw.size() / kEntryHeadBytes)
        throw StoreError("bad partition count in " + path);
    table->index_.reserve(n_partitions);
    for (std::uint64_t i = 0; i < n_partitions; ++i) {
        if (ir.remaining() < kEntryHeadBytes)
            throw StoreError("truncated index in " + path);
        IndexEntry e;
        const auto kb = ir.bytes(Key::kBytes);
        e.key = Key::deserialize(kb.data());
        e.offset = ir.u64be();
        e.rows = ir.u64be();
        e.min_ts = ir.u64be();
        e.max_ts = ir.u64be();
        const std::uint32_t n_blocks = ir.u32be();
        if (n_blocks > ir.remaining() / kBlockDirBytes ||
            e.offset > index_offset)
            throw StoreError("bad block directory in " + path);
        e.blocks.reserve(n_blocks);
        std::uint64_t rel_offset = 0, rows = 0;
        for (std::uint32_t b = 0; b < n_blocks; ++b) {
            BlockRef block;
            block.format = static_cast<BlockFormat>(ir.u8());
            block.rows = ir.u32be();
            block.bytes = ir.u32be();
            block.min_ts = ir.u64be();
            block.max_ts = ir.u64be();
            block.rel_offset = rel_offset;
            rel_offset += block.bytes;
            rows += block.rows;
            if (block.rows == 0 || block.rows > kBlockRows ||
                rel_offset > index_offset - e.offset)
                throw StoreError("bad block in " + path);
            e.blocks.push_back(block);
        }
        if (rows != e.rows)
            throw StoreError("block directory row mismatch in " + path);
        table->index_.push_back(std::move(e));
    }

    // Bloom section.
    std::vector<std::uint8_t> braw(
        static_cast<std::size_t>(size) - kFooterBytes - bloom_offset);
    if (!braw.empty())
        pread_exact(table->fd_, braw.data(), braw.size(), bloom_offset, path);
    ByteReader br(braw);
    if (br.remaining() < kBloomHeadBytes)
        throw StoreError("truncated bloom filter in " + path);
    const std::uint32_t hashes = br.u32be();
    const std::uint64_t words = br.u64be();
    if (words > br.remaining() / 8)
        throw StoreError("bad bloom word count in " + path);
    std::vector<std::uint64_t> bits;
    bits.reserve(words);
    for (std::uint64_t i = 0; i < words; ++i) bits.push_back(br.u64be());
    table->bloom_ = std::make_unique<BloomFilter>(std::move(bits), hashes);

    return table;
}

SsTable::~SsTable() {
    if (fd_ >= 0) ::close(fd_);
}

const SsTable::IndexEntry* SsTable::find_entry(const Key& key) const {
    const auto it = std::lower_bound(
        index_.begin(), index_.end(), key,
        [](const IndexEntry& e, const Key& k) { return e.key < k; });
    if (it == index_.end() || !(it->key == key)) return nullptr;
    return &*it;
}

bool SsTable::may_contain(const Key& key) const {
    std::uint8_t kb[Key::kBytes];
    key.serialize(kb);
    return bloom_->may_contain(kb);
}

void SsTable::read_block(const IndexEntry& entry, const BlockRef& block,
                         std::vector<std::uint8_t>& raw,
                         std::vector<Row>& out) const {
    raw.resize(block.bytes);
    if (!raw.empty())
        pread_exact(fd_, raw.data(), raw.size(),
                    entry.offset + block.rel_offset, path_);
    out.reserve(out.size() + block.rows);
    decode_rows(block.format, raw, static_cast<std::size_t>(block.rows),
                out);
}

RowCursor SsTable::cursor(const Key& key, TimestampNs t0,
                          TimestampNs t1) const {
    const IndexEntry* entry = find_entry(key);
    if (!entry) return RowCursor();
    return RowCursor(*this, static_cast<std::size_t>(entry - index_.data()),
                     t0, t1);
}

void SsTable::query(const Key& key, TimestampNs t0, TimestampNs t1,
                    std::vector<Row>& out) const {
    for (RowCursor c = cursor(key, t0, t1); !c.done(); c.next())
        out.push_back(c.row());
}

// ---------------------------------------------------------------- cursor

namespace {

/// The rows of sorted `rows` in [t0, t1].
std::span<const Row> window(std::span<const Row> rows, TimestampNs t0,
                            TimestampNs t1) {
    const auto lo = std::partition_point(
        rows.begin(), rows.end(), [t0](const Row& r) { return r.ts < t0; });
    const auto hi = std::partition_point(
        lo, rows.end(), [t1](const Row& r) { return r.ts <= t1; });
    return {lo, hi};
}

}  // namespace

RowCursor::RowCursor(const RowChunk* first, std::uint32_t last_size,
                     TimestampNs t0, TimestampNs t1)
    : t0_(t0), t1_(t1), chunk_(first), last_size_(last_size) {
    load_block();
}

RowCursor::RowCursor(const SsTable& table, std::size_t partition,
                     TimestampNs t0, TimestampNs t1)
    : t0_(t0), t1_(t1), table_(&table), partition_(partition) {
    // Blocks ascend in ts: the window is the blocks from the first that
    // ends at or after t0 up to the first that starts after t1.
    const auto& blocks = table.index_[partition].blocks;
    const auto first = std::partition_point(
        blocks.begin(), blocks.end(),
        [t0](const SsTable::BlockRef& b) { return b.max_ts < t0; });
    const auto last = std::partition_point(
        first, blocks.end(),
        [t1](const SsTable::BlockRef& b) { return b.min_ts <= t1; });
    block_ = static_cast<std::size_t>(first - blocks.begin());
    end_block_ = static_cast<std::size_t>(last - blocks.begin());
    load_block();
}

void RowCursor::load_block() {
    run_ = {};
    pos_ = 0;
    // Chunks ascend in ts, as blocks do.
    while (chunk_ != nullptr && chunk_->rows()[0].ts <= t1_) {
        const std::span<const Row> rows(
            chunk_->rows(), chunk_->next ? chunk_->size : last_size_);
        chunk_ = chunk_->next;
        if (rows.back().ts < t0_) continue;
        run_ = window(rows, t0_, t1_);
        if (!run_.empty()) return;
    }
    while (block_ < end_block_) {
        const SsTable::IndexEntry& entry = table_->index_[partition_];
        scratch_.clear();
        table_->read_block(entry, entry.blocks[block_++], raw_, scratch_);
        run_ = window(scratch_, t0_, t1_);
        if (!run_.empty()) return;
    }
}

std::uint64_t SsTable::row_count() const {
    std::uint64_t n = 0;
    for (const auto& e : index_) n += e.rows;
    return n;
}

}  // namespace dcdb::store
