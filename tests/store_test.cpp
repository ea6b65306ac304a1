// Tests for the wide-column store substrate: murmur hashing, bloom
// filters, partitioners, memtable, SSTables, commit log, storage node and
// the multi-node cluster (replication, locality, TTL, compaction,
// crash recovery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <thread>

#include "common/bytebuf.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "store/bloom.hpp"
#include "store/cluster.hpp"
#include "store/commitlog.hpp"
#include "store/compaction.hpp"
#include "store/memtable.hpp"
#include "store/metastore.hpp"
#include "store/murmur.hpp"
#include "store/node.hpp"
#include "store/partitioner.hpp"
#include "store/sstable.hpp"

namespace dcdb::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    TempDir() {
        static std::atomic<int> counter{0};
        path_ = fs::temp_directory_path() /
                ("dcdb_store_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1)));
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

Key make_key(std::uint8_t tag, std::uint32_t bucket = 0) {
    Key k;
    k.sid.fill(0);
    k.sid[0] = tag;
    k.sid[15] = tag;
    k.bucket = bucket;
    return k;
}

std::span<const std::uint8_t> bytes_of(const std::string& s) {
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// ---------------------------------------------------------------- murmur

TEST(Murmur, DeterministicAndSeedSensitive) {
    const std::string data = "the quick brown fox";
    const auto a = murmur3_x64_128(bytes_of(data));
    const auto b = murmur3_x64_128(bytes_of(data));
    const auto c = murmur3_x64_128(bytes_of(data), 1);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Murmur, AllTailLengthsDiffer) {
    // Exercise every switch-case tail path (lengths 0..16).
    std::set<std::uint64_t> seen;
    std::string s;
    for (int len = 0; len <= 16; ++len) {
        seen.insert(murmur3_token(bytes_of(s)));
        s.push_back(static_cast<char>('a' + len));
    }
    EXPECT_EQ(seen.size(), 17u);
}

TEST(Murmur, TokenDistributionIsRoughlyUniform) {
    constexpr int kNodes = 8;
    constexpr int kKeys = 8000;
    std::array<int, kNodes> counts{};
    for (int i = 0; i < kKeys; ++i) {
        const std::string key = "sensor-" + std::to_string(i);
        counts[murmur3_token(bytes_of(key)) % kNodes]++;
    }
    for (const int c : counts) {
        EXPECT_GT(c, kKeys / kNodes / 2);
        EXPECT_LT(c, kKeys / kNodes * 2);
    }
}

// ----------------------------------------------------------------- bloom

TEST(Bloom, NoFalseNegatives) {
    BloomFilter bloom(1000, 0.01);
    for (int i = 0; i < 1000; ++i) {
        const std::string key = "key" + std::to_string(i);
        bloom.insert(bytes_of(key));
    }
    for (int i = 0; i < 1000; ++i) {
        const std::string key = "key" + std::to_string(i);
        EXPECT_TRUE(bloom.may_contain(bytes_of(key)));
    }
}

TEST(Bloom, FalsePositiveRateNearTarget) {
    BloomFilter bloom(2000, 0.01);
    for (int i = 0; i < 2000; ++i) {
        const std::string key = "in" + std::to_string(i);
        bloom.insert(bytes_of(key));
    }
    int fp = 0;
    const int probes = 10000;
    for (int i = 0; i < probes; ++i) {
        const std::string key = "out" + std::to_string(i);
        if (bloom.may_contain(bytes_of(key))) ++fp;
    }
    EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(Bloom, SerializedStateRoundTrips) {
    BloomFilter a(100);
    const std::string key = "present";
    a.insert(bytes_of(key));
    BloomFilter b(a.bits(), a.hash_count());
    EXPECT_TRUE(b.may_contain(bytes_of(key)));
}

// ----------------------------------------------------------- partitioner

TEST(Partitioner, HierarchyKeepsSubtreesTogether) {
    HierarchyPartitioner part(4);
    // Same 4-byte prefix, different leaves and buckets -> same node.
    Key a = make_key(1, 0);
    Key b = make_key(1, 99);
    b.sid[10] = 200;  // deep level differs
    for (std::size_t nodes : {2u, 3u, 7u, 16u}) {
        EXPECT_EQ(part.node_for(a, nodes), part.node_for(b, nodes));
    }
}

TEST(Partitioner, HierarchySeparatesDifferentSubtrees) {
    HierarchyPartitioner part(4);
    std::set<std::size_t> nodes_hit;
    for (std::uint8_t tag = 0; tag < 64; ++tag)
        nodes_hit.insert(part.node_for(make_key(tag), 8));
    EXPECT_GT(nodes_hit.size(), 4u) << "subtrees should spread over nodes";
}

TEST(Partitioner, Murmur3SpreadsBuckets) {
    Murmur3Partitioner part;
    // Same sensor, different time buckets spread over nodes (no locality).
    std::set<std::size_t> nodes_hit;
    for (std::uint32_t bucket = 0; bucket < 64; ++bucket)
        nodes_hit.insert(part.node_for(make_key(1, bucket), 8));
    EXPECT_GT(nodes_hit.size(), 4u);
}

TEST(Partitioner, FactoryRejectsUnknownName) {
    EXPECT_NO_THROW(make_partitioner("murmur3"));
    EXPECT_NO_THROW(make_partitioner("hierarchy"));
    EXPECT_THROW(make_partitioner("vogon"), StoreError);
}

// -------------------------------------------------------------- memtable

TEST(Memtable, InsertAndRangeQuery) {
    Memtable mt;
    const Key k = make_key(1);
    for (TimestampNs ts = 100; ts <= 1000; ts += 100)
        mt.insert(k, Row{ts, static_cast<Value>(ts * 2), 0});
    std::vector<Row> out;
    mt.query(k, 300, 700, out);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out.front().ts, 300u);
    EXPECT_EQ(out.back().ts, 700u);
    EXPECT_EQ(out[0].value, 600);
}

TEST(Memtable, OutOfOrderInsertIsSorted) {
    Memtable mt;
    const Key k = make_key(1);
    mt.insert(k, Row{500, 5, 0});
    mt.insert(k, Row{100, 1, 0});
    mt.insert(k, Row{300, 3, 0});
    std::vector<Row> out;
    mt.query(k, 0, kTimestampMax, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].ts, 100u);
    EXPECT_EQ(out[1].ts, 300u);
    EXPECT_EQ(out[2].ts, 500u);
}

TEST(Memtable, SameTimestampUpserts) {
    Memtable mt;
    const Key k = make_key(1);
    mt.insert(k, Row{100, 1, 0});
    mt.insert(k, Row{100, 2, 0});
    std::vector<Row> out;
    mt.query(k, 0, kTimestampMax, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value, 2);
}

TEST(Memtable, SeparateKeysAreIsolated) {
    Memtable mt;
    mt.insert(make_key(1), Row{100, 1, 0});
    mt.insert(make_key(2), Row{100, 2, 0});
    std::vector<Row> out;
    mt.query(make_key(1), 0, kTimestampMax, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value, 1);
}

TEST(Memtable, ApproxBytesGrows) {
    Memtable mt;
    const std::size_t before = mt.approx_bytes();
    for (int i = 0; i < 100; ++i)
        mt.insert(make_key(1), Row{static_cast<TimestampNs>(i), 0, 0});
    EXPECT_GT(mt.approx_bytes(), before + 100 * Row::kBytes - 1);
}

// Runs in order, runs that overlap the partition's tail or reach back
// past many chunks, and equal-timestamp rewrites inside a run: the
// memtable reads back what a map that applies each row in turn holds,
// through chunk growth and splits, and again after clear() reuses its
// arena.
TEST(Memtable, RunsMatchAMapOfTheirRows) {
    Memtable mt;
    std::mt19937_64 rng(11);
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        mt.clear();
        std::map<Key, std::map<TimestampNs, Value>> model;
        std::vector<Row> run;
        for (int i = 0; i < 3000; ++i) {
            const Key key = make_key(static_cast<std::uint8_t>(rng() % 3));
            auto& rows = model[key];
            const TimestampNs newest = rows.empty() ? 0 : rows.rbegin()->first;
            TimestampNs ts =
                rng() % 4 != 0 ? newest + 1 : 1 + rng() % (newest + 1);
            run.clear();
            for (std::size_t n = 1 + rng() % 40; n > 0; --n) {
                run.push_back(Row{ts, static_cast<Value>(rng() % 1000), 0});
                ts += rng() % 3;  // 0 rewrites the row just written
            }
            mt.insert(key, run);
            for (const Row& r : run) rows[r.ts] = r.value;
        }
        std::size_t total = 0;
        for (const auto& [key, rows] : model) {
            total += rows.size();
            for (int q = 0; q < 20; ++q) {
                TimestampNs lo = rng() % (rows.rbegin()->first + 2);
                TimestampNs hi = rng() % (rows.rbegin()->first + 2);
                if (q == 0) lo = 0, hi = kTimestampMax;
                if (lo > hi) std::swap(lo, hi);
                std::vector<Row> out;
                mt.query(key, lo, hi, out);
                auto it = rows.lower_bound(lo);
                for (const Row& r : out) {
                    ASSERT_NE(it, rows.end());
                    EXPECT_EQ(r.ts, it->first);
                    EXPECT_EQ(r.value, it->second);
                    ++it;
                }
                EXPECT_TRUE(it == rows.end() || it->first > hi);
            }
        }
        EXPECT_EQ(mt.row_count(), total);
        EXPECT_EQ(mt.approx_bytes(),
                  total * Row::kBytes + model.size() * (Key::kBytes + 48));
    }
}

// --------------------------------------------------------------- sstable

TEST(SsTable, WriteOpenQuery) {
    TempDir dir;
    std::map<Key, std::vector<Row>> parts;
    const Key k = make_key(3);
    for (TimestampNs ts = 10; ts <= 100; ts += 10)
        parts[k].push_back(Row{ts, static_cast<Value>(ts), 0});
    auto table = SsTable::write(dir.str() + "/t.db", 1, parts);

    std::vector<Row> out;
    table->query(k, 30, 60, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].ts, 30u);
    EXPECT_EQ(out[3].ts, 60u);
    EXPECT_EQ(table->generation(), 1u);
    EXPECT_EQ(table->row_count(), 10u);
}

TEST(SsTable, ReopenFromDiskPreservesData) {
    TempDir dir;
    const std::string path = dir.str() + "/t.db";
    {
        std::map<Key, std::vector<Row>> parts;
        parts[make_key(1)] = {Row{5, 50, 0}, Row{6, 60, 0}};
        parts[make_key(2)] = {Row{7, 70, 0}};
        SsTable::write(path, 9, parts);
    }
    auto table = SsTable::open(path);
    EXPECT_EQ(table->generation(), 9u);
    EXPECT_EQ(table->partition_count(), 2u);
    std::vector<Row> out;
    table->query(make_key(2), 0, kTimestampMax, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value, 70);
}

TEST(SsTable, MissingKeyReturnsNothing) {
    TempDir dir;
    std::map<Key, std::vector<Row>> parts;
    parts[make_key(1)] = {Row{1, 1, 0}};
    auto table = SsTable::write(dir.str() + "/t.db", 1, parts);
    std::vector<Row> out;
    table->query(make_key(99), 0, kTimestampMax, out);
    EXPECT_TRUE(out.empty());
}

TEST(SsTable, LargePartitionBinarySearch) {
    TempDir dir;
    std::map<Key, std::vector<Row>> parts;
    const Key k = make_key(1);
    for (TimestampNs ts = 0; ts < 20000; ++ts)
        parts[k].push_back(Row{ts, static_cast<Value>(ts), 0});
    auto table = SsTable::write(dir.str() + "/big.db", 1, parts);
    std::vector<Row> out;
    table->query(k, 9999, 10001, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1].ts, 10000u);
}

TEST(SsTable, CorruptFileIsRejected) {
    TempDir dir;
    const std::string path = dir.str() + "/junk.db";
    FILE* f = fopen(path.c_str(), "wb");
    const char junk[] = "this is not an sstable, not even close......";
    fwrite(junk, 1, sizeof junk, f);
    fclose(f);
    EXPECT_THROW(SsTable::open(path), StoreError);
}

TEST(SsTable, RegularSeriesCompressBelowFourBytesPerRow) {
    TempDir dir;
    std::map<Key, std::vector<Row>> parts;
    const Key k = make_key(1);
    // The acceptance workload: monotone timestamps at a fixed stride,
    // slowly drifting values, constant TTL — the common DCDB sensor.
    for (TimestampNs i = 0; i < 5000; ++i)
        parts[k].push_back(Row{1000 + i * kNsPerSec,
                               static_cast<Value>(40 + (i % 3)), 3600});
    auto table = SsTable::write(dir.str() + "/t.db", 1, parts);
    EXPECT_LE(table->data_bytes(), 4u * 5000u)
        << "bytes/row "
        << (static_cast<double>(table->data_bytes()) / 5000.0);
    // Compression must be invisible to queries.
    std::vector<Row> out;
    table->query(k, 1000 + 100 * kNsPerSec, 1000 + 110 * kNsPerSec, out);
    ASSERT_EQ(out.size(), 11u);
    EXPECT_EQ(out.front().ts, 1000 + 100 * kNsPerSec);
    EXPECT_EQ(out.front().expiry_s, 3600u);
}

TEST(SsTable, QueriesAndRowReadsCrossCompressedBlockBoundaries) {
    // Two inputs: a regular series (Gorilla blocks) and a random one
    // that does not compress (raw blocks); every read decodes whole
    // blocks either way.
    std::mt19937_64 rng(42);
    std::vector<std::vector<Row>> inputs(2);
    TimestampNs ts = 0;
    for (TimestampNs i = 0; i < 2000; ++i) {
        inputs[0].push_back(Row{i, static_cast<Value>(i * 3), 0});
        ts += 1 + rng() % (1ull << 40);
        inputs[1].push_back(Row{ts, static_cast<Value>(rng()),
                                static_cast<std::uint32_t>(rng())});
    }
    for (std::size_t input = 0; input < inputs.size(); ++input) {
        SCOPED_TRACE(input);
        const std::vector<Row>& rows = inputs[input];
        TempDir dir;
        std::map<Key, std::vector<Row>> parts;
        const Key k = make_key(1);
        parts[k] = rows;
        auto table = SsTable::write(dir.str() + "/t.db", 1, parts);
        if (input == 1) {
            EXPECT_EQ(table->data_bytes(), 2000u * Row::kBytes);
        }

        // kBlockRows = 512: [500, 530] spans the first block boundary.
        std::vector<Row> out;
        table->query(k, rows[500].ts, rows[530].ts, out);
        ASSERT_EQ(out.size(), 31u);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i].ts, rows[500 + i].ts);
            EXPECT_EQ(out[i].value, rows[500 + i].value);
            EXPECT_EQ(out[i].expiry_s, rows[500 + i].expiry_s);
        }

        // A cursor walk over partition 0 (the compaction read path)
        // across blocks.
        out.clear();
        for (RowCursor c(*table, 0, rows[510].ts, rows[1029].ts); !c.done();
             c.next())
            out.push_back(c.row());
        ASSERT_EQ(out.size(), 520u);
        EXPECT_EQ(out.front().ts, rows[510].ts);
        EXPECT_EQ(out.back().ts, rows[1029].ts);
        EXPECT_EQ(out.back().value, rows[1029].value);

        // Reopen: the block directory round-trips through disk.
        auto reopened = SsTable::open(dir.str() + "/t.db");
        out.clear();
        reopened->query(k, rows[1535].ts, rows[1540].ts, out);
        ASSERT_EQ(out.size(), 6u);
        EXPECT_EQ(out.front().ts, rows[1535].ts);
        EXPECT_EQ(out.back().value, rows[1540].value);
    }
}

// ------------------------------------------------------------- commitlog

void ignore_row(const Key&, std::span<const Row>) {}

/// A replay callback that hands `f` each row of each replayed run.
template <typename F>
CommitLog::Apply each_row(F f) {
    return [f](const Key& key, std::span<const Row> rows) mutable {
        for (const Row& row : rows) f(key, row);
    };
}

/// Append a batch as one record, the way StorageNode does.
void append_batch(CommitLog& log, std::span<const BatchEntry> entries) {
    std::vector<std::uint8_t> record;
    const std::size_t rows =
        CommitLog::encode_record(to_mutations(entries), record);
    log.append(record, rows);
}

/// Append one row as its own record; timestamps under a second make the
/// TTL the absolute expiry.
void append_row(CommitLog& log, const BatchEntry& entry) {
    append_batch(log, std::span<const BatchEntry>(&entry, 1));
}

TEST(CommitLog, AppendAndReplay) {
    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    {
        CommitLog log(path, ignore_row);
        append_row(log, {make_key(1), 10, 100, 0});
        append_row(log, {make_key(2), 20, 200, 7});
        log.sync();
    }
    const auto size = fs::file_size(path);
    std::vector<std::pair<Key, Row>> seen;
    CommitLog log(path, each_row([&](const Key& k, const Row& r) {
                      seen.emplace_back(k, r);
                  }));
    EXPECT_EQ(log.records_appended(), 2u);
    EXPECT_EQ(fs::file_size(path), size);  // every byte was intact
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, make_key(1));
    EXPECT_EQ(seen[1].second.value, 200);
    EXPECT_EQ(seen[1].second.expiry_s, 7u);
}

TEST(CommitLog, ReplayStopsAtCorruptTail) {
    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    {
        CommitLog log(path, ignore_row);
        append_row(log, {make_key(1), 10, 100, 0});
        log.sync();
    }
    // Simulate a torn write: append garbage.
    FILE* f = fopen(path.c_str(), "ab");
    fwrite("garbage", 1, 7, f);
    fclose(f);

    std::uint64_t count = 0;
    CommitLog log(path, each_row([&](const Key&, const Row&) { ++count; }));
    EXPECT_EQ(count, 1u);
}

TEST(CommitLog, ResetTruncates) {
    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    {
        CommitLog log(path, ignore_row);
        append_row(log, {make_key(1), 10, 100, 0});
        log.reset();
        log.sync();
        EXPECT_EQ(fs::file_size(path), 8u);  // the header, in place
    }
    std::uint64_t count = 0;
    CommitLog log(path, each_row([&](const Key&, const Row&) { ++count; }));
    EXPECT_EQ(count, 0u);
}

TEST(CommitLog, AppendBatchReplaysAllRowsFromOneRecord) {
    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    {
        CommitLog log(path, ignore_row);
        // Timestamps under a second: a TTL is then the absolute expiry.
        const std::vector<BatchEntry> batch{
            {make_key(1), 10, 100, 0},
            {make_key(1), 11, 110, 0},
            {make_key(2), 20, 200, 7},
            {make_key(3), 30, 300, 0},
            {make_key(3), 31, 310, 9},
        };
        append_batch(log, batch);
        log.sync();
        EXPECT_EQ(log.records_appended(), 5u);
    }
    // One header + ONE record for the whole batch, one run per key:
    // 8 + (len(4) + 3 * (key(20) + count(4)) + 5 * row(20) + crc(4)).
    EXPECT_EQ(fs::file_size(path), 8u + 4u + 3u * 24u + 5u * 20u + 4u);
    std::vector<std::pair<Key, Row>> seen;
    CommitLog log(path, each_row([&](const Key& k, const Row& r) {
                      seen.emplace_back(k, r);
                  }));
    EXPECT_EQ(log.records_appended(), 5u);
    EXPECT_EQ(fs::file_size(path), 8u + 4u + 3u * 24u + 5u * 20u + 4u);
    ASSERT_EQ(seen.size(), 5u);
    EXPECT_EQ(seen[2].first, make_key(2));
    EXPECT_EQ(seen[2].second.expiry_s, 7u);
    EXPECT_EQ(seen[4].second.value, 310);
}

TEST(CommitLog, TornBatchedTailReplaysNoneOfItsRows) {
    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    {
        CommitLog log(path, ignore_row);
        const std::vector<BatchEntry> first{
            {make_key(1), 1, 10, 0},
            {make_key(1), 2, 20, 0},
            {make_key(1), 3, 30, 0},
        };
        const std::vector<BatchEntry> second{
            {make_key(2), 4, 40, 0},
            {make_key(2), 5, 50, 0},
        };
        append_batch(log, first);
        append_batch(log, second);
        log.sync();
    }
    // Tear the second record: a torn batch is all-or-nothing on replay.
    fs::resize_file(path, fs::file_size(path) - 5);
    std::vector<Row> seen;
    CommitLog log(path,
                  each_row([&](const Key&, const Row& r) { seen.push_back(r); }));
    EXPECT_EQ(log.records_appended(), 3u);
    EXPECT_EQ(fs::file_size(path), 8u + 4u + 24u + 3u * 20u + 4u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen.back().ts, 3u);
}

TEST(CommitLog, RecordEncodedFromBatchEntriesReplaysSameRows) {
    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    // Realistic timestamps, so a TTL becomes ts/1e9 + ttl seconds.
    const TimestampNs t0 = 1'767'225'600ull * kNsPerSec;
    // Runs of 4 entries per key, the last of 2: 13 runs.
    std::vector<BatchEntry> batch;
    for (std::uint8_t i = 0; i < 50; ++i) {
        batch.push_back({make_key(static_cast<std::uint8_t>(i / 4 % 7 + 1),
                                  i / 8u),
                         t0 + i * 1'500'000'000ull, -1000 + i * 37,
                         i % 3 == 0 ? 0u : 3600u * i});
    }
    std::vector<std::uint8_t> record(999, 0xEE);  // dirty reused scratch
    EXPECT_EQ(CommitLog::encode_record(to_mutations(batch), record),
              batch.size());

    // The v4 record byte for byte: len, (key, count, (ts, value,
    // expiry) * count)*, crc.
    ByteWriter body;
    for (std::size_t i = 0; i < batch.size();) {
        std::size_t end = i + 1;
        while (end < batch.size() && batch[end].key == batch[i].key) ++end;
        std::uint8_t kb[Key::kBytes];
        batch[i].key.serialize(kb);
        body.bytes(kb, sizeof kb);
        body.u32be(static_cast<std::uint32_t>(end - i));
        for (; i < end; ++i) {
            const BatchEntry& e = batch[i];
            body.u64be(e.ts);
            body.i64be(e.value);
            body.u32be(e.ttl_s == 0 ? 0u
                                    : static_cast<std::uint32_t>(
                                          e.ts / kNsPerSec + e.ttl_s));
        }
    }
    ByteWriter ref;
    ref.u32be(static_cast<std::uint32_t>(body.size()));
    ref.bytes(body.data().data(), body.size());
    ref.u32be(static_cast<std::uint32_t>(murmur3_token(ref.data())));
    EXPECT_EQ(record, ref.data());
    EXPECT_EQ(record.size(), 8u + 13u * 24u + 50u * 20u);

    {
        CommitLog log(path, ignore_row);
        log.append(record, batch.size());
        log.sync();
        EXPECT_EQ(log.records_appended(), batch.size());
    }
    std::vector<std::pair<Key, Row>> seen;
    CommitLog log(path, each_row([&](const Key& k, const Row& r) {
                      seen.emplace_back(k, r);
                  }));
    EXPECT_EQ(log.records_appended(), batch.size());
    ASSERT_EQ(seen.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(seen[i].first, batch[i].key);
        EXPECT_EQ(seen[i].second, batch[i].row());
    }
    EXPECT_EQ(seen[1].second.expiry_s, 1'767'225'601u + 3600u);
}

// A section that crosses midnight is two runs of one sensor, in two day
// buckets. Its record replays both runs, or, torn, neither of them.
TEST(CommitLog, TornRecordAcrossTwoDayBucketsReplaysAllOrNone) {
    constexpr TimestampNs kDay = 24ull * 3600 * kNsPerSec;
    const TimestampNs midnight = 20'454 * kDay;
    std::vector<BatchEntry> section;
    for (TimestampNs ts = midnight - 5 * kNsPerSec;
         ts < midnight + 5 * kNsPerSec; ts += kNsPerSec) {
        section.push_back({make_key(1, static_cast<std::uint32_t>(ts / kDay)),
                           ts, static_cast<Value>(ts / kNsPerSec), 0});
    }
    ASSERT_EQ(to_mutations(section).size(), 2u);
    for (const bool torn : {false, true}) {
        SCOPED_TRACE(torn ? "torn" : "intact");
        TempDir dir;
        const std::string path = dir.str() + "/commit.log";
        {
            CommitLog log(path, ignore_row);
            append_row(log, {make_key(2), 1, 1, 0});
            append_batch(log, section);
            log.sync();
        }
        if (torn) fs::resize_file(path, fs::file_size(path) - 1);
        std::vector<std::pair<Key, std::vector<Row>>> runs;
        CommitLog log(path, [&](const Key& k, std::span<const Row> rows) {
            runs.emplace_back(k, std::vector<Row>(rows.begin(), rows.end()));
        });
        ASSERT_EQ(runs.size(), torn ? 1u : 3u);
        EXPECT_EQ(runs[0].first, make_key(2));
        EXPECT_EQ(log.records_appended(), torn ? 1u : 11u);
        if (torn) continue;
        EXPECT_EQ(runs[1].first.bucket + 1, runs[2].first.bucket);
        ASSERT_EQ(runs[1].second.size(), 5u);
        ASSERT_EQ(runs[2].second.size(), 5u);
        EXPECT_EQ(runs[1].second.back().ts, midnight - kNsPerSec);
        EXPECT_EQ(runs[2].second.front().ts, midnight);
    }
}

/// A headerless log: one 44-byte per-row record, the format commit logs
/// had before the DCL2 header.
void write_headerless_log(const std::string& path) {
    ByteWriter w(44);
    std::uint8_t kb[Key::kBytes];
    make_key(1).serialize(kb);
    w.bytes(kb, sizeof kb);
    w.u64be(10);
    w.i64be(100);
    w.u32be(0);
    w.u32be(static_cast<std::uint32_t>(murmur3_token(w.data())));
    FILE* f = fopen(path.c_str(), "wb");
    fwrite(w.data().data(), 1, w.size(), f);
    fclose(f);
}

/// A version-2 DCL2 log: the same header magic, then one record framed
/// by its row count instead of its byte length.
void write_v2_log(const std::string& path) {
    ByteWriter w;
    w.u32be(0x44434C32);  // 'DCL2'
    w.u32be(2);
    ByteWriter rec;
    rec.u32be(1);
    std::uint8_t kb[Key::kBytes];
    make_key(1).serialize(kb);
    rec.bytes(kb, sizeof kb);
    rec.u64be(10);
    rec.i64be(100);
    rec.u32be(0);
    rec.u32be(static_cast<std::uint32_t>(murmur3_token(rec.data())));
    w.bytes(rec.data().data(), rec.size());
    FILE* f = fopen(path.c_str(), "wb");
    fwrite(w.data().data(), 1, w.size(), f);
    fclose(f);
}

/// A version-3 DCL2 log: one record framed by its byte length whose body
/// repeats the key before every row.
void write_v3_log(const std::string& path) {
    ByteWriter w;
    w.u32be(0x44434C32);  // 'DCL2'
    w.u32be(3);
    ByteWriter rec;
    rec.u32be(40);
    std::uint8_t kb[Key::kBytes];
    make_key(1).serialize(kb);
    rec.bytes(kb, sizeof kb);
    rec.u64be(10);
    rec.i64be(100);
    rec.u32be(0);
    rec.u32be(static_cast<std::uint32_t>(murmur3_token(rec.data())));
    w.bytes(rec.data().data(), rec.size());
    FILE* f = fopen(path.c_str(), "wb");
    fwrite(w.data().data(), 1, w.size(), f);
    fclose(f);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CommitLog, HeaderlessFileReplaysNothingAndIsNotAppendedTo) {
    TempDir dir;
    const std::string path = dir.str() + "/commit.log";
    write_headerless_log(path);
    std::uint64_t count = 0;
    // Appending behind bytes replay cannot read would lose the appends,
    // and discarding them would lose their rows: the log is refused.
    EXPECT_THROW(
        CommitLog log(path, each_row([&](const Key&, const Row&) { ++count; })),
        StoreError);
    EXPECT_EQ(count, 0u);
    EXPECT_EQ(fs::file_size(path), 44u);
}

// A log of another format (headerless, or DCL2 version 2 or 3) stops the
// node from opening, with the file left as it was: replaying it as
// version 4 would misread its rows, and truncating it would drop them.
TEST(StorageNode, ForeignCommitLogIsRefusedAndLeftUntouched) {
    for (const int version : {0, 2, 3}) {
        SCOPED_TRACE(version == 0 ? std::string("headerless")
                                  : "DCL2 version " + std::to_string(version));
        TempDir dir;
        NodeConfig config;
        config.data_dir = dir.str();
        const std::string path = dir.str() + "/commit.log";
        if (version == 0) {
            write_headerless_log(path);
        } else if (version == 2) {
            write_v2_log(path);
        } else {
            write_v3_log(path);
        }
        const std::string before = read_file(path);
        EXPECT_THROW(StorageNode node(config), StoreError);
        EXPECT_EQ(read_file(path), before);
    }
}

// ---------------------------------------------------------- storage node

// The hash-indexed memtable sorts its partitions once, at flush: the
// table it writes must equal, byte for byte, one written from the same
// rows in key order, whether they came one by one or in runs.
TEST(StorageNode, FlushedTableEqualsKeyOrderedWrite) {
    TempDir dir;
    NodeConfig config;
    config.data_dir = dir.str() + "/node";
    config.commitlog_enabled = false;
    config.memtable_flush_bytes = 1u << 30;
    StorageNode node(config);

    std::map<Key, std::vector<Row>> ordered;
    const auto apply = [&](const Key& key, const Row& row) {
        auto& rows = ordered[key];
        const auto pos = std::lower_bound(
            rows.begin(), rows.end(), row.ts,
            [](const Row& r, TimestampNs t) { return r.ts < t; });
        if (pos != rows.end() && pos->ts == row.ts)
            *pos = row;  // newest write wins
        else
            rows.insert(pos, row);
    };
    std::mt19937_64 rng(7);
    std::vector<Row> run;
    for (int i = 0; i < 5000; ++i) {
        const Key key = make_key(static_cast<std::uint8_t>(rng() % 40),
                                 static_cast<std::uint32_t>(rng() % 3));
        TimestampNs ts = 1 + rng() % 2000;  // stragglers and upserts
        run.clear();
        // Every other insert is a run: mostly ascending, now and then
        // rewriting the row before.
        for (std::size_t n = i % 2 == 0 ? 1 : 1 + rng() % 64; n > 0; --n) {
            run.push_back(Row{ts, static_cast<Value>(rng() % 100000), 0});
            ts += rng() % 8;
        }
        const Mutation mutation{key, run};
        node.insert_batch(std::span<const Mutation>(&mutation, 1));
        for (const Row& row : run) apply(key, row);
    }
    node.flush();
    const auto reference =
        SsTable::write(dir.str() + "/reference.db", 1, ordered);

    const auto read_file = [](const std::string& path) {
        std::vector<char> bytes(fs::file_size(path));
        std::FILE* f = std::fopen(path.c_str(), "rb");
        EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
        return bytes;
    };
    const auto flushed = read_file(config.data_dir + "/sstable-1.db");
    EXPECT_GT(flushed.size(), 0u);
    EXPECT_EQ(flushed, read_file(reference->path()));
}

// The commit log writes each run's key once: 32 runs of 32 rows cost
// at most 22 bytes a row, against 40 when every row carried its key.
// A batch of one-row runs pays the run head on every row.
TEST(StorageNode, CommitLogBytesPerRowOfRuns) {
    for (const std::size_t rows_per_run : {std::size_t{32}, std::size_t{1}}) {
        SCOPED_TRACE(rows_per_run);
        TempDir dir;
        telemetry::MetricRegistry registry;
        NodeConfig config;
        config.data_dir = dir.str();
        config.registry = &registry;
        StorageNode node(config);
        std::vector<Row> rows(32 * rows_per_run);
        std::vector<Mutation> batch;
        for (std::size_t r = 0; r < 32; ++r) {
            for (std::size_t i = 0; i < rows_per_run; ++i)
                rows[r * rows_per_run + i] =
                    Row{static_cast<TimestampNs>(i + 1), 7, 0};
            batch.push_back({make_key(static_cast<std::uint8_t>(r)),
                             std::span<const Row>(rows).subspan(
                                 r * rows_per_run, rows_per_run)});
        }
        node.insert_batch(batch);
        const std::uint64_t bytes = node.stats().commitlog_bytes;
        EXPECT_EQ(bytes, registry.counter("store.commitlog.bytes").value());
        const double per_row =
            static_cast<double>(bytes) / static_cast<double>(rows.size());
        RecordProperty(rows_per_run == 1 ? "bytes_per_row_1" : "bytes_per_row_32",
                       std::to_string(per_row));
        EXPECT_LE(per_row, rows_per_run == 1 ? 45.0 : 22.0);
        EXPECT_EQ(bytes, 8 + 32 * (24 + rows_per_run * 20));
    }
}

TEST(StorageNode, InsertQueryAcrossFlush) {
    TempDir dir;
    StorageNode node({dir.str(), 1u << 20, true});
    const Key k = make_key(1);
    for (TimestampNs ts = 1; ts <= 100; ++ts)
        node.insert(k, ts, static_cast<Value>(ts * 10));
    node.flush();
    for (TimestampNs ts = 101; ts <= 200; ++ts)
        node.insert(k, ts, static_cast<Value>(ts * 10));

    // Query spans SSTable + memtable.
    const auto rows = node.query(k, 50, 150);
    ASSERT_EQ(rows.size(), 101u);
    EXPECT_EQ(rows.front().ts, 50u);
    EXPECT_EQ(rows.back().ts, 150u);
    EXPECT_EQ(rows.back().value, 1500);
}

TEST(StorageNode, NewerWriteShadowsOlderAcrossGenerations) {
    TempDir dir;
    StorageNode node({dir.str(), 1u << 20, true});
    const Key k = make_key(1);
    node.insert(k, 100, 1);
    node.flush();
    node.insert(k, 100, 2);  // same clustering key, newer write
    node.flush();
    auto rows = node.query(k, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 2);

    node.compact();
    rows = node.query(k, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 2);
    EXPECT_EQ(node.stats().sstables, 1u);
}

TEST(StorageNode, AutomaticFlushOnThreshold) {
    TempDir dir;
    StorageNode node({dir.str(), /*flush at*/ 4096, true});
    const Key k = make_key(1);
    for (TimestampNs ts = 1; ts <= 2000; ++ts) node.insert(k, ts, 1);
    EXPECT_GT(node.stats().flushes, 0u);
    EXPECT_EQ(node.query(k, 0, kTimestampMax).size(), 2000u);
}

TEST(StorageNode, TtlExpiresRows) {
    TempDir dir;
    StorageNode node({dir.str(), 1u << 20, false});
    const Key k = make_key(1);
    const TimestampNs now = now_ns();
    // Row whose expiry is already in the past vs one far in the future.
    node.insert(k, now - 10 * kNsPerSec, 1, /*ttl_s=*/1);
    node.insert(k, now, 2, /*ttl_s=*/3600);
    const auto rows = node.query(k, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 2);
}

TEST(StorageNode, CompactionDropsExpired) {
    TempDir dir;
    StorageNode node({dir.str(), 1u << 20, false});
    const Key k = make_key(1);
    const TimestampNs past = now_ns() - 100 * kNsPerSec;
    node.insert(k, past, 1, /*ttl_s=*/1);
    node.insert(k, past + 1, 2, /*ttl_s=*/0);
    node.flush();
    node.compact();
    const auto stats = node.stats();
    EXPECT_EQ(stats.sstables, 1u);
    const auto rows = node.query(k, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 2);
}

TEST(StorageNode, TruncateBeforeDropsOldData) {
    TempDir dir;
    StorageNode node({dir.str(), 1u << 20, false});
    const Key k = make_key(1);
    for (TimestampNs ts = 1; ts <= 100; ++ts) node.insert(k, ts, 1);
    node.truncate_before(51);
    const auto rows = node.query(k, 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 50u);
    EXPECT_EQ(rows.front().ts, 51u);
}

TEST(StorageNode, CrashRecoveryViaCommitLog) {
    TempDir dir;
    {
        StorageNode node({dir.str(), 1u << 20, true});
        node.insert(make_key(1), 100, 42);
        node.insert(make_key(1), 101, 43);
        // "Crash": destructor without flush; commit log holds the data.
    }
    StorageNode recovered({dir.str(), 1u << 20, true});
    const auto rows = recovered.query(make_key(1), 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].value, 42);
    EXPECT_EQ(rows[1].value, 43);
}

TEST(StorageNode, RestartAfterFlushReopensSsTables) {
    TempDir dir;
    {
        StorageNode node({dir.str(), 1u << 20, true});
        node.insert(make_key(1), 100, 42);
        node.flush();
    }
    StorageNode recovered({dir.str(), 1u << 20, true});
    const auto rows = recovered.query(make_key(1), 0, kTimestampMax);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 42);
}

TEST(StorageNode, ConcurrentWritersAndReaders) {
    TempDir dir;
    StorageNode node({dir.str(), 1u << 18, false});
    constexpr int kWriters = 4;
    constexpr int kRowsEach = 2000;
    std::vector<std::thread> threads;
    threads.reserve(kWriters + 1);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&node, w] {
            const Key k = make_key(static_cast<std::uint8_t>(w));
            for (int i = 1; i <= kRowsEach; ++i)
                node.insert(k, static_cast<TimestampNs>(i), i);
        });
    }
    threads.emplace_back([&node] {
        for (int i = 0; i < 50; ++i) {
            (void)node.query(make_key(0), 0, kTimestampMax);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    for (auto& t : threads) t.join();
    for (int w = 0; w < kWriters; ++w) {
        EXPECT_EQ(node.query(make_key(static_cast<std::uint8_t>(w)), 0,
                             kTimestampMax)
                      .size(),
                  static_cast<std::size_t>(kRowsEach));
    }
}

TEST(StorageNode, InsertBatchSurvivesCrashViaBatchedCommitLog) {
    // The second batch holds 2^20 + 1 rows: a Pusher group of 257 sensors
    // whose 4,096-reading pending rings filled during an outage drains
    // that much in one publish, and its one record must replay whole.
    for (const std::size_t rows_in_batch : {std::size_t{3},
                                            (std::size_t{1} << 20) + 1}) {
        SCOPED_TRACE(rows_in_batch);
        TempDir dir;
        const std::size_t flush_bytes = 1u << 30;  // no flush: log only
        {
            StorageNode node({dir.str(), flush_bytes, true});
            const TimestampNs now = now_ns();
            std::vector<BatchEntry> batch{
                {make_key(1), 100, 42, 0},
                {make_key(1), 101, 43, 0},
                {make_key(2), now, 44, 3600},  // TTL relative to the row's ts
            };
            while (batch.size() < rows_in_batch) {
                const auto i = batch.size();
                batch.push_back({make_key(3), i, static_cast<Value>(i), 0});
            }
            node.insert_batch(batch);
            EXPECT_EQ(node.stats().writes, rows_in_batch);
            // "Crash": destructor without flush; the single batched
            // commit log record holds every row.
        }
        StorageNode recovered({dir.str(), flush_bytes, true});
        EXPECT_EQ(recovered.stats().memtable_rows, rows_in_batch);
        const auto rows = recovered.query(make_key(1), 0, kTimestampMax);
        ASSERT_EQ(rows.size(), 2u);
        EXPECT_EQ(rows[0].value, 42);
        EXPECT_EQ(rows[1].value, 43);
        const auto other = recovered.query(make_key(2), 0, kTimestampMax);
        ASSERT_EQ(other.size(), 1u);
        EXPECT_EQ(other[0].value, 44);
    }
}

// ------------------------------------------------------------ compaction

/// Write one SSTable holding `rows` for `key` at generation `gen`.
std::unique_ptr<SsTable> write_table(const std::string& dir, std::uint64_t gen,
                                     const Key& key,
                                     const std::vector<Row>& rows) {
    std::map<Key, std::vector<Row>> partitions;
    partitions[key] = rows;
    return SsTable::write(dir + "/sstable-" + std::to_string(gen) + ".db",
                          gen, partitions);
}

TEST(Compaction, StreamingWriterRoundTrips) {
    TempDir dir;
    const std::string path = dir.str() + "/sstable-7.db";
    SsTableWriter writer(path, 7, 2);
    writer.begin_partition(make_key(1));
    for (TimestampNs ts = 1; ts <= 5000; ++ts)
        writer.add_row(Row{ts, static_cast<Value>(ts), 0});
    writer.end_partition();
    writer.begin_partition(make_key(2));  // left empty: must be omitted
    writer.end_partition();
    writer.begin_partition(make_key(3));
    writer.add_row(Row{1, 42, 0});
    writer.end_partition();
    const auto table = writer.finish();

    EXPECT_EQ(table->generation(), 7u);
    EXPECT_EQ(table->partition_count(), 2u);
    EXPECT_EQ(table->row_count(), 5001u);
    std::vector<Row> rows;
    table->query(make_key(1), 0, kTimestampMax, rows);
    ASSERT_EQ(rows.size(), 5000u);
    EXPECT_EQ(rows.front().ts, 1u);
    EXPECT_EQ(rows.back().ts, 5000u);

    // The durable publish leaves no temporary behind.
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // Reopen from disk: the streamed layout is the on-disk format.
    const auto reopened = SsTable::open(path);
    EXPECT_EQ(reopened->row_count(), 5001u);
}

TEST(Compaction, WriterRejectsOutOfOrderKeys) {
    TempDir dir;
    SsTableWriter writer(dir.str() + "/sstable-1.db", 1, 2);
    writer.begin_partition(make_key(5));
    writer.add_row(Row{1, 1, 0});
    writer.end_partition();
    EXPECT_THROW(writer.begin_partition(make_key(4)), StoreError);
}

TEST(Compaction, MergeShadowsNewestInputOnEqualTimestamp) {
    TempDir dir;
    const Key k = make_key(1);
    const auto old_table =
        write_table(dir.str(), 1, k, {{100, 1, 0}, {200, 1, 0}});
    const auto new_table =
        write_table(dir.str(), 2, k, {{200, 2, 0}, {300, 2, 0}});

    const auto result = merge_tables({old_table.get(), new_table.get()},
                                     dir.str() + "/merged.db", 2, {});
    ASSERT_NE(result.table, nullptr);
    EXPECT_EQ(result.stats.tables_in, 2u);
    EXPECT_EQ(result.stats.rows_in, 4u);
    EXPECT_EQ(result.stats.rows_out, 3u);

    std::vector<Row> rows;
    result.table->query(k, 0, kTimestampMax, rows);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].value, 1);  // ts 100, only in gen 1
    EXPECT_EQ(rows[1].value, 2);  // ts 200, gen 2 shadows gen 1
    EXPECT_EQ(rows[2].value, 2);  // ts 300, only in gen 2
}

TEST(Compaction, MergeAppliesCutoffAndExpiry) {
    TempDir dir;
    const Key k = make_key(1);
    const TimestampNs now = now_ns();
    // {ts, value, expiry_s}: row 2 expired long ago, rows 1 and 3 live.
    const auto table = write_table(
        dir.str(), 1, k,
        {{100, 1, 0},
         {200, 2, static_cast<std::uint32_t>(now / kNsPerSec - 50)},
         {300, 3, 0}});

    MergeOptions options;
    options.cutoff = 150;  // drops ts 100
    options.now = now;     // drops the expired ts 200
    const auto result =
        merge_tables({table.get()}, dir.str() + "/merged.db", 1, options);
    ASSERT_NE(result.table, nullptr);
    std::vector<Row> rows;
    result.table->query(k, 0, kTimestampMax, rows);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].ts, 300u);
}

TEST(Compaction, MergeWithNoSurvivorsReturnsNullAndRemovesFile) {
    TempDir dir;
    const Key k = make_key(1);
    const auto table = write_table(dir.str(), 1, k, {{100, 1, 0}});
    MergeOptions options;
    options.cutoff = 1000;  // everything cut off
    const std::string out = dir.str() + "/merged.db";
    const auto result = merge_tables({table.get()}, out, 1, options);
    EXPECT_EQ(result.table, nullptr);
    EXPECT_EQ(result.stats.rows_out, 0u);
    EXPECT_FALSE(fs::exists(out));
}

TEST(Compaction, MergeSpansManyPartitionsAndChunks) {
    TempDir dir;
    // Two tables with interleaved keys and >1 chunk of rows per shared
    // partition, so the cursor's chunked reads and the min-key scan both
    // get exercised.
    std::map<Key, std::vector<Row>> a_parts;
    std::map<Key, std::vector<Row>> b_parts;
    for (std::uint8_t tag = 1; tag <= 6; ++tag) {
        std::vector<Row> rows;
        for (TimestampNs ts = 1; ts <= 5000; ++ts)
            rows.push_back(Row{ts, tag, 0});
        if (tag % 2 == 0)
            a_parts[make_key(tag)] = rows;
        else
            b_parts[make_key(tag)] = std::move(rows);
    }
    // One shared partition to merge across both inputs.
    a_parts[make_key(7)] = {{1, 10, 0}, {2, 10, 0}};
    b_parts[make_key(7)] = {{2, 20, 0}, {3, 20, 0}};
    const auto a = SsTable::write(dir.str() + "/sstable-1.db", 1, a_parts);
    const auto b = SsTable::write(dir.str() + "/sstable-2.db", 2, b_parts);

    const auto result =
        merge_tables({a.get(), b.get()}, dir.str() + "/merged.db", 2, {});
    ASSERT_NE(result.table, nullptr);
    EXPECT_EQ(result.table->partition_count(), 7u);
    EXPECT_EQ(result.table->row_count(), 6u * 5000u + 3u);
    std::vector<Row> rows;
    result.table->query(make_key(7), 0, kTimestampMax, rows);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1].value, 20);  // ts 2: b (gen 2, later input) wins
}

TEST(Compaction, SelectSizeTierFindsAdjacentSimilarRun) {
    // Four similar-size tables after a big one: the run [1, 5) qualifies.
    const std::vector<std::uint64_t> sizes{1000, 10, 12, 11, 13};
    const auto tier = select_size_tier(sizes, 4, 2.0);
    EXPECT_EQ(tier.begin, 1u);
    EXPECT_EQ(tier.end, 5u);
}

TEST(Compaction, SelectSizeTierRespectsRatioAndMinTables) {
    // Geometric sizes: no four adjacent tables within 2x of each other.
    EXPECT_TRUE(select_size_tier({1, 4, 16, 64, 256}, 4, 2.0).empty());
    // Three similar tables are not enough for min_tables = 4...
    EXPECT_TRUE(select_size_tier({10, 11, 12}, 4, 2.0).empty());
    // ...but qualify when the policy asks for 3.
    const auto tier = select_size_tier({10, 11, 12}, 3, 2.0);
    EXPECT_EQ(tier.begin, 0u);
    EXPECT_EQ(tier.end, 3u);
}

TEST(Compaction, SelectSizeTierPrefersLongestThenCheapestRun) {
    // Two disjoint runs of length 4; the second rewrites fewer bytes.
    const std::vector<std::uint64_t> sizes{100, 110, 105, 108, 5000,
                                           10,  11,  10,  12};
    const auto tier = select_size_tier(sizes, 4, 2.0);
    EXPECT_EQ(tier.begin, 5u);
    EXPECT_EQ(tier.end, 9u);
}

TEST(StorageNode, MaintainMergesSizeTierAndKeepsOutliers) {
    TempDir dir;
    NodeConfig config;
    config.data_dir = dir.str();
    config.memtable_flush_bytes = 1u << 20;
    config.commitlog_enabled = false;
    config.compaction_min_tables = 3;
    StorageNode node(config);

    // One big table, then three small similar ones.
    const Key k = make_key(1);
    for (TimestampNs ts = 1; ts <= 2000; ++ts) node.insert(k, ts, 1);
    node.flush();
    for (TimestampNs t = 0; t < 3; ++t) {
        for (TimestampNs ts = 3000 + t * 10; ts < 3005 + t * 10; ++ts)
            node.insert(k, ts, 2);
        node.flush();
    }
    ASSERT_EQ(node.stats().sstables, 4u);

    EXPECT_TRUE(node.maintain());
    auto stats = node.stats();
    EXPECT_EQ(stats.sstables, 2u);  // big outlier + merged small tier
    EXPECT_EQ(stats.compactions, 1u);
    EXPECT_EQ(stats.compaction_tables, 3u);
    EXPECT_GT(stats.compaction_bytes, 0u);
    EXPECT_EQ(node.query(k, 0, kTimestampMax).size(), 2015u);

    // Nothing left to merge: the next round is a no-op.
    EXPECT_FALSE(node.maintain());
}

TEST(StorageNode, MidSequenceMergePreservesShadowingAcrossReopen) {
    TempDir dir;
    NodeConfig config;
    config.data_dir = dir.str();
    config.memtable_flush_bytes = 1u << 20;
    config.commitlog_enabled = false;
    config.compaction_min_tables = 2;
    const Key k = make_key(1);
    {
        StorageNode node(config);
        // Two similar small tables, then a BIG newer table shadowing the
        // same timestamp: the tier merge must not let the merged output
        // jump ahead of the newer generation when reopened from disk.
        node.insert(k, 100, 1);
        node.flush();
        node.insert(k, 100, 2);
        node.flush();
        for (TimestampNs ts = 1000; ts <= 3000; ++ts) node.insert(k, ts, 3);
        node.insert(k, 100, 99);  // newest write for ts 100
        node.flush();
        ASSERT_EQ(node.stats().sstables, 3u);

        ASSERT_TRUE(node.maintain());  // merges the two small tables
        ASSERT_EQ(node.stats().sstables, 2u);
        const auto rows = node.query(k, 100, 100);
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].value, 99);
    }
    // Reopen: on-disk generation order must reproduce the shadowing.
    StorageNode reopened(config);
    const auto rows = reopened.query(k, 100, 100);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].value, 99);
}

// An expired write still hides the older copies of its (key, ts). A tier
// merge whose inputs do not start at the oldest table must keep it, or
// an older table's copy comes back.
TEST(StorageNode, TierMergeKeepsAnExpiredRowThatHidesAnOlderCopy) {
    TempDir dir;
    NodeConfig config;
    config.data_dir = dir.str();
    config.memtable_flush_bytes = 1u << 20;
    config.commitlog_enabled = false;
    config.compaction_min_tables = 2;
    StorageNode node(config);
    const Key k = make_key(1);
    node.insert(k, 5, 1);  // table 1, large: no TTL
    for (TimestampNs ts = 1000; ts < 3000; ++ts)
        node.insert(k, ts, static_cast<Value>(ts * 2654435761u));
    node.flush();
    node.insert(k, 5, 2, /*ttl_s=*/1);  // table 2: expired since 1970
    node.flush();
    node.insert(k, 50, 3);  // table 3: filler
    node.flush();
    ASSERT_TRUE(node.query(k, 0, 10).empty());

    ASSERT_TRUE(node.maintain());
    ASSERT_EQ(node.stats().compaction_tables, 2u);  // tables 2 and 3 only
    EXPECT_TRUE(node.query(k, 0, 10).empty())
        << "the tier merge brought back the older copy";

    // A merge from the oldest table drops the expired row and its copy.
    node.compact();
    EXPECT_EQ(node.stats().sstables, 1u);
    EXPECT_TRUE(node.query(k, 0, 10).empty());
    EXPECT_EQ(node.query(k, 0, kTimestampMax).size(), 2001u);
}

TEST(StorageNode, ReopenSweepsLeftoverTemporaries) {
    TempDir dir;
    NodeConfig config;
    config.data_dir = dir.str();
    config.commitlog_enabled = false;
    {
        StorageNode node(config);
        node.insert(make_key(1), 1, 1);
        node.flush();
    }
    // Simulate a crash mid-compaction: a half-written temporary.
    const std::string tmp = dir.str() + "/sstable-9.db.tmp";
    FILE* f = fopen(tmp.c_str(), "wb");
    fwrite("partial", 1, 7, f);
    fclose(f);

    StorageNode reopened(config);
    EXPECT_FALSE(fs::exists(tmp));
    EXPECT_EQ(reopened.query(make_key(1), 0, kTimestampMax).size(), 1u);
}

// --------------------------------------------------------------- cluster

TEST(Cluster, RoutesToPrimaryAndQueriesBack) {
    TempDir dir;
    StoreCluster cluster({dir.str(), 4, 1, "hierarchy", 1u << 20, false});
    for (std::uint8_t tag = 0; tag < 32; ++tag) {
        const Key k = make_key(tag);
        cluster.insert(k, 100, tag);
        const auto rows = cluster.query(k, 0, kTimestampMax);
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].value, tag);
    }
}

TEST(Cluster, ReplicationWritesToMultipleNodes) {
    TempDir dir;
    StoreCluster cluster({dir.str(), 3, 2, "murmur3", 1u << 20, false});
    const Key k = make_key(5);
    cluster.insert(k, 100, 55);
    // Both replicas hold the row.
    EXPECT_EQ(cluster.query_replica(0, k, 0, kTimestampMax).size(), 1u);
    EXPECT_EQ(cluster.query_replica(1, k, 0, kTimestampMax).size(), 1u);
    std::uint64_t writes = 0;
    for (const auto& ns : cluster.stats().per_node) writes += ns.writes;
    EXPECT_EQ(writes, 2u);
}

TEST(Cluster, HierarchyPartitionerGivesFullLocality) {
    TempDir dir;
    StoreCluster cluster({dir.str(), 4, 1, "hierarchy", 1u << 20, false});
    // A writer colocated with the subtree's node always writes locally.
    const Key k = make_key(7);
    const int home = static_cast<int>(cluster.primary_node(k));
    for (int i = 0; i < 100; ++i) {
        Key kk = k;
        kk.sid[12] = static_cast<std::uint8_t>(i);  // vary the leaf level
        kk.bucket = static_cast<std::uint32_t>(i % 10);
        cluster.insert(kk, 100, 1, 0, home);
    }
    const auto stats = cluster.stats();
    EXPECT_EQ(stats.local_writes, 100u);
    EXPECT_EQ(stats.total_writes, 100u);
}

TEST(Cluster, Murmur3PartitionerHasPartialLocality) {
    TempDir dir;
    StoreCluster cluster({dir.str(), 4, 1, "murmur3", 1u << 20, false});
    const Key base = make_key(7);
    const int home = static_cast<int>(cluster.primary_node(base));
    for (int i = 0; i < 200; ++i) {
        Key kk = base;
        kk.sid[12] = static_cast<std::uint8_t>(i);
        kk.bucket = static_cast<std::uint32_t>(i);
        cluster.insert(kk, 100, 1, 0, home);
    }
    const auto stats = cluster.stats();
    EXPECT_LT(stats.local_writes, stats.total_writes)
        << "hash partitioning cannot keep a subtree on one node";
}

TEST(Cluster, BackgroundMaintenanceMergesTiersWhileServing) {
    TempDir dir;
    ClusterConfig config;
    config.base_dir = dir.str();
    config.nodes = 1;
    config.commitlog_enabled = false;
    config.compaction_min_tables = 2;
    StoreCluster cluster(config);

    const Key k = make_key(1);
    for (int t = 0; t < 4; ++t) {
        for (TimestampNs ts = 1; ts <= 50; ++ts)
            cluster.insert(k, static_cast<TimestampNs>(t) * 1000 + ts, 1);
        cluster.flush_all();
    }
    ASSERT_EQ(cluster.stats().per_node[0].sstables, 4u);

    cluster.start_maintenance(std::chrono::milliseconds(2));
    EXPECT_TRUE(cluster.maintenance_running());
    cluster.start_maintenance(std::chrono::milliseconds(2));  // idempotent

    // Wait until the background thread has merged the tier (bounded).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cluster.stats().per_node[0].sstables > 1 &&
           std::chrono::steady_clock::now() < deadline) {
        EXPECT_EQ(cluster.query(k, 0, kTimestampMax).size(), 200u);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cluster.stop_maintenance();
    EXPECT_FALSE(cluster.maintenance_running());
    cluster.stop_maintenance();  // idempotent

    const auto stats = cluster.stats();
    EXPECT_EQ(stats.per_node[0].sstables, 1u);
    EXPECT_GT(stats.per_node[0].compactions, 0u);
    EXPECT_GE(cluster.maintenance_rounds(), 1u);
    EXPECT_EQ(cluster.query(k, 0, kTimestampMax).size(), 200u);
}

TEST(Cluster, InvalidConfigThrows) {
    TempDir dir;
    EXPECT_THROW(StoreCluster({dir.str(), 0, 1, "murmur3", 1024, false}),
                 StoreError);
    EXPECT_THROW(StoreCluster({dir.str(), 2, 3, "murmur3", 1024, false}),
                 StoreError);
}

TEST(Cluster, InsertBatchRoutesPerEntryAndReplicates) {
    TempDir dir;
    StoreCluster cluster({dir.str(), 3, 2, "murmur3", 1u << 20, false});
    std::vector<BatchEntry> batch;
    for (std::uint8_t tag = 0; tag < 5; ++tag)
        for (TimestampNs ts = 1; ts <= 4; ++ts)
            batch.push_back({make_key(tag), ts,
                             static_cast<Value>(tag * 100 + ts), 0});
    cluster.insert_batch(batch);

    for (std::uint8_t tag = 0; tag < 5; ++tag) {
        const Key k = make_key(tag);
        for (std::size_t r = 0; r < 2; ++r) {
            const auto rows = cluster.query_replica(r, k, 0, kTimestampMax);
            ASSERT_EQ(rows.size(), 4u) << "replica " << r << " tag "
                                       << int(tag);
            EXPECT_EQ(rows.back().value, tag * 100 + 4);
        }
    }
    const auto stats = cluster.stats();
    EXPECT_EQ(stats.total_writes, batch.size());
    std::uint64_t per_node = 0;
    for (const auto& ns : stats.per_node) per_node += ns.writes;
    EXPECT_EQ(per_node, batch.size() * 2);  // replication factor
}

// ------------------------------------------------------------- metastore

TEST(MetaStore, PutGetEraseInMemory) {
    MetaStore meta;
    meta.put("a", "1");
    meta.put("b", "2");
    EXPECT_EQ(meta.get("a").value(), "1");
    meta.erase("a");
    EXPECT_FALSE(meta.get("a").has_value());
    EXPECT_EQ(meta.size(), 1u);
}

TEST(MetaStore, PersistsAcrossReopen) {
    TempDir dir;
    const std::string path = dir.str() + "/meta.log";
    {
        MetaStore meta(path);
        meta.put("sensor//sys/node0/power/unit", "W");
        meta.put("sensor//sys/node0/power/scale", "0.001");
        meta.put("doomed", "x");
        meta.erase("doomed");
    }
    MetaStore meta(path);
    EXPECT_EQ(meta.get("sensor//sys/node0/power/unit").value(), "W");
    EXPECT_EQ(meta.size(), 2u);
    EXPECT_FALSE(meta.contains("doomed"));
}

TEST(MetaStore, EmptyValueIsNotATombstone) {
    TempDir dir;
    const std::string path = dir.str() + "/meta.log";
    {
        MetaStore meta(path);
        meta.put("empty", "");
    }
    MetaStore meta(path);
    ASSERT_TRUE(meta.get("empty").has_value());
    EXPECT_EQ(meta.get("empty").value(), "");
}

TEST(MetaStore, ScanPrefixSorted) {
    MetaStore meta;
    meta.put("vs//b", "2");
    meta.put("vs//a", "1");
    meta.put("other", "x");
    const auto hits = meta.scan_prefix("vs/");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].first, "vs//a");
    EXPECT_EQ(hits[1].first, "vs//b");
}

// ------------------------------------------- cluster configuration sweep

struct ClusterParam {
    std::size_t nodes;
    std::size_t replication;
    const char* partitioner;
};

// Prints a shape as, e.g., n2_r1_murmur3. ctest names each case by this
// value; by default it would be the parameter's bytes, the partitioner
// pointer's among them, which change from build to build.
void PrintTo(const ClusterParam& param, std::ostream* os) {
    *os << 'n' << param.nodes << "_r" << param.replication << '_'
        << param.partitioner;
}

class ClusterSweep : public ::testing::TestWithParam<ClusterParam> {};

// Inserts must be retrievable from every replica under every supported
// cluster shape, with total write amplification = replication factor.
TEST_P(ClusterSweep, InsertQueryAcrossConfigurations) {
    const auto param = GetParam();
    TempDir dir;
    StoreCluster cluster({dir.str(), param.nodes, param.replication,
                          param.partitioner, 1u << 20, false});

    constexpr int kSensors = 24;
    constexpr int kReadings = 20;
    for (int s = 0; s < kSensors; ++s) {
        const Key k = make_key(static_cast<std::uint8_t>(s));
        for (int i = 1; i <= kReadings; ++i)
            cluster.insert(k, static_cast<TimestampNs>(i),
                           static_cast<Value>(s * 1000 + i));
    }
    cluster.flush_all();
    cluster.compact_all();

    std::uint64_t total_writes = 0;
    for (const auto& ns : cluster.stats().per_node) total_writes += ns.writes;
    EXPECT_EQ(total_writes,
              static_cast<std::uint64_t>(kSensors) * kReadings *
                  param.replication);

    for (int s = 0; s < kSensors; ++s) {
        const Key k = make_key(static_cast<std::uint8_t>(s));
        for (std::size_t r = 0; r < param.replication; ++r) {
            const auto rows = cluster.query_replica(r, k, 0, kTimestampMax);
            ASSERT_EQ(rows.size(), static_cast<std::size_t>(kReadings))
                << "replica " << r << " sensor " << s;
            EXPECT_EQ(rows.back().value, s * 1000 + kReadings);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterSweep,
    ::testing::Values(ClusterParam{1, 1, "hierarchy"},
                      ClusterParam{2, 1, "murmur3"},
                      ClusterParam{3, 2, "hierarchy"},
                      ClusterParam{4, 3, "murmur3"},
                      ClusterParam{5, 1, "hierarchy"},
                      ClusterParam{8, 2, "murmur3"}));

}  // namespace
}  // namespace dcdb::store
