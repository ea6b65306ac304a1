// Property-based tests: randomized workloads checked against reference
// models, parameterized over seeds (TEST_P / INSTANTIATE_TEST_SUITE_P).
// These hunt for invariant violations that example-based tests miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>

#include "common/bytebuf.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/payload.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "libdcdb/expression.hpp"
#include "mqtt/packet.hpp"
#include "mqtt/topic.hpp"
#include "store/node.hpp"
#include "store/tsblock.hpp"
#include "telemetry/trace.hpp"

namespace dcdb {
namespace {

namespace fs = std::filesystem;

class Seeded : public ::testing::TestWithParam<std::uint64_t> {
  protected:
    std::uint64_t seed() const { return GetParam(); }
};

// =============================================================== storage

class StoreProperty : public Seeded {};

// The storage node must behave exactly like a map<ts, value> per key,
// regardless of how inserts interleave with flushes, compactions, tier
// merges, purges and restarts. An insert whose TTL has already passed
// deletes its (key, ts) in the model: it hides every older copy, and a
// merge may drop it only together with them. A batch of runs applies
// its rows in order, so of equal timestamps the later row wins.
TEST_P(StoreProperty, RandomWorkloadMatchesReferenceModel) {
    const auto dir = fs::temp_directory_path() /
                     ("dcdb_prop_store_" + std::to_string(::getpid()) + "_" +
                      std::to_string(seed()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    Rng rng(seed());
    using Model = std::map<store::Key, std::map<TimestampNs, Value>>;
    Model model;

    auto random_key = [&rng] {
        store::Key k;
        k.sid[0] = static_cast<std::uint8_t>(rng.below(4));  // few partitions
        k.bucket = static_cast<std::uint32_t>(rng.below(2));
        return k;
    };

    store::NodeConfig config{dir.string(), 16u << 10, true};
    config.compaction_min_tables = 2;
    auto node = std::make_unique<store::StorageNode>(config);
    std::vector<store::Row> run_rows;
    std::vector<store::Mutation> runs;

    for (int op = 0; op < 2000; ++op) {
        const double dice = rng.uniform();
        if (dice < 0.55) {
            const store::Key key = random_key();
            const TimestampNs ts = 1 + rng.below(500);
            const Value value = static_cast<Value>(rng.next_u64() % 1000);
            node->insert(key, ts, value);
            model[key][ts] = value;
        } else if (dice < 0.70) {
            // Runs over one to three keys (a key may repeat), each
            // starting past the key's newest row or anywhere before it,
            // ascending with now and then a rewrite of the row before.
            constexpr std::size_t kMaxRun = 16;
            const std::size_t count = 1 + rng.below(3);
            run_rows.resize(count * kMaxRun);
            runs.clear();
            for (std::size_t r = 0; r < count; ++r) {
                const store::Key key = random_key();
                const auto& rows = model[key];
                TimestampNs ts = rng.below(2) == 0 && !rows.empty()
                                     ? rows.rbegin()->first + 1
                                     : 1 + rng.below(500);
                const std::size_t n = 1 + rng.below(kMaxRun);
                for (std::size_t i = 0; i < n; ++i) {
                    run_rows[r * kMaxRun + i] = store::Row{
                        ts, static_cast<Value>(rng.next_u64() % 1000), 0};
                    ts += rng.below(3);
                }
                runs.push_back({key, std::span<const store::Row>(run_rows)
                                         .subspan(r * kMaxRun, n)});
            }
            node->insert_batch(runs);
            for (const auto& run : runs)
                for (const auto& row : run.rows) model[run.key][row.ts] = row.value;
        } else if (dice < 0.78) {
            // ttl_s 1 at these nanosecond timestamps expired in 1970.
            const store::Key key = random_key();
            const TimestampNs ts = 1 + rng.below(500);
            node->insert(key, ts, static_cast<Value>(op), /*ttl_s=*/1);
            model[key].erase(ts);
        } else if (dice < 0.85) {
            node->flush();
        } else if (dice < 0.88) {
            node->compact();
        } else if (dice < 0.94) {
            node->maintain();
        } else if (dice < 0.95) {
            const TimestampNs cutoff = 1 + rng.below(250);
            node->truncate_before(cutoff);
            for (auto& [key, rows] : model)
                rows.erase(rows.begin(), rows.lower_bound(cutoff));
        } else {
            // Crash-free restart: everything must survive via commit log
            // and SSTables.
            node.reset();
            node = std::make_unique<store::StorageNode>(config);
        }

        // Spot-check a random range query against the model.
        if (op % 97 == 0) {
            const store::Key key = random_key();
            TimestampNs lo = rng.below(500), hi = rng.below(500);
            if (lo > hi) std::swap(lo, hi);
            const auto got = node->query(key, lo, hi);
            std::vector<std::pair<TimestampNs, Value>> expect;
            for (const auto& [ts, v] : model[key]) {
                if (ts >= lo && ts <= hi) expect.emplace_back(ts, v);
            }
            ASSERT_EQ(got.size(), expect.size())
                << "op " << op << " range [" << lo << "," << hi << "]";
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].ts, expect[i].first);
                EXPECT_EQ(got[i].value, expect[i].second);
            }
        }
    }

    // Final full verification of every partition.
    for (const auto& [key, rows] : model) {
        const auto got = node->query(key, 0, kTimestampMax);
        ASSERT_EQ(got.size(), rows.size());
        auto it = rows.begin();
        for (const auto& row : got) {
            EXPECT_EQ(row.ts, it->first);
            EXPECT_EQ(row.value, it->second);
            ++it;
        }
    }
    node.reset();
    fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ================================================================== MQTT

class MqttCodecProperty : public Seeded {};

mqtt::Packet random_packet(Rng& rng) {
    switch (rng.below(6)) {
        case 0: {
            mqtt::Connect c;
            c.client_id = "client" + std::to_string(rng.below(100000));
            c.keepalive_s = static_cast<std::uint16_t>(rng.below(65536));
            c.clean_session = rng.below(2) == 0;
            return c;
        }
        case 1: {
            mqtt::Publish p;
            const int levels = 1 + static_cast<int>(rng.below(7));
            for (int i = 0; i < levels; ++i)
                p.topic += "/l" + std::to_string(rng.below(50));
            p.qos = static_cast<std::uint8_t>(rng.below(2));
            if (p.qos)
                p.packet_id =
                    static_cast<std::uint16_t>(1 + rng.below(65535));
            p.retain = rng.below(2) == 0;
            const std::size_t n = rng.below(300);
            p.payload.resize(n);
            for (auto& b : p.payload)
                b = static_cast<std::uint8_t>(rng.below(256));
            return p;
        }
        case 2:
            return mqtt::Puback{
                static_cast<std::uint16_t>(1 + rng.below(65535))};
        case 3: {
            mqtt::Subscribe s;
            s.packet_id = static_cast<std::uint16_t>(1 + rng.below(65535));
            const int n = 1 + static_cast<int>(rng.below(4));
            for (int i = 0; i < n; ++i)
                s.filters.emplace_back("/f" + std::to_string(rng.below(50)) +
                                           (rng.below(2) ? "/#" : "/+"),
                                       static_cast<std::uint8_t>(rng.below(2)));
            return s;
        }
        case 4: {
            mqtt::Suback s;
            s.packet_id = static_cast<std::uint16_t>(1 + rng.below(65535));
            const int n = 1 + static_cast<int>(rng.below(4));
            for (int i = 0; i < n; ++i)
                s.return_codes.push_back(rng.below(2) ? 0x00 : 0x80);
            return s;
        }
        default:
            return mqtt::Pingreq{};
    }
}

TEST_P(MqttCodecProperty, EncodeDecodeRoundTripsArbitraryPackets) {
    Rng rng(seed());
    for (int i = 0; i < 500; ++i) {
        const mqtt::Packet original = random_packet(rng);
        const auto bytes = mqtt::encode(original);
        ByteReader r(bytes);
        const std::uint8_t first = r.u8();
        const std::uint32_t remaining = r.varint();
        ASSERT_EQ(r.remaining(), remaining) << "length field must be exact";
        const mqtt::Packet decoded = mqtt::decode(first, r.bytes(remaining));
        ASSERT_EQ(mqtt::packet_type(decoded), mqtt::packet_type(original));
        if (const auto* p = std::get_if<mqtt::Publish>(&original)) {
            const auto& q = std::get<mqtt::Publish>(decoded);
            EXPECT_EQ(q.topic, p->topic);
            EXPECT_EQ(q.payload, p->payload);
            EXPECT_EQ(q.qos, p->qos);
            EXPECT_EQ(q.retain, p->retain);
            if (p->qos) {
                EXPECT_EQ(q.packet_id, p->packet_id);
            }
        }
    }
}

TEST_P(MqttCodecProperty, DecoderNeverCrashesOnFuzzedBytes) {
    Rng rng(seed() * 31 + 7);
    for (int i = 0; i < 3000; ++i) {
        std::vector<std::uint8_t> junk(rng.below(64));
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
        const std::uint8_t first = static_cast<std::uint8_t>(rng.below(256));
        try {
            (void)mqtt::decode(first, junk);
        } catch (const ProtocolError&) {
            // Rejecting malformed input is the expected outcome.
        }
    }
    SUCCEED();
}

TEST_P(MqttCodecProperty, TopicMatchReflexiveAndHashSupersetOfPlus) {
    Rng rng(seed() * 131 + 3);
    for (int i = 0; i < 300; ++i) {
        std::string topic;
        const int levels = 1 + static_cast<int>(rng.below(6));
        for (int l = 0; l < levels; ++l)
            topic += "/t" + std::to_string(rng.below(9));
        // Every valid topic matches itself.
        EXPECT_TRUE(topic_matches(topic, topic));
        // Replacing any one level with '+' still matches.
        auto parts = topic_levels(topic);
        const std::size_t idx = 1 + rng.below(parts.size() - 1);
        parts[idx] = "+";
        std::string plus;
        for (std::size_t l = 1; l < parts.size(); ++l) plus += "/" + parts[l];
        EXPECT_TRUE(topic_matches(plus, topic)) << plus << " vs " << topic;
        // Truncating at any level and appending '#' matches.
        std::string hash;
        for (std::size_t l = 1; l <= idx; ++l) hash += "/" + parts[l] ;
        hash = hash.substr(0, hash.rfind('/')) + "/#";
        EXPECT_TRUE(topic_matches(hash, topic)) << hash << " vs " << topic;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MqttCodecProperty,
                         ::testing::Values(11, 12, 13, 14));

// ========================================================== sensor cache

class CacheProperty : public Seeded {};

// Random pushes (pending or not), peeks, releases (some with stale
// ends), cap overflows and timestamp jumps across the window, against two
// references: every reading ever pushed (the window), and a deque of the
// pending readings capped at kMaxPending.
TEST_P(CacheProperty, MatchesReferenceDequeSemantics) {
    constexpr TimestampNs kWindow = 50 * kNsPerSec;
    constexpr std::size_t kCap = SensorCache::kMaxPending;
    Rng rng(seed());
    SensorCache cache(kWindow, kNsPerSec);
    std::vector<Reading> reference;   // all readings ever pushed, in order
    std::deque<Reading> pending_ref;  // the pending readings
    std::uint64_t head_seq = 0;       // sequence number of its front
    std::vector<std::uint64_t> ends;  // the ends of earlier peeks
    std::uint64_t in = 0, pushed = 0, dropped = 0;

    TimestampNs ts = 0;
    for (int phase = 0; phase < 12; ++phase) {
        // Phase 0 is an outage that overflows the cap; later phases mix
        // pending and cache-only pushes with more or fewer releases.
        // Some phases sample 30x faster than the ring's hint, so the
        // window alone outgrows it.
        const std::uint64_t pending_pct = phase == 0 ? 100 : rng.below(3) * 50;
        const std::uint64_t release_pct = phase == 0 ? 0 : rng.below(3) * 10;
        const TimestampNs step = rng.below(3) == 0 ? 100 * kNsPerMs
                                                   : 3 * kNsPerSec;
        const int steps = phase == 0 ? static_cast<int>(kCap) + 700 : 1000;
        for (int i = 0; i < steps; ++i) {
            ts += 1 + rng.below(step);
            if (rng.below(500) == 0) ts += kWindow * (1 + rng.below(3));
            const Reading r{ts, static_cast<Value>(rng.next_u64() % 100000)};
            const bool pending = rng.below(100) < pending_pct;
            bool ref_dropped = false;
            if (pending || !pending_ref.empty()) {
                ++in;
                if (pending_ref.size() == kCap) {
                    pending_ref.pop_front();
                    ++head_seq;
                    ref_dropped = true;
                }
                pending_ref.push_back(r);
            }
            const bool cap_dropped = cache.push(r, pending);
            ASSERT_EQ(cap_dropped, ref_dropped) << "at push " << i;
            dropped += cap_dropped ? 1 : 0;
            reference.push_back(r);

            ASSERT_TRUE(cache.latest().has_value());
            EXPECT_EQ(*cache.latest(), reference.back());
            ASSERT_EQ(cache.pending(), pending_ref.size());

            if (rng.below(100) < 10) {
                std::vector<Reading> peeked = {{1, 1}};
                std::uint64_t end = 0;
                ASSERT_EQ(cache.peek_pending(peeked, end), pending_ref.size());
                ASSERT_EQ(end, head_seq + pending_ref.size());
                ASSERT_TRUE(std::equal(peeked.begin() + 1, peeked.end(),
                                       pending_ref.begin(), pending_ref.end()))
                    << "peek at push " << i;
                ends.push_back(end);
            }
            if (!ends.empty() && rng.below(100) < release_pct) {
                // The newest peek's end, or a stale one.
                const std::uint64_t end =
                    rng.below(4) == 0 ? ends[rng.below(ends.size())]
                                      : ends.back();
                const std::uint64_t ahead = end > head_seq ? end - head_seq : 0;
                const auto n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(ahead, pending_ref.size()));
                pending_ref.erase(pending_ref.begin(),
                                  pending_ref.begin() +
                                      static_cast<std::ptrdiff_t>(n));
                head_seq += n;
                ASSERT_EQ(cache.release_pending(end), n) << "at push " << i;
                pushed += n;
                if (ends.size() > 16) ends.erase(ends.begin());
            }
            ASSERT_EQ(in, pushed + dropped + cache.pending());

            if (i % 53 == 0) {
                // Every reading within the window must be present.
                const TimestampNs cutoff = ts >= kWindow ? ts - kWindow : 0;
                const auto view = cache.view(cutoff, ts);
                std::vector<Reading> expect;
                double sum = 0;
                for (const auto& x : reference) {
                    if (x.ts < cutoff) continue;
                    expect.push_back(x);
                    sum += static_cast<double>(x.value);
                }
                ASSERT_EQ(view.size(), expect.size()) << "at push " << i;
                EXPECT_EQ(view, expect);
                EXPECT_DOUBLE_EQ(*cache.average(kWindow),
                                 sum / static_cast<double>(expect.size()));
            }
        }
    }
    EXPECT_GT(dropped, 0u) << "the cap never overflowed";
    EXPECT_GT(pushed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperty,
                         ::testing::Values(21, 22, 23, 24));

// =========================================================== expressions

class ExpressionProperty : public Seeded {};

lib::ExprPtr random_expr(Rng& rng, int depth) {
    auto node = std::make_unique<lib::ExprNode>();
    if (depth <= 0 || rng.below(3) == 0) {
        if (rng.below(2) == 0) {
            node->kind = lib::ExprNode::Kind::kNumber;
            node->number = rng.uniform(-100.0, 100.0);
        } else {
            node->kind = lib::ExprNode::Kind::kSensor;
            node->name = "/s/t" + std::to_string(rng.below(5));
        }
        return node;
    }
    switch (rng.below(3)) {
        case 0:
            node->kind = lib::ExprNode::Kind::kUnary;
            node->op = '-';
            node->lhs = random_expr(rng, depth - 1);
            return node;
        case 1: {
            node->kind = lib::ExprNode::Kind::kCall;
            node->name = rng.below(2) ? "min" : "max";
            node->args.push_back(random_expr(rng, depth - 1));
            node->args.push_back(random_expr(rng, depth - 1));
            return node;
        }
        default: {
            static const char ops[] = {'+', '-', '*', '/'};
            node->kind = lib::ExprNode::Kind::kBinary;
            node->op = ops[rng.below(4)];
            node->lhs = random_expr(rng, depth - 1);
            node->rhs = random_expr(rng, depth - 1);
            return node;
        }
    }
}

TEST_P(ExpressionProperty, PrintParseEvaluateFixpoint) {
    Rng rng(seed());
    const auto resolve = [](const std::string& topic) {
        return static_cast<double>(topic.back() - '0') * 7.5 + 1.0;
    };
    for (int i = 0; i < 300; ++i) {
        const auto expr = random_expr(rng, 4);
        const std::string text = lib::expression_to_string(*expr);
        const auto reparsed = lib::parse_expression(text);
        const double a = lib::evaluate_expression(*expr, resolve);
        const double b = lib::evaluate_expression(*reparsed, resolve);
        if (std::isfinite(a) && std::abs(a) < 1e12) {
            // to_string prints ~6 significant digits for literals, so
            // allow relative slack.
            EXPECT_NEAR(b, a, std::abs(a) * 1e-4 + 1e-4) << text;
        }
        // Operand extraction is stable across the round trip.
        EXPECT_EQ(lib::expression_operands(*reparsed),
                  lib::expression_operands(*expr));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpressionProperty,
                         ::testing::Values(31, 32, 33));

// ================================================================= units

class UnitProperty : public Seeded {};

TEST_P(UnitProperty, ConversionRoundTripsWithinDimension) {
    Rng rng(seed());
    static const char* kGroups[][5] = {
        {"uW", "mW", "W", "kW", "MW"},
        {"C", "degC", "mC", "K", "F"},
        {"B", "KB", "MB", "KiB", "MiB"},
        {"ns", "us", "ms", "s", "min"},
        {"uJ", "mJ", "J", "Wh", "kWh"},
    };
    for (int i = 0; i < 1000; ++i) {
        const auto& group = kGroups[rng.below(std::size(kGroups))];
        const Unit a = parse_unit(group[rng.below(5)]);
        const Unit b = parse_unit(group[rng.below(5)]);
        const double value = rng.uniform(-1e6, 1e6);
        const double there = convert_unit(value, a, b);
        const double back = convert_unit(there, b, a);
        EXPECT_NEAR(back, value, std::abs(value) * 1e-9 + 1e-9)
            << a.name << " -> " << b.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitProperty, ::testing::Values(41, 42));

// =========================================================== SID mapping

class SidProperty : public Seeded {};

TEST_P(SidProperty, RandomTopicSetStaysBijective) {
    Rng rng(seed());
    store::MetaStore meta;
    TopicMapper mapper(meta);
    std::map<std::string, SensorId> assigned;
    std::map<std::string, std::string> hex_to_topic;

    for (int i = 0; i < 1500; ++i) {
        std::string topic;
        const int levels = 1 + static_cast<int>(rng.below(8));
        for (int l = 0; l < levels; ++l)
            topic += "/c" + std::to_string(rng.below(12));

        const SensorId sid = mapper.to_sid(topic);
        const auto known = assigned.find(topic);
        if (known != assigned.end()) {
            EXPECT_EQ(sid, known->second) << "mapping must be stable";
        } else {
            assigned[topic] = sid;
            const auto clash = hex_to_topic.find(sid.hex());
            ASSERT_TRUE(clash == hex_to_topic.end())
                << "SID collision: " << topic << " vs " << clash->second;
            hex_to_topic[sid.hex()] = topic;
        }
        EXPECT_EQ(mapper.to_topic(sid), topic);
    }
}

namespace {

/// `levels` joined by runs of 1-3 slashes, with 0-2 leading and 0-2
/// trailing slashes: one of the spellings normalize_sensor_topic folds
/// into "/l0/l1/...".
std::string random_spelling(Rng& rng, const std::vector<std::string>& levels) {
    std::string out(rng.below(3), '/');
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (i > 0) out.append(1 + rng.below(3), '/');
        out += levels[i];
    }
    out.append(rng.below(3), '/');
    return out;
}

}  // namespace

// The known-topic fast path splits the raw spelling itself; it must land
// on the SID the first (normalizing) sighting allocated.
TEST_P(SidProperty, UnnormalizedSpellingsHitTheFirstSid) {
    Rng rng(seed());
    store::MetaStore meta;
    TopicMapper mapper(meta);
    for (const char* spelling : {"a/b", "//a//b/", "/a/b/"}) {
        SensorId looked_up;
        EXPECT_EQ(mapper.to_sid(spelling), mapper.to_sid("/a/b"));
        ASSERT_TRUE(mapper.lookup(spelling, looked_up));
        EXPECT_EQ(looked_up, mapper.to_sid("/a/b"));
    }

    std::map<std::string, SensorId> first;
    for (int i = 0; i < 500; ++i) {
        std::vector<std::string> levels(1 + rng.below(kSidLevels));
        std::string normalized;
        for (auto& level : levels) {
            level = "c" + std::to_string(rng.below(6));
            normalized += "/" + level;
        }
        const std::string spelling = random_spelling(rng, levels);
        const SensorId sid = mapper.to_sid(spelling);
        const auto [it, fresh] = first.emplace(normalized, sid);
        EXPECT_EQ(sid, it->second) << spelling << " vs " << normalized;
        SensorId looked_up;
        ASSERT_TRUE(mapper.lookup(random_spelling(rng, levels), looked_up));
        EXPECT_EQ(looked_up, it->second) << normalized;
        EXPECT_EQ(mapper.to_topic(sid), normalized);
    }
    EXPECT_EQ(mapper.known_topics(), first.size() + 1);  // + "/a/b"
    EXPECT_EQ(meta.scan_prefix("topics/").size(), first.size() + 1);
}

// Depth is checked before the fast path: a known 8-level topic with a
// 9th level appended is still rejected, however it is spelled.
TEST_P(SidProperty, NinthLevelStillThrowsOnceEightAreKnown) {
    Rng rng(seed());
    store::MetaStore meta;
    TopicMapper mapper(meta);
    std::vector<std::string> levels;
    for (std::size_t i = 0; i < kSidLevels; ++i)
        levels.push_back("l" + std::to_string(rng.below(100)));
    const SensorId eight = mapper.to_sid(random_spelling(rng, levels));
    EXPECT_EQ(mapper.to_sid(random_spelling(rng, levels)), eight);

    levels.push_back("extra");
    SensorId unused;
    for (int i = 0; i < 20; ++i) {
        const std::string nine = random_spelling(rng, levels);
        EXPECT_THROW(mapper.to_sid(nine), Error) << nine;
        EXPECT_FALSE(mapper.lookup(nine, unused)) << nine;
    }
    EXPECT_EQ(mapper.known_topics(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SidProperty, ::testing::Values(51, 52, 53));

// ========================================================= batch payload

class PayloadProperty : public Seeded {};

namespace {

std::vector<Reading> random_readings(Rng& rng, std::size_t n) {
    std::vector<Reading> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Realistic timestamps stay far below the 0xDB.. range that
        // would alias the v1 batch magic (year ~2400+).
        const TimestampNs ts = 1 + rng.below(1ull << 60);
        out.push_back({ts, static_cast<Value>(rng.next_u64())});
    }
    return out;
}

std::vector<Reading> flatten(const BatchPayloadView& view) {
    std::vector<Reading> out;
    for (const auto& section : view.sections)
        for (std::size_t i = 0; i < section.readings.size(); ++i)
            out.push_back(section.readings[i]);
    return out;
}

}  // namespace

TEST_P(PayloadProperty, BatchRoundTripsArbitrarySections) {
    Rng rng(seed());
    std::vector<std::string> topics;
    std::vector<std::vector<Reading>> readings;
    const std::size_t n_sections = 1 + rng.below(8);
    for (std::size_t s = 0; s < n_sections; ++s) {
        topics.push_back("/prop/node" + std::to_string(rng.below(4)) +
                         "/s" + std::to_string(s));
        readings.push_back(random_readings(rng, rng.below(50)));
    }
    std::vector<SensorBatch> batches;
    for (std::size_t s = 0; s < n_sections; ++s)
        batches.push_back({topics[s], readings[s]});

    const auto payload = encode_batch(batches);
    ASSERT_TRUE(is_batch_payload(payload));

    BatchPayloadView view;
    decode_batch(payload, view);
    EXPECT_EQ(view.torn_bytes, 0u);
    ASSERT_EQ(view.sections.size(), n_sections);
    std::size_t total = 0;
    for (std::size_t s = 0; s < n_sections; ++s) {
        EXPECT_EQ(view.sections[s].topic, topics[s]);
        ASSERT_EQ(view.sections[s].readings.size(), readings[s].size());
        for (std::size_t i = 0; i < readings[s].size(); ++i) {
            EXPECT_EQ(view.sections[s].readings[i].ts, readings[s][i].ts);
            EXPECT_EQ(view.sections[s].readings[i].value,
                      readings[s][i].value);
        }
        total += readings[s].size();
    }
    EXPECT_EQ(view.total_readings, total);
}

// The in-place encoder sizes first and stores in place; its bytes must
// equal the format as a ByteWriter spells it out, trailer included, even
// in a reused buffer full of an older payload's bytes.
TEST_P(PayloadProperty, InPlaceEncoderMatchesByteWriterReference) {
    Rng rng(seed());
    std::vector<std::uint8_t> reused;
    for (int round = 0; round < 20; ++round) {
        std::vector<std::string> topics;
        std::vector<std::vector<Reading>> readings;
        const std::size_t n_sections = rng.below(12);
        for (std::size_t s = 0; s < n_sections; ++s) {
            topics.push_back("/prop/n" + std::to_string(rng.below(100)) +
                             std::string(rng.below(40), 'x'));
            readings.push_back(random_readings(rng, rng.below(40)));
        }
        std::vector<SensorBatch> batches;
        for (std::size_t s = 0; s < n_sections; ++s)
            batches.push_back({topics[s], readings[s]});
        telemetry::trace::TraceContext trace;
        if (rng.below(2) == 0) {
            trace.trace_id = 1 + rng.below(1ull << 62);
            trace.origin_ns = rng.next_u64();
            trace.flags = static_cast<std::uint8_t>(rng.below(4));
        }

        ByteWriter ref;
        ref.u8(kBatchPayloadMagic);
        ref.u8(kBatchPayloadVersion);
        ref.u16be(static_cast<std::uint16_t>(n_sections));
        for (std::size_t s = 0; s < n_sections; ++s) {
            ref.mqtt_str(topics[s]);
            ref.u32be(static_cast<std::uint32_t>(readings[s].size()));
            for (const auto& r : readings[s]) {
                ref.u64be(r.ts);
                ref.i64be(r.value);
            }
        }
        if (trace.valid()) {
            ref.u8(telemetry::trace::kTrailerMagic);
            ref.u8(telemetry::trace::kTrailerVersion);
            ref.u64be(trace.trace_id);
            ref.u64be(trace.origin_ns);
            ref.u8(trace.flags);
        }

        // Dirty the reused buffer: garbage, sometimes longer than the
        // payload about to be written.
        reused.resize(rng.below(2 * ref.size() + 8));
        for (auto& b : reused) b = static_cast<std::uint8_t>(rng.below(256));
        encode_batch(batches, trace, reused);
        EXPECT_EQ(reused, ref.data()) << "round " << round;
        EXPECT_EQ(encode_batch(batches, trace), ref.data());
    }
}

TEST_P(PayloadProperty, TruncatedBatchSalvagesExactPrefix) {
    Rng rng(seed());
    std::vector<std::vector<Reading>> readings;
    std::vector<std::string> topics;
    std::vector<SensorBatch> batches;
    const std::size_t n_sections = 1 + rng.below(5);
    for (std::size_t s = 0; s < n_sections; ++s) {
        topics.push_back("/prop/t" + std::to_string(s));
        readings.push_back(random_readings(rng, 1 + rng.below(20)));
    }
    for (std::size_t s = 0; s < n_sections; ++s)
        batches.push_back({topics[s], readings[s]});
    const auto payload = encode_batch(batches);

    std::vector<Reading> all;
    for (const auto& r : readings) all.insert(all.end(), r.begin(), r.end());

    // Cut anywhere past the header: decode must never throw, and what it
    // returns must be exactly a prefix of the original reading sequence.
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t cut =
            kBatchHeaderBytes + rng.below(payload.size() - kBatchHeaderBytes + 1);
        BatchPayloadView view;
        decode_batch(std::span<const std::uint8_t>(payload.data(), cut),
                     view);
        const auto got = flatten(view);
        ASSERT_LE(got.size(), all.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].ts, all[i].ts);
            EXPECT_EQ(got[i].value, all[i].value);
        }
        if (cut < payload.size()) {
            // No trailer and no empty section: every cut loses a reading.
            EXPECT_LT(got.size(), all.size());
        }
        if (cut == payload.size()) {
            EXPECT_EQ(got.size(), all.size());
            EXPECT_EQ(view.torn_bytes, 0u);
        }
    }
}

TEST_P(PayloadProperty, V0ViewMatchesLegacyDecoderAndSalvagesTails) {
    Rng rng(seed());
    const auto readings = random_readings(rng, rng.below(64));
    auto payload = encode_readings(readings);

    const auto legacy = decode_readings(payload);
    const auto salvage = decode_readings_view(payload);
    EXPECT_FALSE(is_batch_payload(payload));
    EXPECT_EQ(salvage.torn_bytes, 0u);
    ASSERT_EQ(salvage.readings.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(salvage.readings[i].ts, legacy[i].ts);
        EXPECT_EQ(salvage.readings[i].value, legacy[i].value);
    }

    // A torn tail keeps the aligned prefix and reports the tail size.
    const std::size_t tail = 1 + rng.below(kReadingWireBytes - 1);
    payload.resize(payload.size() + tail, 0xEE);
    const auto torn = decode_readings_view(payload);
    EXPECT_EQ(torn.readings.size(), readings.size());
    EXPECT_EQ(torn.torn_bytes, tail);
}

TEST_P(PayloadProperty, TraceTrailerRoundTripsThroughBatch) {
    Rng rng(seed());
    std::vector<std::string> topics;
    std::vector<std::vector<Reading>> readings;
    std::vector<SensorBatch> batches;
    const std::size_t n_sections = 1 + rng.below(6);
    for (std::size_t s = 0; s < n_sections; ++s) {
        topics.push_back("/prop/trace" + std::to_string(s));
        readings.push_back(random_readings(rng, rng.below(30)));
    }
    for (std::size_t s = 0; s < n_sections; ++s)
        batches.push_back({topics[s], readings[s]});
    telemetry::trace::TraceContext ctx;
    ctx.trace_id = rng.next_u64() | 1;  // nonzero
    ctx.origin_ns = rng.next_u64();
    ctx.flags = static_cast<std::uint8_t>(
        telemetry::trace::kFlagSampled |
        (rng.below(2) ? telemetry::trace::kFlagForced : 0));

    const auto payload = encode_batch(batches, ctx);
    ASSERT_TRUE(is_batch_payload(payload));
    // The broker-side tail probe sees the same context.
    const auto peeked = telemetry::trace::peek_trailer(payload);
    EXPECT_EQ(peeked.trace_id, ctx.trace_id);
    EXPECT_EQ(peeked.origin_ns, ctx.origin_ns);
    EXPECT_EQ(peeked.flags, ctx.flags);

    BatchPayloadView view;
    decode_batch(payload, view);
    EXPECT_EQ(view.torn_bytes, 0u);
    EXPECT_EQ(view.trace.trace_id, ctx.trace_id);
    EXPECT_EQ(view.trace.origin_ns, ctx.origin_ns);
    EXPECT_EQ(view.trace.flags, ctx.flags);
    // The trailer must not perturb the data itself.
    ASSERT_EQ(view.sections.size(), n_sections);
    std::size_t total = 0;
    for (std::size_t s = 0; s < n_sections; ++s) {
        EXPECT_EQ(view.sections[s].topic, topics[s]);
        ASSERT_EQ(view.sections[s].readings.size(), readings[s].size());
        total += readings[s].size();
    }
    EXPECT_EQ(view.total_readings, total);
}

TEST_P(PayloadProperty, TrailerlessBatchDecodesWithoutTrace) {
    Rng rng(seed());
    std::vector<SensorBatch> batches;
    std::vector<Reading> readings = random_readings(rng, 1 + rng.below(30));
    batches.push_back({"/prop/notrace", readings});

    const auto payload = encode_batch(batches);  // v1 without a trailer
    EXPECT_FALSE(telemetry::trace::peek_trailer(payload).valid());

    BatchPayloadView view;
    // Poison the view's trace: a prior decode of a traced payload into
    // the same (thread_local, in the agent) view must not leak through.
    view.trace.trace_id = 0xBAD;
    decode_batch(payload, view);
    EXPECT_FALSE(view.trace.valid());
    EXPECT_EQ(view.torn_bytes, 0u);
    ASSERT_EQ(view.sections.size(), 1u);
    EXPECT_EQ(view.sections[0].readings.size(), readings.size());
}

TEST_P(PayloadProperty, TornTrailerNeverMisattributesTrace) {
    Rng rng(seed());
    std::vector<SensorBatch> batches;
    std::vector<std::vector<Reading>> readings;
    std::vector<std::string> topics;
    const std::size_t n_sections = 1 + rng.below(4);
    for (std::size_t s = 0; s < n_sections; ++s) {
        topics.push_back("/prop/torn" + std::to_string(s));
        readings.push_back(random_readings(rng, 1 + rng.below(16)));
    }
    for (std::size_t s = 0; s < n_sections; ++s)
        batches.push_back({topics[s], readings[s]});
    telemetry::trace::TraceContext ctx;
    ctx.trace_id = rng.next_u64() | 1;
    ctx.origin_ns = rng.next_u64();
    ctx.flags = telemetry::trace::kFlagSampled;
    const auto payload = encode_batch(batches, ctx);

    std::vector<Reading> all;
    for (const auto& r : readings) all.insert(all.end(), r.begin(), r.end());

    // Any truncation — through the sections OR through the trailer
    // itself — must decode with NO trace: a partial trailer could
    // otherwise attribute a salvaged prefix to a garbled trace ID.
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t cut =
            kBatchHeaderBytes +
            rng.below(payload.size() - kBatchHeaderBytes);  // < full size
        BatchPayloadView view;
        view.trace.trace_id = 0xBAD;  // must be reset by decode
        decode_batch(std::span<const std::uint8_t>(payload.data(), cut),
                     view);
        EXPECT_FALSE(view.trace.valid())
            << "cut=" << cut << " of " << payload.size();
        // And the salvage property still holds under the trailer.
        const auto got = flatten(view);
        ASSERT_LE(got.size(), all.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].ts, all[i].ts);
            EXPECT_EQ(got[i].value, all[i].value);
        }
    }
    // The un-cut payload keeps its trace (sanity against over-rejecting).
    BatchPayloadView whole;
    decode_batch(payload, whole);
    EXPECT_EQ(whole.trace.trace_id, ctx.trace_id);
}

TEST_P(PayloadProperty, FuzzedBatchDecodeNeverCrashes) {
    Rng rng(seed());
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> junk(rng.below(256));
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
        if (junk.size() >= 2) {
            junk[0] = kBatchPayloadMagic;  // force dispatch into v1 path
            junk[1] = kBatchPayloadVersion;
        }
        BatchPayloadView view;
        if (is_batch_payload(junk)) {
            decode_batch(junk, view);  // must not throw or crash
            std::size_t n = 0;
            for (const auto& s : view.sections) n += s.readings.size();
            EXPECT_EQ(view.total_readings, n);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadProperty,
                         ::testing::Values(61, 62, 63, 64, 65));

// ====================================================== ts block codec

class TsBlockProperty : public Seeded {};

namespace {

std::vector<store::Row> series(Rng& rng, int shape, std::size_t n) {
    std::vector<store::Row> rows;
    rows.reserve(n);
    TimestampNs ts = 1 + rng.below(1ull << 40);
    std::int64_t value = static_cast<std::int64_t>(rng.below(1000));
    for (std::size_t i = 0; i < n; ++i) {
        store::Row row;
        switch (shape) {
            case 0:  // paper-regular: fixed stride, constant value + TTL
                ts += kNsPerSec;
                row = {ts, value, 3600};
                break;
            case 1:  // monotone ts, slowly moving value
                ts += kNsPerSec + rng.below(1000);
                value += static_cast<std::int64_t>(rng.below(9)) - 4;
                row = {ts, value, 0};
                break;
            default:  // adversarial jitter: anything goes (ts ascending)
                ts += rng.below(1ull << 34);
                row = {ts, static_cast<Value>(rng.next_u64()),
                       static_cast<std::uint32_t>(rng.next_u64())};
                break;
        }
        rows.push_back(row);
    }
    return rows;
}

}  // namespace

TEST_P(TsBlockProperty, GorillaRoundTripsEveryShape) {
    Rng rng(seed());
    for (int shape = 0; shape < 3; ++shape) {
        const auto rows = series(rng, shape, 1 + rng.below(512));
        std::vector<std::uint8_t> encoded;
        store::encode_rows(store::BlockFormat::kGorilla, rows, encoded);
        std::vector<store::Row> decoded;
        store::decode_rows(store::BlockFormat::kGorilla, encoded,
                           rows.size(), decoded);
        ASSERT_EQ(decoded.size(), rows.size()) << "shape " << shape;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(decoded[i].ts, rows[i].ts);
            EXPECT_EQ(decoded[i].value, rows[i].value);
            EXPECT_EQ(decoded[i].expiry_s, rows[i].expiry_s);
        }
    }
}

TEST_P(TsBlockProperty, BestEncodingRoundTripsAndNeverLosesToRaw) {
    Rng rng(seed());
    for (int shape = 0; shape < 3; ++shape) {
        const auto rows = series(rng, shape, 1 + rng.below(512));
        std::vector<std::uint8_t> encoded;
        const auto format = store::encode_rows_best(rows, encoded);
        EXPECT_LE(encoded.size(), rows.size() * store::Row::kBytes);
        std::vector<store::Row> decoded;
        store::decode_rows(format, encoded, rows.size(), decoded);
        ASSERT_EQ(decoded.size(), rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(decoded[i].ts, rows[i].ts);
            EXPECT_EQ(decoded[i].value, rows[i].value);
            EXPECT_EQ(decoded[i].expiry_s, rows[i].expiry_s);
        }
    }
}

TEST_P(TsBlockProperty, RegularSeriesCompressBelowFourBytesPerRow) {
    Rng rng(seed());
    const auto rows = series(rng, 0, 512);
    std::vector<std::uint8_t> encoded;
    const auto format = store::encode_rows_best(rows, encoded);
    EXPECT_EQ(format, store::BlockFormat::kGorilla);
    EXPECT_LE(encoded.size(), rows.size() * 4u)
        << "bytes/row " << (double(encoded.size()) / rows.size());
}

TEST_P(TsBlockProperty, TruncatedGorillaPayloadThrowsInsteadOfCrashing) {
    Rng rng(seed());
    const auto rows = series(rng, 2, 64);
    std::vector<std::uint8_t> encoded;
    store::encode_rows(store::BlockFormat::kGorilla, rows, encoded);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t cut = rng.below(encoded.size());
        std::vector<store::Row> decoded;
        EXPECT_THROW(
            store::decode_rows(
                store::BlockFormat::kGorilla,
                std::span<const std::uint8_t>(encoded.data(), cut),
                rows.size(), decoded),
            StoreError);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsBlockProperty,
                         ::testing::Values(71, 72, 73, 74, 75));

}  // namespace
}  // namespace dcdb
