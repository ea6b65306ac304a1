#include "rig.hpp"

#include <array>
#include <charconv>
#include <filesystem>
#include <set>
#include <span>
#include <stdexcept>

#include "collectagent/collect_agent.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "core/hierarchy.hpp"
#include "core/payload.hpp"
#include "core/sensor_cache.hpp"
#include "core/sensor_id.hpp"
#include "mqtt/broker.hpp"
#include "net/socket.hpp"

namespace perfbench {

using dcdb::steady_ns;
using dcdb::TimestampNs;

namespace {

// 2026-01-01T00:00:00Z. The seed moves the start by whole days, so the
// store's day buckets split every run's series at the same readings and
// partition sizes (hence memtable memory) do not depend on the seed.
constexpr TimestampNs kEpochNs = 1'767'225'600ull * dcdb::kNsPerSec;

std::string pusher_config(const Workload& w, int session) {
    std::string text = "global {\n  topicPrefix /bench/s" +
                       std::to_string(session) +
                       "\n  threads 1\n  qos 1\n  coalescePush true\n"
                       "  restApi false\n}\nplugins {\n  tester {\n";
    for (int g = 0; g < w.groups; ++g) {
        text += "    group g" + std::to_string(g) + " { sensors " +
                std::to_string(w.sensors) + " ; interval " +
                std::to_string(w.interval_s) + "s }\n";
    }
    return text + "  }\n}\n";
}

std::unique_ptr<dcdb::mqtt::Transport> connect(std::uint16_t port) {
    return std::make_unique<dcdb::mqtt::TcpTransport>(
        dcdb::TcpStream::connect("127.0.0.1", port));
}

}  // namespace

/// Stands in for CollectAgent::on_publish in the traced run: a reduced
/// broker whose sink calls the same public functions in the same order,
/// each wrapped in a span. Per-section calls are timed as one span per
/// message (count = sections), which keeps the span log small.
class StandInAgent {
  public:
    StandInAgent(dcdb::store::StoreCluster* cluster,
                 dcdb::store::MetaStore* meta,
                 dcdb::telemetry::MetricRegistry* registry,
                 std::vector<Lane*> lanes)
        : cluster_(cluster),
          mapper_(*meta),
          lanes_(std::move(lanes)),
          broker_(dcdb::mqtt::BrokerMode::kReduced,
                  [this](const dcdb::mqtt::Publish& p) { on_publish(p); },
                  0, true, registry) {}

    std::uint16_t port() const { return broker_.port(); }

  private:
    struct Section {
        std::string_view topic;
        dcdb::SensorId sid;
        dcdb::ReadingsView readings;
    };

    Lane& lane_for(std::string_view topic) const;
    void on_publish(const dcdb::mqtt::Publish& message);

    dcdb::store::StoreCluster* cluster_;
    dcdb::TopicMapper mapper_;
    dcdb::CacheSet cache_{120 * dcdb::kNsPerSec};
    dcdb::SensorTree tree_;
    std::vector<Lane*> lanes_;
    // Last: its session threads call on_publish, which uses the above.
    dcdb::mqtt::MqttBroker broker_;
};

Lane& StandInAgent::lane_for(std::string_view topic) const {
    constexpr std::string_view kPrefix = "/bench/s";
    std::size_t session = 0;
    if (topic.substr(0, kPrefix.size()) == kPrefix) {
        const char* first = topic.data() + kPrefix.size();
        const auto [end, ec] =
            std::from_chars(first, topic.data() + topic.size(), session);
        if (ec == std::errc() && session < lanes_.size())
            return *lanes_[session];
    }
    throw std::runtime_error("publish on unexpected topic " +
                             std::string(topic));
}

void StandInAgent::on_publish(const dcdb::mqtt::Publish& message) {
    thread_local dcdb::BatchPayloadView view;
    thread_local std::vector<Section> sections;
    thread_local std::vector<dcdb::store::BatchEntry> batch;
    thread_local std::string topic_scratch;
    sections.clear();
    batch.clear();

    Lane& lane = lane_for(message.topic);
    const std::uint32_t sink =
        lane.open("agent.sink", lane.open_publish(), steady_ns());
    const std::span<const std::uint8_t> payload(message.payload);

    // 1. decode_batch (v0 single-sensor payloads decode as one section).
    std::uint64_t t0 = steady_ns();
    if (dcdb::is_batch_payload(payload)) {
        dcdb::decode_batch(payload, view);
        for (const auto& s : view.sections)
            sections.push_back(Section{s.topic, {}, s.readings});
    } else {
        const auto salvaged = dcdb::decode_readings_view(payload);
        sections.push_back(Section{message.topic, {}, salvaged.readings});
    }
    std::uint64_t t1 = steady_ns();
    lane.add("agent.decode", sink, t0, t1, payload.size());

    // 2. TopicMapper::to_sid per section.
    std::size_t resolved = 0;
    for (auto& section : sections) {
        try {
            topic_scratch.assign(section.topic);
            section.sid = mapper_.to_sid(topic_scratch);
            sections[resolved++] = section;
        } catch (const std::exception&) {
            // Dropped like the agent drops an unmappable section.
        }
    }
    sections.resize(resolved);
    t0 = steady_ns();
    lane.add("agent.resolve", sink, t1, t0, sections.size());

    for (const auto& section : sections) {
        for (std::size_t i = 0; i < section.readings.size(); ++i) {
            const dcdb::Reading r = section.readings[i];
            batch.push_back(dcdb::store::BatchEntry{
                dcdb::sensor_key(section.sid, r.ts), r.ts, r.value, 0});
        }
    }

    // 3. One StoreCluster::insert_batch; flushes seen come from
    // StorageNode::stats() deltas around the call.
    const std::uint64_t flushes_before = cluster_->node(0).stats().flushes;
    t0 = steady_ns();
    const std::uint32_t insert = lane.open("store.insert", sink, t0);
    bool stored = true;
    try {
        cluster_->insert_batch(batch);
    } catch (const std::exception&) {
        stored = false;  // the read-back check counts the lost readings
    }
    t1 = steady_ns();
    const std::uint64_t flushes_after = cluster_->node(0).stats().flushes;
    lane.close(insert, t1, batch.size(), flushes_after - flushes_before);

    // 4. CacheSet::push and SensorTree::add per section.
    t0 = steady_ns();
    if (stored) {
        for (const auto& section : sections) {
            if (section.readings.empty()) continue;
            topic_scratch.assign(section.topic);
            cache_.push(topic_scratch,
                        section.readings[section.readings.size() - 1]);
            tree_.add(topic_scratch);
        }
    }
    t1 = steady_ns();
    lane.add("agent.bookkeep", sink, t0, t1, sections.size());
    lane.close(sink, t1, batch.size());
}

Rig::DataDir::~DataDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

Rig::Rig(const Workload& workload, std::string data_dir, bool traced,
         std::uint64_t seed)
    : dir_{std::move(data_dir)},
      workload_(workload),
      base_ts_(kEpochNs + dcdb::Rng(seed).below(1000) * dcdb::kBucketWidthNs),
      step_ns_(static_cast<TimestampNs>(workload.interval_s) * dcdb::kNsPerSec),
      window_readings_(kQueryWindowNs / step_ns_) {
    std::filesystem::remove_all(dir_.path);
    std::filesystem::create_directories(dir_.path);

    dcdb::store::ClusterConfig cc{dir_.path, 1, 1, "hierarchy",
                                  kMemtableFlushBytes, true};
    cc.commitlog_sync_every = kCommitlogSyncEvery;
    cc.registry = &registry_;
    cluster_ = std::make_unique<dcdb::store::StoreCluster>(cc);
    meta_ = std::make_unique<dcdb::store::MetaStore>(dir_.path + "/meta.log");

    std::vector<Lane*> lanes;
    for (int s = 0; s < workload_.sessions; ++s) {
        auto session = std::make_unique<Session>();
        if (traced) {
            session->lane =
                std::make_unique<Lane>(static_cast<std::uint32_t>(s));
            lanes.push_back(session->lane.get());
        }
        sessions_.push_back(std::move(session));
    }

    std::uint16_t port = 0;
    if (traced) {
        stand_in_ = std::make_unique<StandInAgent>(cluster_.get(), meta_.get(),
                                                   &registry_, lanes);
        port = stand_in_->port();
    } else {
        agent_ = std::make_unique<dcdb::collectagent::CollectAgent>(
            dcdb::parse_config("global { listenTcp true ; mqttPort 0 }"),
            cluster_.get(), meta_.get(), &registry_);
        port = agent_->mqtt_port();
    }

    for (int s = 0; s < workload_.sessions; ++s) {
        Session& session = *sessions_[static_cast<std::size_t>(s)];
        std::unique_ptr<dcdb::mqtt::Transport> transport = connect(port);
        if (session.lane) {
            transport = std::make_unique<TimedTransport>(std::move(transport),
                                                         session.lane.get());
        }
        session.pusher = std::make_unique<dcdb::pusher::Pusher>(
            dcdb::parse_config(pusher_config(workload_, s)),
            std::move(transport));
        for (const auto& plugin : session.pusher->plugins()) {
            for (const auto& group : plugin->groups()) {
                session.groups.push_back(group.get());
                for (const auto& sensor : group->sensors())
                    topics_.push_back(sensor->topic());
            }
        }
        if (session.groups.size() != static_cast<std::size_t>(workload_.groups))
            throw std::runtime_error("pusher built an unexpected group count");
    }
}

Rig::~Rig() = default;

TimestampNs Rig::ts(int session, int group, std::uint64_t k) const {
    // Each group's timeline is offset by its own microsecond, so a reading
    // stored under another group's sensor shows up as a stray timestamp.
    const auto lane = static_cast<std::uint64_t>(
        session * workload_.groups + group);
    return base_ts_ + k * step_ns_ + lane * 1000;
}

const std::string& Rig::topic(int session, int group, int sensor) const {
    return topics_[static_cast<std::size_t>(
        (session * workload_.groups + group) * workload_.sensors + sensor)];
}

std::uint64_t Rig::readings_per_round() const {
    return static_cast<std::uint64_t>(workload_.groups) *
           static_cast<std::uint64_t>(workload_.sensors) *
           static_cast<std::uint64_t>(workload_.readings_per_round);
}

void Rig::warm_up() {
    for (int s = 0; s < workload_.sessions; ++s) round(s);
    // History preload in two flushed halves, so queries find SSTables.
    // Each half goes out as one large publish per session, as from a
    // burst-mode Pusher: set-up then waits on a few commit-log syncs
    // instead of hundreds.
    const int reads =
        workload_.preload_rounds / 2 * workload_.readings_per_round;
    for (int half = 0; half < 2 && reads > 0; ++half) {
        for (int s = 0; s < workload_.sessions; ++s) round(s, reads);
        cluster_->flush_all();
    }
    for (const auto& session : sessions_) {
        if (session->lane) session->lane->clear();
    }
    // Built after every topic exists: its mapper loads the dictionary once.
    connection_ = std::make_unique<dcdb::lib::Connection>(*cluster_, *meta_);
}

void Rig::round(int s, int reads) {
    Session& session = *sessions_[static_cast<std::size_t>(s)];
    Lane* lane = session.lane.get();
    if (lane) lane->begin_round(session.rounds);
    const std::uint64_t t0 = steady_ns();
    for (int g = 0; g < workload_.groups; ++g) {
        auto* group = session.groups[static_cast<std::size_t>(g)];
        for (int j = 0; j < reads; ++j) {
            group->read_all(ts(s, g, session.next_reading +
                                         static_cast<std::uint64_t>(j)),
                            &session.pusher->cache());
        }
    }
    const std::uint64_t t1 = steady_ns();
    session.next_reading += static_cast<std::uint64_t>(reads);
    if (lane) {
        lane->add("pusher.sample", 0, t0, t1, readings_per_round());
        lane->begin_push(t1);
    }
    session.pusher->push_now();
    if (lane) lane->end_push(steady_ns());
    session.acked.store(session.next_reading, std::memory_order_release);
    ++session.rounds;
}

std::uint64_t Rig::acked(int session) const {
    return sessions_[static_cast<std::size_t>(session)]->acked.load(
        std::memory_order_acquire);
}

QueryResult Rig::query_window(dcdb::Rng& rng) {
    const auto pick = [&rng](int n) {
        return static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    };
    const int s = pick(workload_.sessions);
    const int g = pick(workload_.groups);
    const int j = pick(workload_.sensors);
    const std::uint64_t n = acked(s);
    const std::uint64_t end = n >= window_readings_
                                  ? window_readings_ - 1 +
                                        rng.below(n - window_readings_ + 1)
                                  : rng.below(n);
    const std::uint64_t first =
        end + 1 >= window_readings_ ? end + 1 - window_readings_ : 0;
    const TimestampNs t1 = ts(s, g, end);

    QueryResult result;
    const std::uint64_t start = steady_ns();
    try {
        const auto rows = connection_->query_raw(topic(s, g, j),
                                                 t1 - (kQueryWindowNs - 1), t1);
        result.us = static_cast<double>(steady_ns() - start) / 1e3;
        result.rows = rows.size();
        result.ok = rows.size() == end - first + 1;
        for (std::size_t i = 0; result.ok && i < rows.size(); ++i) {
            const std::uint64_t k = first + i;
            result.ok = rows[i].ts == ts(s, g, k) &&
                        rows[i].value == static_cast<dcdb::Value>(k);
        }
    } catch (const std::exception&) {
        result.us = static_cast<double>(steady_ns() - start) / 1e3;
        result.ok = false;
    }
    return result;
}

Verification Rig::verify() {
    Verification v;
    const auto fail = [&v](std::uint64_t n, const std::string& what) {
        v.wrong += n;
        if (v.first_error.empty()) v.first_error = what;
    };

    // Every topic maps to its own SID, and the SID maps back to it.
    std::set<std::array<std::uint8_t, 16>> sids;
    for (const auto& t : topics_) {
        dcdb::SensorId sid;
        if (!connection_->mapper().lookup(t, sid)) {
            fail(1, "no SID for " + t);
        } else if (!sids.insert(sid.bytes).second) {
            fail(1, "SID shared by two topics, one of them " + t);
        } else if (connection_->mapper().to_topic(sid) != t) {
            fail(1, "SID of " + t + " maps back to another topic");
        }
    }

    // Every sampled reading is stored once with the tester plugin's counter
    // value (the group's read count, k). A reading stored under another
    // group's sensor is a stray timestamp; the plugin gives every sensor of
    // a group the same value and timestamp, so one stored under a sibling
    // sensor shows only as its own reading missing.
    for (int s = 0; s < workload_.sessions; ++s) {
        const std::uint64_t n =
            sessions_[static_cast<std::size_t>(s)]->next_reading;
        for (int g = 0; g < workload_.groups; ++g) {
            for (int j = 0; j < workload_.sensors; ++j) {
                v.expected += n;
                const std::string& t = topic(s, g, j);
                const auto rows = connection_->query_raw(
                    t, ts(s, g, 0) - step_ns_, ts(s, g, n));
                std::size_t i = 0;
                for (std::uint64_t k = 0; k < n; ++k) {
                    const TimestampNs want = ts(s, g, k);
                    for (; i < rows.size() && rows[i].ts < want; ++i)
                        fail(1, "stray reading under " + t);
                    if (i < rows.size() && rows[i].ts == want) {
                        if (rows[i].value != static_cast<dcdb::Value>(k))
                            fail(1, "wrong value under " + t);
                        ++i;
                    } else {
                        ++v.missing;
                    }
                }
                if (i < rows.size())
                    fail(rows.size() - i, "stray reading under " + t);
            }
        }
    }
    return v;
}

std::uint64_t Rig::publish_failures() const {
    std::uint64_t n = 0;
    for (const auto& session : sessions_)
        n += session->pusher->stats().publish_failures;
    return n;
}

std::vector<std::vector<Span>> Rig::spans() const {
    std::vector<std::vector<Span>> out;
    for (const auto& session : sessions_) {
        if (session->lane) out.push_back(session->lane->spans());
    }
    return out;
}

}  // namespace perfbench
