// Tests for the MQTT substrate: topics, codec, transports, client/broker
// integration over both TCP and in-process transports, and the reduced
// (Collect Agent) broker mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "mqtt/packet.hpp"
#include "mqtt/topic.hpp"
#include "mqtt/transport.hpp"

namespace dcdb::mqtt {
namespace {

// ---------------------------------------------------------------- topics

TEST(Topic, ValidityRules) {
    EXPECT_TRUE(topic_valid("/sys/rack01/node3/power"));
    EXPECT_FALSE(topic_valid(""));
    EXPECT_FALSE(topic_valid("/sys/+/power"));
    EXPECT_FALSE(topic_valid("/sys/#"));
}

TEST(Topic, FilterValidityRules) {
    EXPECT_TRUE(filter_valid("/sys/+/power"));
    EXPECT_TRUE(filter_valid("/sys/#"));
    EXPECT_TRUE(filter_valid("#"));
    EXPECT_FALSE(filter_valid("/sys/#/power"));  // '#' must be last
    EXPECT_FALSE(filter_valid("/sys/a+/power"));  // '+' must fill a level
    EXPECT_FALSE(filter_valid(""));
}

TEST(Topic, MatchingSpecExamples) {
    EXPECT_TRUE(topic_matches("sport/tennis/player1/#", "sport/tennis/player1"));
    EXPECT_TRUE(topic_matches("sport/tennis/player1/#",
                              "sport/tennis/player1/ranking"));
    EXPECT_FALSE(topic_matches("sport/tennis/+", "sport/tennis/player1/ranking"));
    EXPECT_TRUE(topic_matches("sport/+", "sport/"));
    EXPECT_TRUE(topic_matches("+/+", "/finance"));
    EXPECT_TRUE(topic_matches("/+", "/finance"));
    EXPECT_FALSE(topic_matches("+", "/finance"));
}

TEST(Topic, HierarchyMatching) {
    const std::string topic = "/lrz/coolmuc3/rack2/node17/cpu03/instructions";
    EXPECT_TRUE(topic_matches("/lrz/coolmuc3/#", topic));
    EXPECT_TRUE(topic_matches("/lrz/+/rack2/#", topic));
    EXPECT_FALSE(topic_matches("/lrz/coolmuc2/#", topic));
}

TEST(Topic, NormalizeSensorTopic) {
    EXPECT_EQ(normalize_sensor_topic("sys/node/power"), "/sys/node/power");
    EXPECT_EQ(normalize_sensor_topic("//sys//node/power/"),
              "/sys/node/power");
    EXPECT_EQ(normalize_sensor_topic("/"), "/");
}

// ----------------------------------------------------------------- codec

template <typename T>
T encode_decode(const Packet& p) {
    const auto bytes = encode(p);
    // Split fixed-header byte + varint from body the way a reader would.
    ByteReader r(bytes);
    const std::uint8_t first = r.u8();
    const std::uint32_t remaining = r.varint();
    const auto body = r.bytes(remaining);
    EXPECT_EQ(r.remaining(), 0u) << "encoder wrote trailing bytes";
    const Packet out = decode(first, body);
    const T* typed = std::get_if<T>(&out);
    EXPECT_NE(typed, nullptr);
    return *typed;
}

TEST(Codec, ConnectRoundTrip) {
    Connect c;
    c.client_id = "pusher-node0042";
    c.keepalive_s = 30;
    c.clean_session = true;
    const auto out = encode_decode<Connect>(c);
    EXPECT_EQ(out.client_id, c.client_id);
    EXPECT_EQ(out.keepalive_s, 30);
    EXPECT_TRUE(out.clean_session);
}

TEST(Codec, ConnackReturnCode) {
    const auto out = encode_decode<Connack>(Connack{5, true});
    EXPECT_EQ(out.return_code, 5);
    EXPECT_TRUE(out.session_present);
}

TEST(Codec, PublishQos0RoundTrip) {
    Publish p;
    p.topic = "/sys/node0/power";
    p.payload = {1, 2, 3, 4};
    const auto out = encode_decode<Publish>(p);
    EXPECT_EQ(out.topic, p.topic);
    EXPECT_EQ(out.payload, p.payload);
    EXPECT_EQ(out.qos, 0);
}

TEST(Codec, PublishQos1CarriesPacketId) {
    Publish p;
    p.topic = "/t";
    p.qos = 1;
    p.packet_id = 777;
    p.payload = {9};
    const auto out = encode_decode<Publish>(p);
    EXPECT_EQ(out.qos, 1);
    EXPECT_EQ(out.packet_id, 777);
}

TEST(Codec, PublishEmptyPayloadAllowed) {
    Publish p;
    p.topic = "/t";
    const auto out = encode_decode<Publish>(p);
    EXPECT_TRUE(out.payload.empty());
}

TEST(Codec, PublishLargePayloadUsesMultiByteLength) {
    Publish p;
    p.topic = "/t";
    p.payload.assign(100000, 0xAA);
    const auto bytes = encode(p);
    const auto out = encode_decode<Publish>(p);
    EXPECT_EQ(out.payload.size(), 100000u);
    EXPECT_GT(bytes.size(), 100000u);
}

TEST(Codec, SubscribeRoundTrip) {
    Subscribe s;
    s.packet_id = 42;
    s.filters = {{"/sys/#", 1}, {"/fac/+/temp", 0}};
    const auto out = encode_decode<Subscribe>(s);
    ASSERT_EQ(out.filters.size(), 2u);
    EXPECT_EQ(out.filters[0].first, "/sys/#");
    EXPECT_EQ(out.filters[0].second, 1);
}

TEST(Codec, SubackRoundTrip) {
    Suback s;
    s.packet_id = 42;
    s.return_codes = {0, 0x80};
    const auto out = encode_decode<Suback>(s);
    EXPECT_EQ(out.return_codes.size(), 2u);
    EXPECT_EQ(out.return_codes[1], 0x80);
}

TEST(Codec, ControlPacketsRoundTrip) {
    encode_decode<Pingreq>(Pingreq{});
    encode_decode<Pingresp>(Pingresp{});
    encode_decode<Disconnect>(Disconnect{});
    EXPECT_EQ(encode(Pingreq{}).size(), 2u);  // fixed header only
}

TEST(Codec, RejectsMalformedPackets) {
    // Publish with wildcard topic.
    ByteWriter body;
    body.mqtt_str("/sys/+/power");
    EXPECT_THROW(decode(0x30, body.data()), ProtocolError);
    // Subscribe with wrong reserved flags.
    ByteWriter sub;
    sub.u16be(1);
    sub.mqtt_str("/t");
    sub.u8(0);
    EXPECT_THROW(decode(0x80, sub.data()), ProtocolError);
    // Truncated connack.
    EXPECT_THROW(decode(0x20, std::span<const std::uint8_t>{}),
                 ProtocolError);
}

// ------------------------------------------------------------- transport

TEST(Transport, InProcPairDeliversBytesBothWays) {
    auto [a, b] = make_inproc_pair();
    const std::uint8_t msg[3] = {1, 2, 3};
    a->send(msg);
    std::uint8_t buf[3];
    EXPECT_EQ(b->recv(buf), 3u);
    EXPECT_EQ(buf[2], 3);
    b->send(buf);
    std::uint8_t back[3];
    EXPECT_EQ(a->recv(back), 3u);
}

TEST(Transport, CloseUnblocksReceiver) {
    auto [a, b] = make_inproc_pair();
    std::thread closer([&a] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        a->close();
    });
    std::uint8_t buf[1];
    EXPECT_EQ(b->recv(buf), 0u);
    closer.join();
}

TEST(Transport, PacketStreamFramesAcrossChunkBoundaries) {
    auto [a, b] = make_inproc_pair();
    PacketStream writer(std::move(a));
    PacketStream reader(std::move(b));

    Publish p;
    p.topic = "/x";
    p.payload.assign(5000, 0x5A);
    writer.write_packet(p);
    writer.write_packet(Pingreq{});

    Packet packet;
    ASSERT_TRUE(reader.read_packet(packet));
    EXPECT_EQ(std::get<Publish>(packet).payload.size(), 5000u);
    ASSERT_TRUE(reader.read_packet(packet));
    EXPECT_TRUE(std::holds_alternative<Pingreq>(packet));
}

namespace {

/// Transport double: recv serves a fixed byte script `chunk` bytes at a
/// time (then EOF); every send is recorded as one frame.
class ScriptedTransport final : public Transport {
  public:
    ScriptedTransport(std::vector<std::uint8_t> script, std::size_t chunk)
        : script_(std::move(script)), chunk_(chunk) {}

    void send(std::span<const std::uint8_t> data) override {
        sent_.emplace_back(data.begin(), data.end());
    }
    std::size_t recv(std::span<std::uint8_t> buf) override {
        const std::size_t n =
            std::min({buf.size(), chunk_, script_.size() - pos_});
        std::copy_n(script_.begin() + static_cast<std::ptrdiff_t>(pos_),
                    n, buf.begin());
        pos_ += n;
        return n;
    }
    void close() override {}

    const std::vector<std::vector<std::uint8_t>>& sent() const {
        return sent_;
    }

  private:
    std::vector<std::uint8_t> script_;
    std::size_t chunk_;
    std::size_t pos_{0};
    std::vector<std::vector<std::uint8_t>> sent_;
};

/// Read every packet a script holds, `chunk` bytes per recv, each one
/// re-encoded for comparison.
std::vector<std::vector<std::uint8_t>> read_all(
    const std::vector<std::uint8_t>& script, std::size_t chunk) {
    PacketStream stream(std::make_unique<ScriptedTransport>(script, chunk));
    std::vector<std::vector<std::uint8_t>> out;
    Packet packet;
    while (stream.read_packet(packet)) out.push_back(encode(packet));
    return out;
}

Publish make_publish(std::string topic, std::size_t payload_bytes,
                     std::uint8_t qos, std::uint16_t packet_id) {
    Publish p;
    p.topic = std::move(topic);
    for (std::size_t i = 0; i < payload_bytes; ++i)
        p.payload.push_back(static_cast<std::uint8_t>(i * 7 + 3));
    p.qos = qos;
    p.packet_id = packet_id;
    return p;
}

}  // namespace

TEST(Transport, OneBytePerRecvAndManyFramesPerRecvYieldSamePackets) {
    Subscribe sub;
    sub.packet_id = 9;
    sub.filters = {{"/a/+", 1}, {"/b/#", 0}};
    const std::vector<Packet> packets = {
        Connect{"client-1", 30, true},
        make_publish("/s/0", 10, 0, 0),
        make_publish("/s/1", 300, 1, 7),  // 2-byte remaining length
        make_publish("/s/2", 0, 1, 8),
        Puback{7},
        sub,
        Pingreq{},
        make_publish("/s/3", 20000, 0, 0),  // 3-byte remaining length
        Disconnect{},
    };
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> script;
    for (const auto& p : packets) {
        frames.push_back(encode(p));
        script.insert(script.end(), frames.back().begin(),
                      frames.back().end());
    }
    EXPECT_EQ(read_all(script, 1), frames);
    EXPECT_EQ(read_all(script, script.size()), frames);
    EXPECT_EQ(read_all(script, 4099), frames);
}

TEST(Transport, EofInsideAFrameThrowsProtocolError) {
    const auto fails_with = [](std::vector<std::uint8_t> script,
                               const std::string& what) {
        PacketStream stream(
            std::make_unique<ScriptedTransport>(std::move(script), 1));
        Packet packet;
        try {
            stream.read_packet(packet);
        } catch (const ProtocolError& e) {
            return std::string(e.what()).find(what) != std::string::npos;
        }
        return false;
    };
    // Inside the remaining length, inside the body, and a declared
    // length over the cap.
    EXPECT_TRUE(fails_with({0x30, 0x80}, "EOF in remaining length"));
    EXPECT_TRUE(fails_with({0x30, 0x05, 0x00, 0x01, '/'},
                           "EOF in packet body"));
    EXPECT_TRUE(fails_with({0x30, 0x81, 0x80, 0x80, 0x20},
                           "packet too large"));
    EXPECT_TRUE(fails_with({0x30, 0xFF, 0xFF, 0xFF, 0xFF},
                           "remaining length too long"));
    // EOF between frames is orderly.
    PacketStream stream(std::make_unique<ScriptedTransport>(
        encode(Pingreq{}), 1));
    Packet packet;
    EXPECT_TRUE(stream.read_packet(packet));
    EXPECT_FALSE(stream.read_packet(packet));
}

TEST(Transport, PublishReadIntoReusedPacketKeepsCapacity) {
    std::vector<std::uint8_t> script = encode(make_publish("/big", 4096, 1, 1));
    const auto small = encode(make_publish("/small/topic/name", 100, 0, 0));
    script.insert(script.end(), small.begin(), small.end());
    PacketStream stream(std::make_unique<ScriptedTransport>(script, 1000));

    Packet packet;
    ASSERT_TRUE(stream.read_packet(packet));
    const auto& first = std::get<Publish>(packet);
    EXPECT_EQ(first.packet_id, 1);
    const std::uint8_t* storage = first.payload.data();
    const std::size_t capacity = first.payload.capacity();

    ASSERT_TRUE(stream.read_packet(packet));
    const auto& second = std::get<Publish>(packet);
    EXPECT_EQ(second.topic, "/small/topic/name");
    EXPECT_EQ(second.qos, 0);
    EXPECT_EQ(second.packet_id, 0);  // reset, not left from the QoS-1 one
    EXPECT_EQ(second.payload, make_publish("", 100, 0, 0).payload);
    EXPECT_EQ(second.payload.data(), storage);
    EXPECT_EQ(second.payload.capacity(), capacity);
}

TEST(Transport, WritePublishFramesEqualEncodedPublish) {
    auto owned = std::make_unique<ScriptedTransport>(
        std::vector<std::uint8_t>{}, 1);
    ScriptedTransport* transport = owned.get();
    PacketStream stream(std::move(owned));
    // Remaining lengths of 1 to 4 bytes, QoS 0 and 1, an empty payload.
    const std::size_t sizes[] = {0, 100, 200, 20000, 2100000, 10};
    std::vector<std::vector<std::uint8_t>> expected;
    std::uint16_t id = 0;
    for (const std::size_t size : sizes) {
        for (std::uint8_t qos = 0; qos <= 1; ++qos) {
            const Publish p = make_publish("/w/p", size, qos, ++id);
            stream.write_publish(p.topic, p.payload, p.qos, p.packet_id);
            // The QoS-0 frame carries no packet id.
            Publish reference = p;
            if (qos == 0) reference.packet_id = 0;
            expected.push_back(encode(reference));
            // The reference codec: the body built whole, then the fixed
            // header and remaining length put in front of it.
            ByteWriter body;
            body.mqtt_str(p.topic);
            if (qos > 0) body.u16be(p.packet_id);
            body.bytes(p.payload);
            ByteWriter frame;
            frame.u8(static_cast<std::uint8_t>(0x30 | (qos << 1)));
            frame.varint(static_cast<std::uint32_t>(body.size()));
            frame.bytes(body.data());
            EXPECT_EQ(expected.back(), frame.data()) << size;
        }
    }
    // One send per frame, each equal to encode(Publish).
    EXPECT_EQ(transport->sent(), expected);
    EXPECT_EQ(expected[8].size(), 1u + 4u + 6u + 2100000u);
}

TEST(Transport, InProcPairMovesOneMiBInOddSizedChunks) {
    auto [a, b] = make_inproc_pair();
    std::vector<std::uint8_t> data(1u << 20);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
    std::thread sender([&a, &data] {
        const std::size_t sends[] = {1, 3, 7, 13, 509, 4099, 65537};
        std::size_t pos = 0;
        for (std::size_t k = 0; pos < data.size(); ++k) {
            const std::size_t n =
                std::min(sends[k % std::size(sends)], data.size() - pos);
            a->send(std::span(data).subspan(pos, n));
            pos += n;
        }
    });
    std::vector<std::uint8_t> got;
    const std::size_t recvs[] = {5, 11, 997, 3, 8191, 1};
    std::vector<std::uint8_t> buf(8191);
    for (std::size_t k = 0; got.size() < data.size(); ++k) {
        const std::size_t n = b->recv(
            std::span(buf).first(recvs[k % std::size(recvs)]));
        ASSERT_GT(n, 0u);
        got.insert(got.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    sender.join();
    EXPECT_EQ(got, data);
}

// --------------------------------------------------------- client/broker

class Collected {
  public:
    void add(const Publish& p) {
        std::scoped_lock lock(mutex_);
        messages_.push_back(p);
        cv_.notify_all();
    }
    bool wait_count(std::size_t n, int timeout_ms = 2000) {
        std::unique_lock lock(mutex_);
        return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return messages_.size() >= n; });
    }
    std::vector<Publish> snapshot() {
        std::scoped_lock lock(mutex_);
        return messages_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Publish> messages_;
};

TEST(Broker, TcpPublishReachesSink) {
    Collected sink;
    MqttBroker broker(BrokerMode::kReduced,
                      [&](const Publish& p) { sink.add(p); });
    auto client =
        MqttClient::connect_tcp("127.0.0.1", broker.port(), "test-client");
    client->publish("/sys/node0/power", std::string("\x01\x02"), 0);
    ASSERT_TRUE(sink.wait_count(1));
    const auto msgs = sink.snapshot();
    EXPECT_EQ(msgs[0].topic, "/sys/node0/power");
    EXPECT_EQ(msgs[0].payload.size(), 2u);
    client->disconnect();
}

TEST(Broker, Qos1PublishIsAcknowledged) {
    Collected sink;
    MqttBroker broker(BrokerMode::kReduced,
                      [&](const Publish& p) { sink.add(p); });
    auto client = MqttClient::connect_tcp("127.0.0.1", broker.port(), "c1");
    // publish() at QoS 1 blocks on the PUBACK; returning at all proves the
    // broker acked.
    client->publish("/t", std::string("x"), 1);
    ASSERT_TRUE(sink.wait_count(1));
    client->disconnect();
}

TEST(Broker, InProcConnectionWorksEndToEnd) {
    Collected sink;
    MqttBroker broker(BrokerMode::kReduced,
                      [&](const Publish& p) { sink.add(p); },
                      /*port=*/0, /*listen_tcp=*/false);
    MqttClient client(broker.connect_inproc(), "inproc-client");
    client.connect();
    for (int i = 0; i < 10; ++i)
        client.publish("/t/" + std::to_string(i), std::string("v"), 0);
    ASSERT_TRUE(sink.wait_count(10));
    client.disconnect();
    broker.stop();
    EXPECT_EQ(broker.stats().publishes, 10u);
}

TEST(Broker, ReducedModeRejectsSubscriptions) {
    MqttBroker broker(BrokerMode::kReduced, nullptr);
    auto client = MqttClient::connect_tcp("127.0.0.1", broker.port(), "c");
    // The SUBACK arrives with 0x80; the client surfaces it as a warning,
    // not an exception, but the broker must not route anything.
    client->subscribe({"/sys/#"});
    EXPECT_EQ(broker.stats().rejected_subscribes, 1u);
    client->disconnect();
}

TEST(Broker, FullModeRoutesByFilter) {
    MqttBroker broker(BrokerMode::kFull, nullptr);
    auto subscriber =
        MqttClient::connect_tcp("127.0.0.1", broker.port(), "sub");
    Collected received;
    subscriber->set_message_handler(
        [&](const Publish& p) { received.add(p); });
    subscriber->subscribe({"/sys/+/power"});

    auto publisher =
        MqttClient::connect_tcp("127.0.0.1", broker.port(), "pub");
    publisher->publish("/sys/node0/power", std::string("a"), 0);
    publisher->publish("/sys/node0/temp", std::string("b"), 0);
    publisher->publish("/sys/node1/power", std::string("c"), 0);

    ASSERT_TRUE(received.wait_count(2));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto msgs = received.snapshot();
    ASSERT_EQ(msgs.size(), 2u) << "temp topic must not match filter";
    EXPECT_EQ(msgs[0].topic, "/sys/node0/power");
    EXPECT_EQ(msgs[1].topic, "/sys/node1/power");

    publisher->disconnect();
    subscriber->disconnect();
}

TEST(Broker, ManyConcurrentPublishers) {
    std::atomic<std::uint64_t> count{0};
    MqttBroker broker(BrokerMode::kReduced,
                      [&](const Publish&) { count.fetch_add(1); },
                      /*port=*/0, /*listen_tcp=*/false);
    constexpr int kClients = 16;
    constexpr int kMessages = 50;
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&broker, c] {
            MqttClient client(broker.connect_inproc(),
                              "client" + std::to_string(c));
            client.connect();
            for (int i = 0; i < kMessages; ++i)
                client.publish("/h" + std::to_string(c), std::string("p"), 0);
            client.disconnect();
        });
    }
    for (auto& t : threads) t.join();
    // QoS0 is fire-and-forget but the in-proc pipe is lossless and
    // disconnect() flushes, so every message must arrive.
    for (int spin = 0; spin < 100 && count.load() < kClients * kMessages;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(count.load(), kClients * kMessages);
}

TEST(Broker, PingRoundTrip) {
    MqttBroker broker(BrokerMode::kReduced, nullptr);
    auto client = MqttClient::connect_tcp("127.0.0.1", broker.port(), "c");
    client->ping();
    client->disconnect();
}

TEST(Broker, StopWithConnectedClientsDoesNotHang) {
    auto broker = std::make_unique<MqttBroker>(BrokerMode::kReduced, nullptr);
    auto client = MqttClient::connect_tcp("127.0.0.1", broker->port(), "c");
    broker->stop();
    broker.reset();
    SUCCEED();
}

TEST(Client, PublishAfterDisconnectThrows) {
    MqttBroker broker(BrokerMode::kReduced, nullptr);
    auto client = MqttClient::connect_tcp("127.0.0.1", broker.port(), "c");
    client->disconnect();
    EXPECT_THROW(client->publish("/t", std::string("x"), 0), NetError);
}

}  // namespace
}  // namespace dcdb::mqtt
