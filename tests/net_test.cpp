// Tests for the networking substrate: TCP, UDP and the HTTP/1.1 layer.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>

#include "net/http.hpp"
#include "net/socket.hpp"

namespace dcdb {
namespace {

TEST(Tcp, ListenerPicksEphemeralPort) {
    TcpListener listener(0);
    EXPECT_GT(listener.port(), 0);
}

TEST(Tcp, RoundTripBytes) {
    TcpListener listener(0);
    std::thread server([&] {
        auto stream = listener.accept();
        ASSERT_TRUE(stream.has_value());
        std::uint8_t buf[5];
        ASSERT_TRUE(stream->read_exact(buf));
        // Echo back reversed.
        std::uint8_t out[5];
        for (int i = 0; i < 5; ++i) out[i] = buf[4 - i];
        stream->write_all(std::span<const std::uint8_t>(out, 5));
    });

    TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
    const std::uint8_t msg[5] = {1, 2, 3, 4, 5};
    client.write_all(std::span<const std::uint8_t>(msg, 5));
    std::uint8_t reply[5];
    ASSERT_TRUE(client.read_exact(reply));
    EXPECT_EQ(reply[0], 5);
    EXPECT_EQ(reply[4], 1);
    server.join();
}

TEST(Tcp, ReadExactReportsCleanEof) {
    TcpListener listener(0);
    std::thread server([&] {
        auto stream = listener.accept();
        ASSERT_TRUE(stream.has_value());
        stream->close();
    });
    TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
    std::uint8_t buf[4];
    EXPECT_FALSE(client.read_exact(buf));
    server.join();
}

TEST(Tcp, ConnectToClosedPortFails) {
    std::uint16_t dead_port;
    {
        TcpListener listener(0);
        dead_port = listener.port();
    }
    EXPECT_THROW(TcpStream::connect("127.0.0.1", dead_port, 500), NetError);
}

TEST(Tcp, RecvTimeoutThrows) {
    TcpListener listener(0);
    std::thread server([&] {
        auto stream = listener.accept();
        // Hold the connection open without sending anything.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    });
    TcpStream client = TcpStream::connect("127.0.0.1", listener.port());
    client.set_recv_timeout_ms(50);
    std::uint8_t buf[1];
    EXPECT_THROW(client.read_some(buf), NetError);
    server.join();
}

TEST(Udp, DatagramRoundTrip) {
    UdpSocket a(0), b(0);
    const std::uint8_t msg[3] = {7, 8, 9};
    a.send_to(std::span<const std::uint8_t>(msg, 3), b.port());
    std::vector<std::uint8_t> out;
    const auto from = b.recv_from(out, 1000);
    ASSERT_TRUE(from.has_value());
    EXPECT_EQ(*from, a.port());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[2], 9);
}

TEST(Udp, RecvTimesOut) {
    UdpSocket sock(0);
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(sock.recv_from(out, 50).has_value());
}

TEST(Http, QueryStringParsing) {
    const auto q = parse_query_string("a=1&b=hello%20world&flag");
    EXPECT_EQ(q.at("a"), "1");
    EXPECT_EQ(q.at("b"), "hello world");
    EXPECT_EQ(q.at("flag"), "");
}

TEST(Http, ServerRoutesRequests) {
    HttpServer server(0, [](const HttpRequest& req) {
        if (req.path == "/hello")
            return HttpResponse::ok("hi " + req.query_or("name", "?"));
        return HttpResponse::not_found();
    });
    const auto ok = http_get("127.0.0.1", server.port(), "/hello?name=dcdb");
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.body, "hi dcdb");
    const auto missing = http_get("127.0.0.1", server.port(), "/nope");
    EXPECT_EQ(missing.status, 404);
}

TEST(Http, PutBodyIsDelivered) {
    std::string seen_body;
    std::string seen_method;
    HttpServer server(0, [&](const HttpRequest& req) {
        seen_body = req.body;
        seen_method = req.method;
        return HttpResponse::ok("ack");
    });
    const auto resp = http_request("127.0.0.1", server.port(), "PUT",
                                   "/plugins/tester/start", "payload123");
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(seen_method, "PUT");
    EXPECT_EQ(seen_body, "payload123");
}

TEST(Http, HandlerExceptionBecomes500) {
    HttpServer server(0, [](const HttpRequest&) -> HttpResponse {
        throw std::runtime_error("boom");
    });
    const auto resp = http_get("127.0.0.1", server.port(), "/");
    EXPECT_EQ(resp.status, 500);
    EXPECT_NE(resp.body.find("boom"), std::string::npos);
}

TEST(Http, ConcurrentClients) {
    std::atomic<int> hits{0};
    HttpServer server(0, [&](const HttpRequest&) {
        hits.fetch_add(1);
        return HttpResponse::ok("ok");
    });
    std::vector<std::thread> clients;
    clients.reserve(8);
    for (int i = 0; i < 8; ++i) {
        clients.emplace_back([&] {
            for (int j = 0; j < 5; ++j) {
                const auto resp = http_get("127.0.0.1", server.port(), "/");
                EXPECT_EQ(resp.status, 200);
            }
        });
    }
    for (auto& c : clients) c.join();
    EXPECT_EQ(hits.load(), 40);
}

TEST(Http, StopUnblocksCleanly) {
    auto server = std::make_unique<HttpServer>(0, [](const HttpRequest&) {
        return HttpResponse::ok("ok");
    });
    EXPECT_EQ(http_get("127.0.0.1", server->port(), "/").status, 200);
    server->stop();
    server.reset();  // must not hang
    SUCCEED();
}

/// This process's memory mappings: one line each in /proc/self/maps.
std::size_t mapping_count() {
    std::ifstream maps("/proc/self/maps");
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);) ++lines;
    return lines;
}

// A served connection's thread is joined, not kept until stop(): each
// kept thread holds its stack and guard page mapped, and a long-lived
// daemon would run out of mappings.
TEST(Http, ServerJoinsFinishedConnectionThreads) {
    HttpServer server(0, [](const HttpRequest&) {
        return HttpResponse::ok("ok");
    });
    // Warm-up: the allocator's and a sanitizer's own per-thread mappings
    // level off within the first connections.
    constexpr std::size_t kConnections = 300;
    for (std::size_t i = 0; i < kConnections; ++i)
        ASSERT_EQ(http_get("127.0.0.1", server.port(), "/").status, 200);
    const std::size_t before = mapping_count();
    for (std::size_t i = 0; i < kConnections; ++i)
        ASSERT_EQ(http_get("127.0.0.1", server.port(), "/").status, 200);
    EXPECT_LT(mapping_count(), before + kConnections / 10);
}

}  // namespace
}  // namespace dcdb
