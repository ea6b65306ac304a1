// Minimal HTTP/1.1 server and client.
//
// Stands in for the HTTPS REST interfaces of Pushers and Collect Agents
// (paper, Section 5.3). TLS is out of scope (see README); routing,
// queries, PUT-triggered actions and JSON payloads are faithful.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "telemetry/registry.hpp"

namespace dcdb {

struct HttpRequest {
    std::string method;  // GET, PUT, POST, DELETE
    std::string path;    // path without query string
    std::map<std::string, std::string> query;
    std::map<std::string, std::string> headers;  // lowercase keys
    std::string body;

    std::string query_or(const std::string& key,
                         const std::string& fallback) const {
        const auto it = query.find(key);
        return it == query.end() ? fallback : it->second;
    }
};

struct HttpResponse {
    int status{200};
    std::string content_type{"text/plain"};
    std::string body;

    static HttpResponse ok(std::string body,
                           std::string type = "text/plain") {
        return {200, std::move(type), std::move(body)};
    }
    static HttpResponse json(std::string body) {
        return {200, "application/json", std::move(body)};
    }
    static HttpResponse not_found(std::string msg = "not found\n") {
        return {404, "text/plain", std::move(msg)};
    }
    static HttpResponse bad_request(std::string msg) {
        return {400, "text/plain", std::move(msg)};
    }
    static HttpResponse error(std::string msg) {
        return {500, "text/plain", std::move(msg)};
    }
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Threaded HTTP server bound to 127.0.0.1; one worker per connection,
/// supporting pipelined keep-alive requests.
class HttpServer {
  public:
    /// Start serving immediately. Port 0 = ephemeral. When `registry` is
    /// given the server records http.requests and a per-route
    /// http.latency.<route> histogram into it (route = sanitized first
    /// path segment, so cardinality tracks the API surface).
    HttpServer(std::uint16_t port, HttpHandler handler,
               telemetry::MetricRegistry* registry = nullptr);
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    std::uint16_t port() const { return port_; }
    void stop();

  private:
    void accept_loop();
    void serve_connection(TcpStream stream);

    HttpHandler handler_;
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::MetricRegistry& registry_;
    telemetry::Counter& requests_;
    TcpListener listener_;
    std::uint16_t port_;
    std::atomic<bool> stopping_{false};
    std::thread accept_thread_;
    std::mutex workers_mutex_;
    std::list<std::thread> workers_;   // serving a connection
    std::list<std::thread> finished_;  // done serving, not joined yet
};

/// Blocking single-request client. Throws NetError on transport errors.
HttpResponse http_request(const std::string& host, std::uint16_t port,
                          const std::string& method, const std::string& target,
                          const std::string& body = "", int timeout_ms = 5000);

inline HttpResponse http_get(const std::string& host, std::uint16_t port,
                             const std::string& target) {
    return http_request(host, port, "GET", target);
}

/// Percent-decode and parse "a=1&b=2" query strings.
std::map<std::string, std::string> parse_query_string(const std::string& qs);

}  // namespace dcdb
