#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <mutex>
#include <sstream>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/string_utils.hpp"

namespace dcdb {

namespace {

std::string status_reason(int status) {
    switch (status) {
        case 200: return "OK";
        case 204: return "No Content";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 500: return "Internal Server Error";
        default: return "Unknown";
    }
}

std::string percent_decode(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size()) {
            const auto hex = [](char c) -> int {
                if (c >= '0' && c <= '9') return c - '0';
                if (c >= 'a' && c <= 'f') return c - 'a' + 10;
                if (c >= 'A' && c <= 'F') return c - 'A' + 10;
                return -1;
            };
            const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out.push_back(static_cast<char>(hi * 16 + lo));
                i += 2;
                continue;
            }
        }
        out.push_back(s[i] == '+' ? ' ' : s[i]);
    }
    return out;
}

/// Buffered line/byte reader over a TcpStream.
class StreamReader {
  public:
    explicit StreamReader(TcpStream& stream) : stream_(stream) {}

    /// Read a CRLF-terminated line (without terminator); false on EOF.
    bool read_line(std::string& out) {
        out.clear();
        while (true) {
            for (; scan_ < buf_.size(); ++scan_) {
                if (buf_[scan_] == '\n') {
                    out.assign(buf_.data(), scan_);
                    if (!out.empty() && out.back() == '\r') out.pop_back();
                    buf_.erase(buf_.begin(),
                               buf_.begin() + static_cast<long>(scan_) + 1);
                    scan_ = 0;
                    return true;
                }
            }
            if (!fill()) return false;
        }
    }

    bool read_n(std::string& out, std::size_t n) {
        while (buf_.size() < n) {
            if (!fill()) return false;
        }
        out.assign(buf_.data(), n);
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(n));
        scan_ = 0;
        return true;
    }

  private:
    bool fill() {
        std::uint8_t tmp[4096];
        const std::size_t n = stream_.read_some(tmp);
        if (n == 0) return false;
        buf_.insert(buf_.end(), reinterpret_cast<char*>(tmp),
                    reinterpret_cast<char*>(tmp) + n);
        return true;
    }

    TcpStream& stream_;
    std::vector<char> buf_;
    std::size_t scan_{0};
};

bool parse_request(StreamReader& reader, HttpRequest& req) {
    std::string line;
    if (!reader.read_line(line) || line.empty()) return false;

    const auto parts = split_nonempty(line, ' ');
    if (parts.size() != 3) return false;
    req.method = parts[0];
    std::string target = parts[1];

    const std::size_t qpos = target.find('?');
    if (qpos != std::string::npos) {
        req.query = parse_query_string(target.substr(qpos + 1));
        target.resize(qpos);
    }
    req.path = percent_decode(target);

    while (reader.read_line(line) && !line.empty()) {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        std::string key = to_lower(trim(line.substr(0, colon)));
        req.headers[key] = std::string(trim(line.substr(colon + 1)));
    }

    const auto it = req.headers.find("content-length");
    if (it != req.headers.end()) {
        const auto len = parse_u64(it->second);
        if (!len || *len > (64u << 20)) return false;
        if (!reader.read_n(req.body, *len)) return false;
    }
    return true;
}

std::string serialize_response(const HttpResponse& resp, bool keep_alive) {
    std::ostringstream os;
    os << "HTTP/1.1 " << resp.status << ' ' << status_reason(resp.status)
       << "\r\nContent-Type: " << resp.content_type
       << "\r\nContent-Length: " << resp.body.size()
       << "\r\nConnection: " << (keep_alive ? "keep-alive" : "close")
       << "\r\n\r\n"
       << resp.body;
    return os.str();
}

/// First path segment, folded into the telemetry name alphabet. Route
/// names come from the fixed REST surface, so cardinality stays small;
/// anything odd (long, empty after sanitizing) becomes "other".
std::string route_metric_component(const std::string& path) {
    std::size_t begin = path.find_first_not_of('/');
    if (begin == std::string::npos) return "root";
    std::size_t end = path.find('/', begin);
    if (end == std::string::npos) end = path.size();
    std::string out;
    for (std::size_t i = begin; i < end && out.size() < 24; ++i) {
        const char c = path[i];
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
            out.push_back(c);
        } else if (c >= 'A' && c <= 'Z') {
            out.push_back(static_cast<char>(c - 'A' + 'a'));
        } else {
            out.push_back('_');
        }
    }
    if (out.empty() || end - begin > 24) return "other";
    return out;
}

}  // namespace

std::map<std::string, std::string> parse_query_string(const std::string& qs) {
    std::map<std::string, std::string> out;
    for (const auto& pair : split_nonempty(qs, '&')) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            out[percent_decode(pair)] = "";
        } else {
            out[percent_decode(pair.substr(0, eq))] =
                percent_decode(pair.substr(eq + 1));
        }
    }
    return out;
}

HttpServer::HttpServer(std::uint16_t port, HttpHandler handler,
                       telemetry::MetricRegistry* registry)
    : handler_(std::move(handler)),
      registry_(telemetry::resolve_registry(registry, owned_registry_)),
      requests_(registry_.counter("http.requests")),
      listener_(port),
      port_(listener_.port()) {
    listener_.set_accept_timeout_ms(200);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
    if (stopping_.exchange(true)) return;
    // Wake accept(), and close the descriptor only once its thread is
    // gone: closing it under a blocked accept() races on the fd.
    listener_.shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.close();
    std::list<std::thread> workers;
    {
        std::scoped_lock lock(workers_mutex_);
        workers.swap(workers_);
        workers.splice(workers.end(), finished_);
    }
    for (auto& w : workers) w.join();
}

void HttpServer::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        auto stream = listener_.accept();
        if (!stream) continue;
        std::scoped_lock lock(workers_mutex_);
        // Join the workers that finished since the last connection, so a
        // long-lived server keeps one thread (and one stack mapping) per
        // open connection, not one per connection ever served.
        for (auto& w : finished_) w.join();
        finished_.clear();
        // The worker moves its own node to finished_ when it is done; the
        // lock held here keeps it from doing so before *self is assigned.
        const auto self = workers_.emplace(workers_.end());
        *self = std::thread([this, self, s = std::move(*stream)]() mutable {
            serve_connection(std::move(s));
            std::scoped_lock done(workers_mutex_);
            // Once stop() has taken the lists, it joins this thread.
            if (!stopping_.load())
                finished_.splice(finished_.end(), workers_, self);
        });
    }
}

void HttpServer::serve_connection(TcpStream stream) {
    stream.set_recv_timeout_ms(5000);
    try {
        StreamReader reader(stream);
        while (!stopping_.load(std::memory_order_relaxed)) {
            HttpRequest req;
            if (!parse_request(reader, req)) break;
            const bool keep_alive =
                req.headers.count("connection") == 0 ||
                to_lower(req.headers["connection"]) != "close";
            HttpResponse resp;
            requests_.add(1);
            const TimestampNs handler_start = steady_ns();
            try {
                resp = handler_(req);
            } catch (const std::exception& e) {
                resp = HttpResponse::error(std::string("handler error: ") +
                                           e.what() + "\n");
            }
            registry_
                .histogram("http.latency." + route_metric_component(req.path))
                .record(steady_ns() - handler_start);
            stream.write_all(serialize_response(resp, keep_alive));
            if (!keep_alive) break;
        }
    } catch (const NetError&) {
        // Timeouts and resets on shutdown are expected; drop the connection.
    }
}

HttpResponse http_request(const std::string& host, std::uint16_t port,
                          const std::string& method, const std::string& target,
                          const std::string& body, int timeout_ms) {
    TcpStream stream = TcpStream::connect(host, port, timeout_ms);
    stream.set_recv_timeout_ms(timeout_ms);

    std::ostringstream os;
    os << method << ' ' << target << " HTTP/1.1\r\nHost: " << host
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n"
       << body;
    stream.write_all(os.str());

    StreamReader reader(stream);
    std::string line;
    if (!reader.read_line(line)) throw NetError("empty HTTP response");
    HttpResponse resp;
    {
        const auto parts = split_nonempty(line, ' ');
        if (parts.size() < 2 || !starts_with(parts[0], "HTTP/"))
            throw NetError("malformed status line: " + line);
        resp.status = static_cast<int>(parse_i64(parts[1]).value_or(0));
    }
    std::size_t content_length = std::string::npos;
    while (reader.read_line(line) && !line.empty()) {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        const std::string key = to_lower(trim(line.substr(0, colon)));
        const std::string value{trim(line.substr(colon + 1))};
        if (key == "content-type") resp.content_type = value;
        if (key == "content-length")
            content_length = parse_u64(value).value_or(0);
    }
    if (content_length != std::string::npos) {
        if (!reader.read_n(resp.body, content_length))
            throw NetError("truncated HTTP body");
    } else {
        // Read until EOF.
        std::string chunk;
        while (reader.read_n(chunk, 1)) resp.body += chunk;
    }
    return resp;
}

}  // namespace dcdb
