// Collect Agent RESTful API: "Collect Agents provide a sensor cache that
// can be queried via the same RESTful API [as Pushers] and that gives
// access to the most recent readings of all Pushers connected to them"
// (paper, Section 5.3). The shared routes come from DaemonApi; the agent
// adds its statistics, the stored series and the sensor hierarchy for
// Grafana-style level-by-level browsing.
#include <sstream>

#include "collectagent/collect_agent.hpp"
#include "common/string_utils.hpp"
#include "core/daemon_api.hpp"

namespace dcdb::collectagent {

namespace {

// The Grafana data-source path (paper, Section 5.4): select a sensor at
// some hierarchy level (via /hierarchy) and fetch its stored series.
HttpResponse handle_query(CollectAgent& agent, const HttpRequest& req) {
    const std::string topic = req.query_or("topic", "");
    if (topic.empty())
        return HttpResponse::bad_request(
            "usage: /query?topic=T[&t0=ns][&t1=ns]\n");
    const auto t0 = parse_u64(req.query_or("t0", "0"));
    const auto t1 =
        parse_u64(req.query_or("t1", std::to_string(kTimestampMax)));
    if (!t0 || !t1) return HttpResponse::bad_request("bad t0/t1\n");
    const auto readings = agent.query_stored(topic, *t0, *t1);
    std::ostringstream os;
    for (const auto& r : readings)
        os << topic << ',' << r.ts << ',' << r.value << '\n';
    return HttpResponse::ok(os.str(), "text/csv");
}

HttpResponse handle_hierarchy(CollectAgent& agent, const HttpRequest& req) {
    const std::string path = req.query_or("path", "/");
    std::ostringstream os;
    for (const auto& child : agent.hierarchy().children(path))
        os << child << "\n";
    return HttpResponse::ok(os.str());
}

HttpResponse handle_stats(CollectAgent& agent) {
    const auto s = agent.stats();
    return HttpResponse::ok(strfmt(
        "messages %llu\nreadings %llu\ndecode_errors %llu\n"
        "decode_salvaged %llu\nstore_errors %llu\nrefused %llu\n"
        "sensors %zu\n",
        static_cast<unsigned long long>(s.messages),
        static_cast<unsigned long long>(s.readings),
        static_cast<unsigned long long>(s.decode_errors),
        static_cast<unsigned long long>(s.salvaged),
        static_cast<unsigned long long>(s.store_errors),
        static_cast<unsigned long long>(s.refused), s.known_sensors));
}

}  // namespace

std::unique_ptr<HttpServer> make_agent_rest_server(CollectAgent& agent) {
    const DaemonApi api({"collect agent", "agent", "collectagent",
                         agent.cache(), agent.telemetry(), agent.tracer(),
                         [&agent] { return agent.readiness(); }},
                        {"/hierarchy", "/query", "/stats"});
    return std::make_unique<HttpServer>(
        0,
        [&agent, api](const HttpRequest& req) -> HttpResponse {
            if (req.path == "/hierarchy")
                return handle_hierarchy(agent, req);
            if (req.path == "/query") return handle_query(agent, req);
            if (req.path == "/stats") return handle_stats(agent);
            return api.serve(req);
        },
        &agent.telemetry());
}

}  // namespace dcdb::collectagent
