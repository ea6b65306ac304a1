// Pipeline benchmark: tester Pushers publish over loopback TCP into a
// Collect Agent and its store, while the benchmark times each round from
// sampling to the PUBACK of its last publish (which the broker sends only
// once the store insert has returned).
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--report METRIC,...]
//
// --trace 0 runs the real CollectAgent and prints the end-to-end metrics.
// --trace 1 runs the same phase untraced as a reference, then again with
// the span-recording stand-in agent and timed transports, and prints the
// per-layer metrics. The last line of output is the JSON result; it
// carries the --report metrics (run.py passes BENCHMARK.json's list).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.hpp"
#include "common/clock.hpp"
#include "common/proc_metrics.hpp"
#include "common/random.hpp"
#include "measure.hpp"
#include "rig.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using dcdb::steady_ns;
using dcdb::analysis::mean;
using dcdb::analysis::quantile;

// Why each workload exists, and which layers it loads or bypasses, is
// recorded in ../layers.json.
const Workload kWorkloads[] = {
    // name, sessions, groups, sensors, readings/round, interval s,
    // rounds/s, queries beside ingest, preload rounds
    {"wide_fanin", 4, 8, 250, 1, 10, 0.0, false, 0},
    {"burst", 4, 1, 32, 32, 1, 0.0, false, 0},
    {"dashboard", 3, 1, 32, 32, 1, 100.0, true, 120},
};

/// Set-ups per untraced run; setup_s and setup_wall_s are their medians.
constexpr int kSetupRepeats = 11;
/// Open loop: how long after the phase rounds already due may still run
/// before the rest are abandoned and the run is marked unsustainable.
constexpr double kDrainGraceS = 2.0;

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10};
    bool trace{false};
    std::string out_dir{".bench_build/perfbench-out"};
    /// Metrics the JSON result carries (BENCHMARK.json's list for this
    /// --trace); every computed metric is printed either way.
    std::vector<std::string> report;
};

/// What one measured phase produced.
struct Phase {
    std::vector<double> latency_ms;  // per round: due time to push_now return
    std::vector<double> lag_ms;      // per round: start minus due time
    std::uint64_t readings{0};       // readings of completed rounds
    std::uint64_t abandoned{0};      // readings of due rounds never sampled
    double elapsed_s{0};
    double cpu_s{0};       // process CPU, less the query client's thread
    double rss_mb{0};      // peak resident set at the end of the phase
    bool sustainable{true};
    std::vector<double> query_us;
    std::uint64_t query_rows{0};
    std::uint64_t query_failures{0};
    double query_s{0};
    dcdb::store::NodeStats before;        // at phase start
    dcdb::store::NodeStats after;         // at phase end
    dcdb::store::NodeStats query_before;  // around the queries
    dcdb::store::NodeStats query_after;
};

struct SessionLog {
    std::vector<double> latency_ms;
    std::vector<double> lag_ms;
    std::uint64_t rounds{0};
    std::uint64_t abandoned_rounds{0};
    std::uint64_t last_end{0};
    std::exception_ptr error;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double process_cpu_s() {
    return static_cast<double>(dcdb::sample_self().cpu_ns) / 1e9;
}

void sleep_until_steady(std::uint64_t ns) {
    // dcdblint: allow-sleep (open-loop generator pacing)
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns)));
}

/// One generator thread: closed loop (next round right after the last
/// one returned) or open loop (rounds due on a fixed schedule).
void run_session(Rig& rig, int s, std::uint64_t t_start, std::uint64_t t_end,
                 std::uint64_t seed, SessionLog& log) {
    const Workload& w = rig.workload();
    dcdb::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(s));
    const auto record = [&](std::uint64_t due, std::uint64_t end) {
        log.latency_ms.push_back(ms(end - due));
        log.last_end = end;
        ++log.rounds;
    };
    log.last_end = t_start;
    if (w.rounds_per_s <= 0) {
        // Closed loop: a round is due when its sampling begins; the lag is
        // the generator's own gap since the previous round returned.
        const std::uint64_t first = t_start + rng.below(1'000'000);
        sleep_until_steady(first);
        for (std::uint64_t start = steady_ns(), prev_end = first;
             start < t_end; start = steady_ns()) {
            log.lag_ms.push_back(ms(start - prev_end));
            rig.round(s);
            prev_end = steady_ns();
            record(start, prev_end);
        }
        return;
    }
    // Open loop: the seed picks this session's send offset in the period.
    const auto period = static_cast<std::uint64_t>(1e9 / w.rounds_per_s);
    const std::uint64_t offset = rng.below(period);
    const auto grace_end =
        t_end + static_cast<std::uint64_t>(kDrainGraceS * 1e9);
    for (std::uint64_t due = t_start + offset; due < t_end; due += period) {
        std::uint64_t start = steady_ns();
        if (start < due) {
            sleep_until_steady(due);
            start = steady_ns();
        } else if (start > grace_end) {
            log.abandoned_rounds += (t_end - due + period - 1) / period;
            break;
        }
        log.lag_ms.push_back(ms(start - due));
        rig.round(s);
        record(due, steady_ns());
    }
}

void run_queries(Rig& rig, dcdb::Rng& rng, std::uint64_t until, Phase& p) {
    while (steady_ns() < until) {
        const QueryResult q = rig.query_window(rng);
        p.query_us.push_back(q.us);
        p.query_rows += q.rows;
        if (!q.ok) ++p.query_failures;
    }
}

/// The measured phase: one generator thread per session, plus the query
/// client when the workload runs queries beside ingest.
Phase run_phase(Rig& rig, double seconds, std::uint64_t seed) {
    const Workload& w = rig.workload();
    Phase p;
    std::vector<SessionLog> logs(static_cast<std::size_t>(w.sessions));
    dcdb::Rng query_rng(seed ^ 0x51ED270B27D0C5A3ull);
    std::exception_ptr query_error;
    double query_cpu_s = 0;

    settle_disk(rig.data_dir());
    p.before = rig.node_stats();
    p.query_before = p.before;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t_start = steady_ns();
    const auto t_end = t_start + static_cast<std::uint64_t>(seconds * 1e9);
    {
        std::vector<std::jthread> threads;
        for (int s = 0; s < w.sessions; ++s) {
            threads.emplace_back([&, s] {
                auto& log = logs[static_cast<std::size_t>(s)];
                try {
                    run_session(rig, s, t_start, t_end, seed, log);
                } catch (...) {
                    log.error = std::current_exception();
                }
            });
        }
        if (w.queries_beside_ingest) {
            threads.emplace_back([&] {
                const std::uint64_t cpu_ns = dcdb::thread_cpu_ns();
                try {
                    run_queries(rig, query_rng, t_end, p);
                } catch (...) {
                    query_error = std::current_exception();
                }
                query_cpu_s =
                    static_cast<double>(dcdb::thread_cpu_ns() - cpu_ns) / 1e9;
            });
        }
    }
    p.cpu_s = process_cpu_s() - cpu0 - query_cpu_s;
    p.rss_mb = peak_rss_mb();
    p.after = rig.node_stats();
    if (query_error) std::rethrow_exception(query_error);

    std::uint64_t last_end = t_start;
    for (const auto& log : logs) {
        if (log.error) std::rethrow_exception(log.error);
        p.latency_ms.insert(p.latency_ms.end(), log.latency_ms.begin(),
                            log.latency_ms.end());
        p.lag_ms.insert(p.lag_ms.end(), log.lag_ms.begin(), log.lag_ms.end());
        p.readings += log.rounds * rig.readings_per_round();
        p.abandoned += log.abandoned_rounds * rig.readings_per_round();
        last_end = std::max(last_end, log.last_end);
    }
    p.sustainable = p.abandoned == 0;
    p.elapsed_s = static_cast<double>(last_end - t_start) / 1e9;

    p.query_s = seconds;
    p.query_after = p.after;
    return p;
}

/// Workloads without queries beside ingest get their query metrics here,
/// after the phase: the store is compacted first, so every window reads
/// one SSTable however much the run ingested, then the closed-loop client
/// runs for a tenth of the phase length.
void run_quiescent_queries(Rig& rig, double seconds, std::uint64_t seed,
                           Phase& p) {
    rig.cluster().compact_all();
    dcdb::Rng rng(seed ^ 0x51ED270B27D0C5A3ull);
    p.query_before = rig.node_stats();
    const double query_s = std::max(1.0, seconds / 10);
    const std::uint64_t q0 = steady_ns();
    run_queries(rig, rng, q0 + static_cast<std::uint64_t>(query_s * 1e9), p);
    p.query_s = static_cast<double>(steady_ns() - q0) / 1e9;
    p.query_after = rig.node_stats();
}

/// A metric as printed: value, unit and the sample it came from.
struct Metric {
    double value{0};
    std::string unit;
    std::string sample;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string conditions_json(const Options& o, const Workload& w,
                            const std::string& data_dir, bool sustainable) {
    std::string j = "{";
    j += "\"workload\": " + json_string(w.name);
    j += ", \"seed\": " + std::to_string(o.seed);
    j += ", \"seconds\": " + json_number(o.seconds);
    j += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
    j += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
    j += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
    j += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
    j += ", \"data_dir_fs\": " + json_string(filesystem_type(data_dir));
    j += ", \"store\": {\"nodes\": 1, \"partitioner\": \"hierarchy\", "
         "\"memtable_flush_bytes\": " +
         std::to_string(kMemtableFlushBytes) +
         ", \"commitlog\": true, \"commitlog_sync_every\": " +
         std::to_string(kCommitlogSyncEvery) +
         ", \"metastore\": \"file\"}";
    j += ", \"pusher\": {\"plugin\": \"tester\", \"qos\": 1, "
         "\"coalesce\": true, \"sessions\": " +
         std::to_string(w.sessions) +
         ", \"groups\": " + std::to_string(w.groups) +
         ", \"sensors_per_group\": " + std::to_string(w.sensors) +
         ", \"readings_per_sensor_per_round\": " +
         std::to_string(w.readings_per_round) + ", \"loop\": " +
         (w.rounds_per_s > 0 ? "\"open\"" : "\"closed\"") +
         ", \"rounds_per_s_per_session\": " + json_number(w.rounds_per_s) +
         ", \"preload_rounds\": " + std::to_string(w.preload_rounds) + "}";
    j += ", \"sustainable\": " + std::string(sustainable ? "true" : "false");
    return j + "}";
}

std::string n_of(std::size_t n, const char* what) {
    return "n=" + std::to_string(n) + " " + what;
}

/// Set-up cost, per set-up.
struct Setup {
    /// Process CPU (all threads): the work set-up does. Wall time also
    /// counts waits on fdatasync and CPU time the host steals from a VM,
    /// which swung set-up wall time up to 2x between runs, so the gated
    /// setup_s is the CPU time.
    std::vector<double> cpu_s;
    std::vector<double> wall_s;
};

Metrics end_to_end(const Phase& p, double disk_bytes_per_reading,
                   const Setup& setup) {
    const double readings = static_cast<double>(p.readings);
    const std::string rounds = n_of(p.latency_ms.size(), "rounds");
    const std::string queries = n_of(p.query_us.size(), "queries");
    return {
        {"readings_per_s", {readings / p.elapsed_s, "readings/s", rounds}},
        {"sample_to_stored_p50_ms",
         {quantile(p.latency_ms, 0.5), "ms", rounds}},
        {"sample_to_stored_p99_ms",
         {quantile(p.latency_ms, 0.99), "ms", rounds}},
        {"query_p50_us", {quantile(p.query_us, 0.5), "us", queries}},
        {"query_p99_us", {quantile(p.query_us, 0.99), "us", queries}},
        {"queries_per_s",
         {static_cast<double>(p.query_us.size()) / p.query_s, "1/s",
          queries}},
        {"cpu_us_per_reading", {p.cpu_s * 1e6 / readings, "us", ""}},
        {"disk_bytes_per_reading", {disk_bytes_per_reading, "B", ""}},
        {"peak_rss_mb", {p.rss_mb, "MB", ""}},
        {"setup_s",
         {quantile(setup.cpu_s, 0.5), "s",
          n_of(setup.cpu_s.size(), "set-ups, process CPU")}},
        {"setup_wall_s",
         {quantile(setup.wall_s, 0.5), "s",
          n_of(setup.wall_s.size(), "set-ups")}},
    };
}

Metrics per_layer(const Phase& ref, const Phase& p, const Rig& rig,
                  const std::vector<std::vector<Span>>& lanes,
                  bool open_loop) {
    std::map<std::string_view, std::vector<double>> dur;
    std::map<std::string_view, double> count;
    std::vector<double> push_self, deliver, ack;
    for (const auto& lane : lanes) {
        // The mqtt.send and agent.sink children of each mqtt.publish.
        std::vector<const Span*> send_of(lane.size() + 1);
        std::vector<const Span*> sink_of(lane.size() + 1);
        for (const Span& s : lane) {
            dur[s.name].push_back(static_cast<double>(s.end - s.start));
            count[s.name] += static_cast<double>(s.count);
            if (std::strcmp(s.name, "mqtt.send") == 0) send_of[s.parent] = &s;
            if (std::strcmp(s.name, "agent.sink") == 0) sink_of[s.parent] = &s;
        }
        for (const Span& s : lane) {
            const Span* send = send_of[s.id];
            const Span* sink = sink_of[s.id];
            if (send == nullptr || sink == nullptr) continue;
            deliver.push_back(static_cast<double>(sink->start) -
                              static_cast<double>(send->end));
            ack.push_back(static_cast<double>(s.end) -
                          static_cast<double>(sink->end));
        }
        const auto self = self_times_ns(lane, "pusher.push");
        push_self.insert(push_self.end(), self.begin(), self.end());
    }
    // Time per item handled (reading, section), in the span's own unit.
    const auto per = [&](const char* name) {
        const auto& d = dur[name];
        return count[name] > 0
                   ? std::accumulate(d.begin(), d.end(), 0.0) / count[name]
                   : 0.0;
    };
    const auto us = [](double ns) { return ns / 1e3; };
    const auto n = [](const std::vector<double>& v, const char* what) {
        return n_of(v.size(), what);
    };
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    const double readings = static_cast<double>(p.readings);
    const double queries = static_cast<double>(p.query_us.size());
    const double checks =
        delta(p.query_before.bloom_checks, p.query_after.bloom_checks);
    const double negatives =
        delta(p.query_before.bloom_negatives, p.query_after.bloom_negatives);
    const double syncs =
        delta(p.before.commitlog_syncs, p.after.commitlog_syncs);
    const double overhead =
        open_loop
            ? (p.cpu_s / readings) /
                      (ref.cpu_s / static_cast<double>(ref.readings)) - 1
            : 1 - (readings / p.elapsed_s) /
                      (static_cast<double>(ref.readings) / ref.elapsed_s);
    const auto& sample = dur["pusher.sample"];
    const auto& send = dur["mqtt.send"];
    const auto& decode = dur["agent.decode"];
    const auto& resolve = dur["agent.resolve"];
    const auto& bookkeep = dur["agent.bookkeep"];
    const auto& inserts = dur["store.insert"];
    return {
        {"pusher.sample_us", {us(mean(sample)), "us", n(sample, "rounds")}},
        {"pusher.push_self_us",
         {us(mean(push_self)), "us", n(push_self, "rounds")}},
        {"pusher.payload_bytes_per_reading",
         {count["agent.decode"] / std::max(1.0, count["agent.sink"]), "B",
          ""}},
        {"pusher.publish_failures",
         {static_cast<double>(rig.publish_failures()), "count", ""}},
        {"mqtt.send_us", {us(quantile(send, 0.5)), "us", n(send, "publishes")}},
        {"mqtt.deliver_us",
         {us(quantile(deliver, 0.5)), "us", n(deliver, "publishes")}},
        {"mqtt.ack_us", {us(quantile(ack, 0.5)), "us", n(ack, "publishes")}},
        {"agent.decode_us", {us(mean(decode)), "us", n(decode, "messages")}},
        {"agent.resolve_us_per_section",
         {us(per("agent.resolve")), "us", n(resolve, "messages")}},
        {"agent.bookkeep_us_per_section",
         {us(per("agent.bookkeep")), "us", n(bookkeep, "messages")}},
        {"store.insert_p50_us",
         {us(quantile(inserts, 0.5)), "us", n(inserts, "batches")}},
        {"store.insert_p99_us",
         {us(quantile(inserts, 0.99)), "us", n(inserts, "batches")}},
        {"store.insert_ns_per_reading", {per("store.insert"), "ns", ""}},
        {"store.syncs_per_kreading", {syncs * 1e3 / readings, "count", ""}},
        {"store.flush_stall_ms",
         {dcdb::analysis::max_of(inserts) / 1e6, "ms",
          n(inserts, "batches")}},
        {"store.flushes",
         {delta(p.before.flushes, p.after.flushes), "count", ""}},
        {"lib.query_p50_us",
         {quantile(p.query_us, 0.5), "us", n(p.query_us, "queries")}},
        {"lib.query_p99_us",
         {quantile(p.query_us, 0.99), "us", n(p.query_us, "queries")}},
        {"store.query_rows",
         {static_cast<double>(p.query_rows) / std::max(1.0, queries), "rows",
          ""}},
        {"store.bloom_negative_ratio",
         {checks > 0 ? negatives / checks : 0.0, "fraction", ""}},
        {"store.sstables",
         {static_cast<double>(p.after.sstables), "count", ""}},
        {"bench.gen_lag_p99_ms",
         {quantile(p.lag_ms, 0.99), "ms", n(p.lag_ms, "rounds")}},
        {"bench.trace_overhead_frac",
         {overhead, "fraction",
          open_loop ? "cpu per reading, traced vs untraced"
                    : "readings/s, traced vs untraced"}},
    };
}

bool reported(const Options& o, const std::string& name) {
    return o.report.empty() ||
           std::find(o.report.begin(), o.report.end(), name) != o.report.end();
}

void print_metrics(const Options& o, const Metrics& metrics) {
    for (const auto& [name, m] : metrics) {
        std::printf("  %-34s %16.6g %-10s %s%s\n", name.c_str(), m.value,
                    m.unit.c_str(), m.sample.c_str(),
                    reported(o, name) ? "" : " [printed only]");
    }
}

/// The metrics named in `names`, in that order, or all when it is empty.
std::string metrics_json(const Metrics& metrics,
                         const std::vector<std::string>& names,
                         bool with_sample) {
    std::vector<std::string> order = names;
    if (order.empty()) {
        for (const auto& entry : metrics) order.push_back(entry.first);
    }
    std::string j;
    for (const auto& name : order) {
        const auto it = std::find_if(
            metrics.begin(), metrics.end(),
            [&](const auto& entry) { return entry.first == name; });
        if (it == metrics.end())
            throw std::runtime_error("no metric named " + name);
        const Metric& m = it->second;
        j += (j.empty() ? "" : ", ") + json_string(name) +
             ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit);
        if (with_sample) j += ", \"sample\": " + json_string(m.sample);
        j += "}";
    }
    return "{" + j + "}";
}

/// Readings sampled, and the run's verdict, across the phases checked.
struct Tally {
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    bool correct{true};
    std::string error;

    void add(const Verification& v, const Phase& p) {
        attempted += v.expected + p.abandoned + p.query_us.size();
        failed += v.missing + p.abandoned + p.query_failures;
        if (v.wrong > 0) {
            correct = false;
            if (error.empty()) error = v.first_error;
        }
    }
};

std::string data_dir(const Options& o, const char* tag) {
    return o.out_dir + "/data/" + o.workload + "-" + tag + "-" +
           std::to_string(::getpid());
}

int run(const Options& o) {
    const Workload* found = nullptr;
    for (const auto& w : kWorkloads) {
        if (o.workload == w.name) found = &w;
    }
    if (found == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    const Workload& w = *found;
    std::filesystem::create_directories(o.out_dir + "/data");
    std::filesystem::create_directories(o.out_dir + "/results");
    std::filesystem::create_directories(o.out_dir + "/spans");

    Tally tally;
    Metrics metrics;
    bool sustainable = true;
    if (!o.trace) {
        // Set-up: store open, agent and Pusher construction, first
        // sighting of every topic and any history preload. Repeated; the
        // last rig is the one measured.
        Setup setup;
        std::unique_ptr<Rig> rig;
        for (int i = 0; i < kSetupRepeats; ++i) {
            rig.reset();
            settle_disk(o.out_dir);
            const double cpu0 = process_cpu_s();
            const std::uint64_t t0 = steady_ns();
            rig = std::make_unique<Rig>(w, data_dir(o, "run"), false, o.seed);
            rig->warm_up();
            setup.wall_s.push_back(static_cast<double>(steady_ns() - t0) /
                                   1e9);
            setup.cpu_s.push_back(process_cpu_s() - cpu0);
        }
        Phase p = run_phase(*rig, o.seconds, o.seed);
        rig->cluster().flush_all();
        const auto disk_bytes =
            static_cast<double>(rig->node_stats().disk_bytes);
        if (!w.queries_beside_ingest)
            run_quiescent_queries(*rig, o.seconds, o.seed, p);
        const Verification v = rig->verify();
        const double stored = static_cast<double>(v.expected - v.missing);
        const double disk = disk_bytes / std::max(1.0, stored);
        tally.add(v, p);
        sustainable = p.sustainable;
        metrics = end_to_end(p, disk, setup);
    } else {
        // The untraced reference and the traced phase split the run time,
        // so a traced run costs about as much as an untraced one.
        const double half = o.seconds / 2;
        Phase ref;
        {
            Rig rig(w, data_dir(o, "ref"), false, o.seed);
            rig.warm_up();
            ref = run_phase(rig, half, o.seed);
            tally.add(rig.verify(), ref);
        }
        Rig rig(w, data_dir(o, "traced"), true, o.seed);
        rig.warm_up();
        Phase p = run_phase(rig, half, o.seed);
        if (!w.queries_beside_ingest)
            run_quiescent_queries(rig, half, o.seed, p);
        const auto lanes = rig.spans();
        tally.add(rig.verify(), p);
        sustainable = ref.sustainable && p.sustainable;
        metrics = per_layer(ref, p, rig, lanes, w.rounds_per_s > 0);
        write_spans(o.out_dir + "/spans/" + o.workload + ".tsv", lanes);
    }

    const std::string conditions =
        conditions_json(o, w, o.out_dir + "/data", sustainable);
    std::printf("perfbench %s seed=%llu trace=%d: %s\n", w.name,
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                sustainable ? "sustainable"
                            : "UNSUSTAINABLE (ingest fell below the offered "
                              "rate; abandoned rounds count as failed)");
    std::printf("conditions %s\n", conditions.c_str());
    print_metrics(o, metrics);
    const auto attempted = std::max<std::uint64_t>(tally.attempted, 1);
    std::printf("  %-34s %16.6g %-10s n=%llu operations [printed only]\n",
                "failed_frac",
                static_cast<double>(tally.failed) /
                    static_cast<double>(attempted),
                "fraction", static_cast<unsigned long long>(tally.attempted));
    if (!tally.correct)
        std::printf("OUTPUT CHECK FAILED: %s\n", tally.error.c_str());

    const std::string result =
        "{\"correct\": " + std::string(tally.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(tally.attempted) +
        ", \"failed\": " + std::to_string(tally.failed) +
        ", \"metrics\": " + metrics_json(metrics, o.report, false) + "}";
    const std::string record_path = o.out_dir + "/results/" + o.workload +
                                    "-seed" + std::to_string(o.seed) +
                                    "-trace" + (o.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
        std::fprintf(f,
                     "{\"conditions\": %s, \"result\": %s, "
                     "\"samples\": %s}\n",
                     conditions.c_str(), result.c_str(),
                     metrics_json(metrics, {}, true).c_str());
        std::fclose(f);
    }
    std::printf("%s\n", result.c_str());
    // A reading with a wrong value or under a stray timestamp fails the
    // run outright; losses only count into failed.
    return tally.correct ? 0 : 1;
}

bool parse(int argc, char** argv, Options& o) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::stoull(value);
        } else if (key == "--seconds") {
            o.seconds = std::stod(value);
        } else if (key == "--trace") {
            o.trace = value == "1";
        } else if (key == "--out-dir") {
            o.out_dir = value;
        } else if (key == "--report") {
            for (std::size_t at = 0; at <= value.size();) {
                const std::size_t comma =
                    std::min(value.find(',', at), value.size());
                if (comma > at)
                    o.report.push_back(value.substr(at, comma - at));
                at = comma + 1;
            }
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Options options;
    try {
        if (!perfbench::parse(argc, argv, options)) {
            std::fprintf(stderr,
                         "usage: pipeline_bench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--out-dir DIR] "
                         "[--report METRIC,...]\n");
            return 2;
        }
        return perfbench::run(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
        return 1;
    }
}
