#include "telemetry/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/bytebuf.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/string_utils.hpp"

namespace dcdb::telemetry::trace {

namespace {

constexpr const char* kStageNames[kStageCount] = {
    "sample",     "coalesce", "publish", "broker_route",
    "decode",     "insert",   "log_append", "sync",
};

std::uint64_t round_up_pow2(std::uint64_t v) {
    if (v <= 1) return 1;
    return std::bit_ceil(v);
}

std::string hex_id(std::uint64_t id) { return strfmt("%016llx", (unsigned long long)id); }

}  // namespace

const char* stage_name(Stage stage) noexcept {
    const auto i = static_cast<std::size_t>(stage);
    return i < kStageCount ? kStageNames[i] : "unknown";
}

std::optional<Stage> stage_from_name(std::string_view name) noexcept {
    for (std::size_t i = 0; i < kStageCount; ++i) {
        if (name == kStageNames[i]) return static_cast<Stage>(i);
    }
    return std::nullopt;
}

// ----------------------------------------------------------- trailer

void store_trailer(std::uint8_t* out, const TraceContext& ctx) noexcept {
    out[0] = kTrailerMagic;
    out[1] = kTrailerVersion;
    store_be64(out + 2, ctx.trace_id);
    store_be64(out + 10, ctx.origin_ns);
    out[18] = ctx.flags;
}

TraceContext decode_trailer(std::span<const std::uint8_t> tail) noexcept {
    TraceContext ctx;
    if (tail.size() != kTrailerBytes) return ctx;
    if (tail[0] != kTrailerMagic || tail[1] != kTrailerVersion) return ctx;
    std::uint64_t id = 0;
    std::uint64_t origin = 0;
    for (int i = 0; i < 8; ++i) id = (id << 8) | tail[2 + i];
    for (int i = 0; i < 8; ++i) origin = (origin << 8) | tail[10 + i];
    if (id == 0) return ctx;
    ctx.trace_id = id;
    ctx.origin_ns = origin;
    ctx.flags = tail[18];
    return ctx;
}

TraceContext peek_trailer(std::span<const std::uint8_t> payload) noexcept {
    if (payload.size() < kTrailerBytes) return {};
    return decode_trailer(payload.subspan(payload.size() - kTrailerBytes));
}

// ------------------------------------------------------------- tracer

Tracer::Tracer(Config config)
    : seed_(config.seed),
      slowest_keep_(std::max<std::size_t>(config.slowest_keep, 1)),
      fixed_threshold_ns_(config.outlier_threshold_ns),
      ring_(std::make_unique<Slot[]>(kRingSlots)),
      minted_(resolve_registry(config.registry, owned_registry_)
                  .counter("trace.minted")),
      spans_(resolve_registry(config.registry, owned_registry_)
                 .counter("trace.spans")),
      completed_(resolve_registry(config.registry, owned_registry_)
                     .counter("trace.completed")),
      forced_(resolve_registry(config.registry, owned_registry_)
                  .counter("trace.forced")),
      e2e_latency_(resolve_registry(config.registry, owned_registry_)
                       .histogram("trace.e2e.latency")) {
    if (config.sample_every > 0) {
        minting_ = true;
        rate_mask_ = round_up_pow2(config.sample_every) - 1;
    }
    if (fixed_threshold_ns_ != 0)
        threshold_ns_.store(fixed_threshold_ns_, std::memory_order_relaxed);
}

TraceContext Tracer::start(TimestampNs origin_ns) noexcept {
    // SplitMix64 over a per-tracer sequence: IDs are unique within a
    // process and collide across processes with probability ~2^-64 per
    // pair as long as seeds differ (the Pusher seeds from its wall-clock
    // start time).
    std::uint64_t state =
        seed_ + mint_counter_.load(std::memory_order_relaxed) +
        origin_ns;
    std::uint64_t id = splitmix64(state);
    if (id == 0) id = 1;  // 0 is the "untraced" sentinel
    minted_.add(1);
    TraceContext ctx;
    ctx.trace_id = id;
    ctx.origin_ns = origin_ns;
    ctx.flags = kFlagSampled;
    return ctx;
}

void Tracer::record_span(const TraceContext& ctx, Stage stage,
                         TimestampNs start_ns, std::uint64_t duration_ns,
                         std::uint32_t readings) noexcept {
    if (!ctx.valid()) return;
    const std::uint64_t slot_index =
        ring_head_.fetch_add(1, std::memory_order_relaxed) & (kRingSlots - 1);
    Slot& slot = ring_[slot_index];
    // Seqlock write: odd seq marks the slot in-progress so readers skip
    // it. Two writers only meet here when one laps the entire ring while
    // the other is mid-write; the worst outcome is one garbled
    // diagnostic span, never a crash or a torn read observed as valid
    // (readers re-check seq equality). See DESIGN.md §11.
    const std::uint64_t seq =
        slot.seq.load(std::memory_order_relaxed) + 1;
    slot.seq.store(seq, std::memory_order_release);
    slot.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
    slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
    slot.readings.store(readings, std::memory_order_relaxed);
    slot.stage.store(static_cast<std::uint8_t>(stage),
                     std::memory_order_relaxed);
    slot.flags.store(ctx.flags, std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_release);
    spans_.add(1);
}

void Tracer::complete(const TraceContext& ctx, TimestampNs end_ns) {
    if (!ctx.valid()) return;
    const std::uint64_t e2e =
        end_ns > ctx.origin_ns ? end_ns - ctx.origin_ns : 0;
    e2e_latency_.record(e2e, ctx.trace_id);
    completed_.add(1);

    const std::uint64_t n =
        completions_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fixed_threshold_ns_ == 0 && (n & 63) == 0) recompute_threshold();

    const std::uint64_t threshold =
        threshold_ns_.load(std::memory_order_relaxed);
    const bool outlier = threshold != 0 && e2e > threshold;
    if (outlier) {
        forced_.add(1);
        // The structured slow-trace line: greppable key=value pairs so a
        // log pipeline can alert on it without parsing prose.
        DCDB_WARN("trace") << "slow_trace id=" << hex_id(ctx.trace_id)
                           << " e2e_ns=" << e2e
                           << " threshold_ns=" << threshold
                           << " origin_ns=" << ctx.origin_ns;
    }
    // Keep the slowest-N regardless of outlier status so /traces.json
    // has content even before the threshold warms up.
    retain(ctx, e2e, outlier);
}

void Tracer::recompute_threshold() noexcept {
    const HistogramSnapshot snap = e2e_latency_.snapshot();
    // Don't trust a p99 from a handful of observations.
    if (snap.count() < 128) return;
    const double p99 = snap.quantile(0.99);
    threshold_ns_.store(static_cast<std::uint64_t>(p99),
                        std::memory_order_relaxed);
}

void Tracer::retain(const TraceContext& ctx, std::uint64_t e2e_ns,
                    bool outlier) {
    // Cheap rejection without the lock: a full table whose floor beats
    // this trace cannot admit it.
    if (!outlier &&
        e2e_ns <= slow_floor_ns_.load(std::memory_order_relaxed))
        return;

    TraceSummary summary;
    summary.trace_id = ctx.trace_id;
    summary.e2e_ns = e2e_ns;
    summary.flags =
        static_cast<std::uint8_t>(ctx.flags | (outlier ? kFlagForced : 0));
    // Harvest this trace's spans out of the ring before wrap loses them.
    for (const SpanRecord& span : ring_snapshot()) {
        if (span.trace_id == ctx.trace_id) summary.spans.push_back(span);
    }

    MutexLock lock(slow_mutex_);
    for (const TraceSummary& existing : slowest_) {
        if (existing.trace_id == ctx.trace_id) return;  // dup complete()
    }
    slowest_.push_back(std::move(summary));
    std::sort(slowest_.begin(), slowest_.end(),
              [](const TraceSummary& a, const TraceSummary& b) {
                  return a.e2e_ns > b.e2e_ns;
              });
    if (slowest_.size() > slowest_keep_) slowest_.resize(slowest_keep_);
    if (slowest_.size() == slowest_keep_)
        slow_floor_ns_.store(slowest_.back().e2e_ns,
                             std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::ring_snapshot() const {
    std::vector<SpanRecord> spans;
    spans.reserve(kRingSlots);
    for (std::size_t i = 0; i < kRingSlots; ++i) {
        const Slot& slot = ring_[i];
        const std::uint64_t seq1 =
            slot.seq.load(std::memory_order_acquire);
        if (seq1 == 0 || (seq1 & 1)) continue;  // empty or mid-write
        SpanRecord span;
        span.trace_id = slot.trace_id.load(std::memory_order_relaxed);
        span.start_ns = slot.start_ns.load(std::memory_order_relaxed);
        span.duration_ns =
            slot.duration_ns.load(std::memory_order_relaxed);
        span.readings = slot.readings.load(std::memory_order_relaxed);
        const std::uint8_t stage =
            slot.stage.load(std::memory_order_relaxed);
        span.flags = slot.flags.load(std::memory_order_relaxed);
        if (stage >= kStageCount) continue;
        span.stage = static_cast<Stage>(stage);
        // Seqlock read validation: a concurrent writer bumped seq, so
        // the fields above may mix two spans — drop the slot.
        if (slot.seq.load(std::memory_order_acquire) != seq1) continue;
        if (!span.valid()) continue;
        spans.push_back(span);
    }
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  return a.start_ns < b.start_ns;
              });
    return spans;
}

std::vector<Tracer::TraceSummary> Tracer::slowest() const {
    MutexLock lock(slow_mutex_);
    return slowest_;
}

// ------------------------------------------------------------ reports

namespace {

void append_span_line(std::ostringstream& os, const SpanRecord& span) {
    os << "span " << hex_id(span.trace_id) << ' '
       << stage_name(span.stage) << ' ' << span.start_ns << ' '
       << span.duration_ns << ' ' << span.readings << ' '
       << static_cast<unsigned>(span.flags) << '\n';
}

void append_json_span(std::ostringstream& os, const SpanRecord& span) {
    os << "{\"stage\":\"" << stage_name(span.stage)
       << "\",\"start_ns\":" << span.start_ns
       << ",\"dur_ns\":" << span.duration_ns
       << ",\"readings\":" << span.readings << "}";
}

}  // namespace

std::string to_text(const Tracer& tracer, const std::string& site) {
    std::ostringstream os;
    os << "# dcdb-traces site=" << site
       << " minted=" << tracer.minted_count()
       << " completed=" << tracer.completed_count()
       << " forced=" << tracer.forced_count()
       << " threshold_ns=" << tracer.outlier_threshold_ns() << '\n';
    // Ring spans first (recent activity), then the spans harvested into
    // the slowest-N table (which survive ring wrap). parse_report()
    // dedups the overlap.
    for (const SpanRecord& span : tracer.ring_snapshot())
        append_span_line(os, span);
    for (const Tracer::TraceSummary& t : tracer.slowest()) {
        os << "slow " << hex_id(t.trace_id) << ' ' << t.e2e_ns << ' '
           << static_cast<unsigned>(t.flags) << '\n';
        for (const SpanRecord& span : t.spans) append_span_line(os, span);
    }
    return os.str();
}

std::string to_json(const Tracer& tracer, const std::string& site) {
    std::ostringstream os;
    os << "{\"site\":\"" << site << '"'
       << ",\"minted\":" << tracer.minted_count()
       << ",\"completed\":" << tracer.completed_count()
       << ",\"forced\":" << tracer.forced_count()
       << ",\"threshold_ns\":" << tracer.outlier_threshold_ns()
       << ",\"slowest\":[";
    bool first = true;
    for (const Tracer::TraceSummary& t : tracer.slowest()) {
        if (!first) os << ',';
        first = false;
        os << "{\"id\":\"" << hex_id(t.trace_id) << '"'
           << ",\"e2e_ns\":" << t.e2e_ns
           << ",\"forced\":" << ((t.flags & kFlagForced) ? "true" : "false")
           << ",\"spans\":[";
        for (std::size_t i = 0; i < t.spans.size(); ++i) {
            if (i) os << ',';
            append_json_span(os, t.spans[i]);
        }
        os << "]}";
    }
    os << "],\"recent\":[";
    first = true;
    for (const SpanRecord& span : tracer.ring_snapshot()) {
        if (!first) os << ',';
        first = false;
        os << "{\"id\":\"" << hex_id(span.trace_id) << "\",";
        // append_json_span opens its own object; inline the fields here
        // so the id rides along.
        os << "\"stage\":\"" << stage_name(span.stage)
           << "\",\"start_ns\":" << span.start_ns
           << ",\"dur_ns\":" << span.duration_ns
           << ",\"readings\":" << span.readings << '}';
    }
    os << "]}";
    return os.str();
}

ParsedTraceReport parse_report(const std::string& text) {
    ParsedTraceReport report;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (starts_with(line, "# dcdb-traces")) {
            for (const std::string& field : split_nonempty(line, ' ')) {
                if (starts_with(field, "site="))
                    report.site = field.substr(5);
            }
            continue;
        }
        if (!starts_with(line, "span ")) continue;
        const auto fields = split_nonempty(line, ' ');
        if (fields.size() != 7) continue;
        ParsedSpan span;
        span.site = report.site;
        // Trace IDs render as 16 hex digits; strtoull handles that
        // directly.
        char* end = nullptr;
        span.trace_id = std::strtoull(fields[1].c_str(), &end, 16);
        if (end == nullptr || *end != '\0' || span.trace_id == 0) continue;
        if (!stage_from_name(fields[2])) continue;
        span.stage = fields[2];
        const auto start = parse_u64(fields[3]);
        const auto dur = parse_u64(fields[4]);
        const auto readings = parse_u64(fields[5]);
        const auto flags = parse_u64(fields[6]);
        if (!start || !dur || !readings || !flags) continue;
        span.start_ns = *start;
        span.duration_ns = *dur;
        span.readings = static_cast<std::uint32_t>(*readings);
        span.flags = static_cast<std::uint8_t>(*flags);
        report.spans.push_back(std::move(span));
    }
    return report;
}

std::string stitch_timeline(const std::vector<ParsedTraceReport>& reports,
                            std::size_t max_traces) {
    // Dedup on (site, id, stage, start): the text report emits ring
    // spans and slow-table harvests of the same span twice.
    struct SpanKey {
        std::string site;
        std::uint64_t id;
        std::string stage;
        TimestampNs start;
        bool operator<(const SpanKey& o) const {
            if (id != o.id) return id < o.id;
            if (site != o.site) return site < o.site;
            if (stage != o.stage) return stage < o.stage;
            return start < o.start;
        }
    };
    std::map<SpanKey, ParsedSpan> spans;
    for (const ParsedTraceReport& report : reports) {
        for (const ParsedSpan& span : report.spans) {
            SpanKey key{span.site, span.trace_id, span.stage,
                        span.start_ns};
            auto [it, inserted] = spans.emplace(key, span);
            if (!inserted &&
                span.duration_ns > it->second.duration_ns)
                it->second = span;
        }
    }

    std::map<std::uint64_t, std::vector<ParsedSpan>> traces;
    for (auto& [key, span] : spans)
        traces[key.id].push_back(std::move(span));

    // Fullest traces first — the ones that crossed the most stages are
    // the ones worth reading — then most recent.
    std::vector<std::uint64_t> order;
    for (const auto& [id, trace_spans] : traces) order.push_back(id);
    std::sort(order.begin(), order.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                  const auto& sa = traces[a];
                  const auto& sb = traces[b];
                  if (sa.size() != sb.size()) return sa.size() > sb.size();
                  TimestampNs ta = 0, tb = 0;
                  for (const auto& s : sa) ta = std::max(ta, s.start_ns);
                  for (const auto& s : sb) tb = std::max(tb, s.start_ns);
                  return ta > tb;
              });
    if (order.size() > max_traces) order.resize(max_traces);

    std::ostringstream os;
    if (order.empty()) {
        os << "no traces (is traceSampleRate set and traffic flowing?)\n";
        return os.str();
    }
    for (const std::uint64_t id : order) {
        auto& trace_spans = traces[id];
        std::sort(trace_spans.begin(), trace_spans.end(),
                  [](const ParsedSpan& a, const ParsedSpan& b) {
                      return a.start_ns < b.start_ns;
                  });
        TimestampNs t0 = trace_spans.front().start_ns;
        std::uint64_t total = 0;
        for (const ParsedSpan& s : trace_spans) {
            const TimestampNs end = s.start_ns + s.duration_ns;
            if (end > t0 + total) total = end - t0;
        }
        os << "trace " << hex_id(id) << "  stages=" << trace_spans.size()
           << "  span=" << total << "ns\n";
        for (const ParsedSpan& s : trace_spans) {
            os << strfmt("  +%-12llu %-12s %-10s %8lluns  readings=%u\n",
                         (unsigned long long)(s.start_ns - t0),
                         s.stage.c_str(), s.site.c_str(),
                         (unsigned long long)s.duration_ns, s.readings);
        }
    }
    return os.str();
}

}  // namespace dcdb::telemetry::trace
