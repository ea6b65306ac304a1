// End-to-end reading tracing: the per-process "flight recorder".
//
// The metric registry (registry.hpp) answers "how slow is each stage on
// average"; this module answers "where did THIS batch spend its 120 ms".
// A trace is minted on the Pusher at sample time (head sampling, default
// 1/1024 of group reads), rides inside the v1 batch payload as a compact
// 19-byte trailer (core/payload.hpp appends and strips it), and every
// pipeline stage it passes — sample, coalesce, publish, broker-route,
// decode, insert, log-append, sync — drops a fixed-size SpanRecord into
// a lock-free ring buffer in whichever process ran the stage. The
// Collect Agent completes the trace when the batch is durable and
// tail-retains outliers: a trace whose end-to-end latency crosses a
// histogram-derived threshold (p99 of `trace.e2e.latency`) is copied out
// of the ring into a slowest-N table and logged, so the interesting
// traces survive ring wrap. `dcdbconfig trace` stitches the pusher-side
// and agent-side spans of one trace ID into a single timeline.
//
// Overhead contract (enforced by `bench_telemetry --smoke`): the
// untraced path — one maybe_start() miss plus one trailer peek — costs
// under 50 ns per batch and performs zero heap allocations; the sampled
// path is bounded but may allocate off the hot path (slowest-N copies).
//
// Wire trailer (appended after the last v1 section; never present in
// v0 payloads, so old peers interoperate — an old decoder sees the
// trailer as 19 torn trailing bytes and salvages every reading):
//
//   u8 magic 0xDC, u8 version, u64be trace id, u64be origin ns (wall
//   clock at mint), u8 flags
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/types.hpp"
#include "telemetry/registry.hpp"

namespace dcdb::telemetry::trace {

/// The canonical pipeline stages, in pipeline order. Every span-record
/// call site must name one of these (dcdblint rule `trace-stage`): the
/// stage names are the cross-process stitching grammar, so a free-form
/// string would silently fall out of every timeline.
enum class Stage : std::uint8_t {
    kSample = 0,
    kCoalesce,
    kPublish,
    kBrokerRoute,
    kDecode,
    kInsert,
    kLogAppend,
    kSync,
};
inline constexpr std::size_t kStageCount = 8;

/// Stable snake_case name ("broker_route"); the wire/report format.
const char* stage_name(Stage stage) noexcept;
std::optional<Stage> stage_from_name(std::string_view name) noexcept;

inline constexpr std::uint8_t kFlagSampled = 0x01;  // head-sampled at mint
inline constexpr std::uint8_t kFlagForced = 0x02;   // tail-retained outlier

/// The span context carried across processes: everything a stage needs
/// to attribute its span. trace_id 0 means "not traced" — the invalid
/// context is the untraced fast path and must stay branch-cheap to test.
struct TraceContext {
    std::uint64_t trace_id{0};
    TimestampNs origin_ns{0};  // wall clock at mint (NTP-correlated)
    std::uint8_t flags{0};

    bool valid() const noexcept { return trace_id != 0; }
};

// ----------------------------------------------------------- trailer

inline constexpr std::uint8_t kTrailerMagic = 0xDC;
inline constexpr std::uint8_t kTrailerVersion = 1;
inline constexpr std::size_t kTrailerBytes = 1 + 1 + 8 + 8 + 1;

/// Store the 19-byte trailer for a valid `ctx` at `out`, which must have
/// room for kTrailerBytes.
void store_trailer(std::uint8_t* out, const TraceContext& ctx) noexcept;

/// Decode a span that is EXACTLY the 19 trailer bytes. Returns the
/// invalid context on any mismatch (wrong size, magic, version, zero id).
TraceContext decode_trailer(std::span<const std::uint8_t> tail) noexcept;

/// Cheap probe for "does this payload end in a trace trailer?" without
/// decoding the payload — used by the broker, which treats payloads as
/// opaque. Checks only the trailing bytes, so a v0 payload whose last
/// record happens to mimic the magic can (rarely, ~2^-16) yield a junk
/// context; the consequence is one stray span record in a diagnostics
/// ring, which is acceptable. Authoritative attribution always comes
/// from decode_batch(), which only accepts a trailer after every
/// declared section parsed completely.
TraceContext peek_trailer(std::span<const std::uint8_t> payload) noexcept;

// ------------------------------------------------------------- spans

/// One stage's contribution to a trace. Fixed-size so the ring buffer
/// never allocates.
struct SpanRecord {
    std::uint64_t trace_id{0};
    TimestampNs start_ns{0};  // wall clock, cross-process comparable
    std::uint64_t duration_ns{0};
    std::uint32_t readings{0};
    Stage stage{Stage::kSample};
    std::uint8_t flags{0};

    bool valid() const noexcept { return trace_id != 0; }
};

/// Single-slot handoff of a minted context from the sampling thread to
/// the push thread (the two never rendezvous otherwise). put() simply
/// overwrites — if the pusher has not drained since the last mint, the
/// newer trace wins, matching the "freshest data first" drop policy
/// everywhere else in the Pusher. The fields are individually atomic
/// (relaxed loads/stores, release/acquire on the id) so a racing
/// put()/take() is tear-free per field; a cross-field mix would at worst
/// misdate one diagnostic trace.
class PendingTrace {
  public:
    void put(const TraceContext& ctx) noexcept {
        origin_.store(ctx.origin_ns, std::memory_order_relaxed);
        flags_.store(ctx.flags, std::memory_order_relaxed);
        id_.store(ctx.trace_id, std::memory_order_release);
    }

    /// Returns and clears the pending context (invalid when none).
    TraceContext take() noexcept {
        TraceContext ctx;
        ctx.trace_id = id_.exchange(0, std::memory_order_acquire);
        if (ctx.trace_id == 0) return ctx;
        ctx.origin_ns = origin_.load(std::memory_order_relaxed);
        ctx.flags = flags_.load(std::memory_order_relaxed);
        return ctx;
    }

  private:
    std::atomic<std::uint64_t> id_{0};
    std::atomic<std::uint64_t> origin_{0};
    std::atomic<std::uint8_t> flags_{0};
};

// ------------------------------------------------------------- tracer

/// Per-process tracing engine: head sampler, span ring ("flight
/// recorder"), and tail-based outlier retention. One per Pusher and one
/// per Collect Agent, like the metric registry — never a singleton.
class Tracer {
  public:
    struct Config {
        /// Head sampling: mint a trace for ~1/N group reads (rounded up
        /// to a power of two). 0 disables minting entirely; stages still
        /// record spans for contexts minted elsewhere.
        std::uint64_t sample_every{1024};
        /// Slowest-N completed traces retained beyond ring wrap.
        std::size_t slowest_keep{8};
        /// Fixed outlier threshold in ns; 0 derives it from the p99 of
        /// the trace.e2e.latency histogram once enough traces completed.
        std::uint64_t outlier_threshold_ns{0};
        /// Perturbs trace-ID minting so colocated processes started at
        /// the same instant do not collide.
        std::uint64_t seed{0};
        /// Registry for trace.* counters and the e2e histogram; nullptr
        /// keeps a private one.
        MetricRegistry* registry{nullptr};
    };

    explicit Tracer(Config config);
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Head-sampling gate: one relaxed fetch_add plus a mask test on the
    /// miss path (no allocation, no time syscall). `origin_ns` becomes
    /// the trace's birth timestamp on a hit.
    TraceContext maybe_start(TimestampNs origin_ns) noexcept {
        if (!minting_) return {};
        if ((mint_counter_.fetch_add(1, std::memory_order_relaxed) &
             rate_mask_) != 0)
            return {};
        return start(origin_ns);
    }

    /// Record one stage's span. Lock-free, allocation-free; a no-op for
    /// invalid contexts, so call sites need no branch of their own.
    void record_span(const TraceContext& ctx, Stage stage,
                     TimestampNs start_ns, std::uint64_t duration_ns,
                     std::uint32_t readings) noexcept;

    /// Trace finished (the batch is durable): records end-to-end latency
    /// with the trace ID as histogram exemplar, maintains the slowest-N
    /// table, and force-retains + logs outliers. May allocate — only
    /// sampled traces ever get here.
    void complete(const TraceContext& ctx, TimestampNs end_ns);

    std::uint64_t minted_count() const noexcept { return minted_.value(); }
    std::uint64_t completed_count() const noexcept {
        return completed_.value();
    }
    std::uint64_t forced_count() const noexcept { return forced_.value(); }
    std::uint64_t outlier_threshold_ns() const noexcept {
        return threshold_ns_.load(std::memory_order_relaxed);
    }

    /// Every valid span currently in the ring, sorted by start time.
    std::vector<SpanRecord> ring_snapshot() const;

    /// A completed trace with its harvested spans.
    struct TraceSummary {
        std::uint64_t trace_id{0};
        std::uint64_t e2e_ns{0};
        std::uint8_t flags{0};
        std::vector<SpanRecord> spans;
    };

    /// Slowest completed traces, worst first.
    std::vector<TraceSummary> slowest() const DCDB_EXCLUDES(slow_mutex_);

  private:
    TraceContext start(TimestampNs origin_ns) noexcept;
    void recompute_threshold() noexcept;
    void retain(const TraceContext& ctx, std::uint64_t e2e_ns, bool outlier)
        DCDB_EXCLUDES(slow_mutex_);

    /// Seqlock-protected ring slot. Writers claim slots via a global
    /// head counter, so two writers only meet on a slot when one laps
    /// the whole ring mid-write; the seq parity lets readers skip
    /// in-progress slots (see DESIGN.md §7/§11 for the residual race).
    struct alignas(kCacheLineBytes) Slot {
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> trace_id{0};
        std::atomic<std::uint64_t> start_ns{0};
        std::atomic<std::uint64_t> duration_ns{0};
        std::atomic<std::uint32_t> readings{0};
        std::atomic<std::uint8_t> stage{0};
        std::atomic<std::uint8_t> flags{0};
    };

    bool minting_{false};
    std::uint64_t rate_mask_{0};
    std::uint64_t seed_;
    static constexpr std::size_t kRingSlots = 1024;  // a power of two
    std::size_t slowest_keep_;
    std::uint64_t fixed_threshold_ns_;
    std::atomic<std::uint64_t> mint_counter_{0};
    std::atomic<std::uint64_t> ring_head_{0};
    std::atomic<std::uint64_t> threshold_ns_{0};
    std::atomic<std::uint64_t> completions_{0};
    /// Smallest e2e in a full slowest-N table; lets complete() reject
    /// uninteresting traces without taking slow_mutex_.
    std::atomic<std::uint64_t> slow_floor_ns_{0};
    std::unique_ptr<Slot[]> ring_;

    std::unique_ptr<MetricRegistry> owned_registry_;
    Counter& minted_;
    Counter& spans_;
    Counter& completed_;
    Counter& forced_;
    Histogram& e2e_latency_;

    mutable Mutex slow_mutex_;
    std::vector<TraceSummary> slowest_ DCDB_GUARDED_BY(slow_mutex_);
};

// ------------------------------------------------------------ reports

/// Line-oriented text report (`/traces`): a header line, one `span` line
/// per ring/slow span, one `slow` line per retained trace. Designed to
/// be parsed back by parse_report() — the same render/parse pairing as
/// telemetry::to_prometheus/parse_prometheus.
std::string to_text(const Tracer& tracer, const std::string& site);

/// JSON report (`/traces.json`): totals, slowest-N with per-stage
/// durations, and recent ring traces.
std::string to_json(const Tracer& tracer, const std::string& site);

struct ParsedSpan {
    std::string site;
    std::uint64_t trace_id{0};
    std::string stage;
    TimestampNs start_ns{0};
    std::uint64_t duration_ns{0};
    std::uint32_t readings{0};
    std::uint8_t flags{0};
};

struct ParsedTraceReport {
    std::string site;
    std::vector<ParsedSpan> spans;
};

/// Parse the subset of the text format to_text() emits. Unknown lines
/// are skipped, never fatal.
ParsedTraceReport parse_report(const std::string& text);

/// Merge span reports from several processes (pusher + collect agent),
/// join spans on trace ID, and render one timeline per trace — fullest
/// (most stages) first. `max_traces` bounds the output.
std::string stitch_timeline(const std::vector<ParsedTraceReport>& reports,
                            std::size_t max_traces = 16);

}  // namespace dcdb::telemetry::trace
