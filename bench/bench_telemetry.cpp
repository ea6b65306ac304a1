// Telemetry hot-path cost: the overhead contract of DESIGN.md §8 is that
// a metric update is approximately one relaxed atomic add, cheap enough
// to sit on every publish/insert/sample path. This bench measures
// Counter::add, Gauge::set, Histogram::record (single-threaded and with
// contending threads, where the sharding has to earn its keep) plus the
// cold registry lookup that hot paths are supposed to hoist out.
//
// `bench_telemetry --smoke` runs a fast self-check (wired into ctest):
// it fails when a single-threaded Counter::add or Histogram::record
// averages above 1µs, which would mean the hot path picked up a lock or
// an allocation. It also gates the tracing overhead contract (DESIGN.md
// §11): the untraced fast path (Tracer::maybe_start miss + trailer peek
// miss) must average <= 50ns with ZERO heap allocations, and the fully
// sampled path (mint + spans + complete) must stay bounded.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

using namespace dcdb;

// ------------------------------------------------- allocation counting
//
// Global operator new override counting every heap allocation in the
// process; the smoke check reads the counter around the untraced loop
// to prove the miss path is allocation-free.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line: inlined into a caller, GCC pairs the malloc() or free()
// with the caller's other half and warns of a mismatch
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

void BM_CounterAdd(benchmark::State& state) {
    static telemetry::Counter counter;
    for (auto _ : state) {
        counter.add(1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd)->Threads(1)->Threads(4)->Threads(8);

void BM_GaugeSet(benchmark::State& state) {
    static telemetry::Gauge gauge;
    std::int64_t v = 0;
    for (auto _ : state) {
        gauge.set(++v);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
    static telemetry::Histogram histogram;
    std::uint64_t v = 1;
    for (auto _ : state) {
        histogram.record(v);
        v = v * 3 + 1;  // spread across buckets
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4);

// The lookup hot paths are told to hoist to construction time: a map
// find under a mutex. Measured so the "capture Counter& once" advice in
// registry.hpp stays backed by a number.
void BM_RegistryLookup(benchmark::State& state) {
    telemetry::MetricRegistry registry;
    registry.counter("pusher.push.readings");
    for (auto _ : state) {
        benchmark::DoNotOptimize(registry.counter("pusher.push.readings"));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryLookup);

void BM_HistogramSnapshot(benchmark::State& state) {
    telemetry::Histogram histogram;
    for (std::uint64_t v = 1; v < 1'000'000; v *= 2) histogram.record(v);
    for (auto _ : state) {
        benchmark::DoNotOptimize(histogram.snapshot());
    }
}
BENCHMARK(BM_HistogramSnapshot);

void BM_PrometheusExport(benchmark::State& state) {
    telemetry::MetricRegistry registry;
    for (int i = 0; i < 32; ++i)
        registry.counter("bench.counter" + std::to_string(i)).add(i);
    for (int i = 0; i < 8; ++i)
        registry.histogram("bench.hist" + std::to_string(i)).record(1u << i);
    for (auto _ : state) {
        benchmark::DoNotOptimize(telemetry::to_prometheus(registry));
    }
}
BENCHMARK(BM_PrometheusExport);

void BM_TraceMaybeStartMiss(benchmark::State& state) {
    telemetry::trace::Tracer::Config tc;
    tc.sample_every = 1u << 30;  // effectively never mints
    static telemetry::trace::Tracer tracer(tc);
    TimestampNs origin = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tracer.maybe_start(++origin));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceMaybeStartMiss)->Threads(1)->Threads(4);

void BM_TracePeekTrailerMiss(benchmark::State& state) {
    const std::vector<std::uint8_t> payload(64, 0x42);  // no trailer
    for (auto _ : state) {
        benchmark::DoNotOptimize(telemetry::trace::peek_trailer(payload));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracePeekTrailerMiss);

void BM_TraceRecordSpan(benchmark::State& state) {
    telemetry::trace::Tracer::Config tc;
    tc.sample_every = 1;
    static telemetry::trace::Tracer tracer(tc);
    telemetry::trace::TraceContext ctx;
    ctx.trace_id = 0x1234;
    ctx.origin_ns = 1;
    ctx.flags = telemetry::trace::kFlagSampled;
    TimestampNs start = 1;
    for (auto _ : state) {
        tracer.record_span(ctx, telemetry::trace::Stage::kSample, ++start,
                           100, 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordSpan)->Threads(1)->Threads(4);

// ------------------------------------------------------------- smoke

constexpr double kSmokeBudgetNsPerOp = 1000.0;  // 1µs: orders of headroom
constexpr std::uint64_t kSmokeOps = 1'000'000;

// Tracing overhead contract (DESIGN.md §11): the untraced miss path
// sits on EVERY sample of every sensor, so it gets a hard 50ns budget
// and must not allocate. The sampled path runs ~1/1024 samples; it only
// needs to stay bounded (ring write + histogram + occasional harvest).
constexpr double kTraceMissBudgetNsPerOp = 50.0;
constexpr double kTraceSampledBudgetNsPerOp = 5000.0;
constexpr std::uint64_t kTraceSampledOps = 100'000;

int trace_smoke() {
    // Untraced fast path: maybe_start that misses + trailer peek that
    // misses — the per-sample and per-message cost when tracing is idle.
    telemetry::trace::Tracer::Config miss_config;
    miss_config.sample_every = 1u << 30;  // mints once (counter == 0)
    telemetry::trace::Tracer miss_tracer(miss_config);
    const std::vector<std::uint8_t> plain_payload(64, 0x42);

    std::uint64_t sink = 0;
    const std::uint64_t allocations_before =
        g_allocations.load(std::memory_order_relaxed);
    const TimestampNs miss_start = steady_ns();
    for (std::uint64_t i = 0; i < kSmokeOps; ++i) {
        sink += miss_tracer.maybe_start(i + 1).trace_id;
        sink += telemetry::trace::peek_trailer(plain_payload).trace_id;
    }
    const double miss_ns =
        static_cast<double>(steady_ns() - miss_start) / kSmokeOps;
    const std::uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed) - allocations_before;
    benchmark::DoNotOptimize(sink);

    // Fully sampled path: mint + three stage spans + completion, every
    // iteration (sample_every 1 — 1024x the default rate).
    telemetry::trace::Tracer::Config sampled_config;
    sampled_config.sample_every = 1;
    sampled_config.outlier_threshold_ns = ~0ull;  // no outlier log spam
    telemetry::trace::Tracer sampled_tracer(sampled_config);
    const TimestampNs sampled_start = steady_ns();
    for (std::uint64_t i = 0; i < kTraceSampledOps; ++i) {
        const auto ctx = sampled_tracer.maybe_start(i + 1);
        sampled_tracer.record_span(ctx, telemetry::trace::Stage::kSample,
                                   i + 1, 100, 1);
        sampled_tracer.record_span(ctx, telemetry::trace::Stage::kPublish,
                                   i + 2, 100, 1);
        sampled_tracer.record_span(ctx, telemetry::trace::Stage::kInsert,
                                   i + 3, 100, 1);
        sampled_tracer.complete(ctx, i + 1000);
    }
    const double sampled_ns =
        static_cast<double>(steady_ns() - sampled_start) / kTraceSampledOps;

    std::printf("trace smoke: untraced %.1f ns/op (budget %.0f, "
                "%llu allocations), sampled %.1f ns/op (budget %.0f)\n",
                miss_ns, kTraceMissBudgetNsPerOp,
                static_cast<unsigned long long>(allocations), sampled_ns,
                kTraceSampledBudgetNsPerOp);
    int rc = 0;
    if (allocations != 0) {
        std::fprintf(stderr, "trace smoke: untraced fast path allocated — "
                             "the miss path must stay allocation-free\n");
        rc = 1;
    }
    if (miss_ns > kTraceMissBudgetNsPerOp) {
        std::fprintf(stderr, "trace smoke: untraced fast path over its "
                             "50ns budget\n");
        rc = 1;
    }
    if (sampled_ns > kTraceSampledBudgetNsPerOp) {
        std::fprintf(stderr,
                     "trace smoke: sampled path over budget — a lock or "
                     "allocation crept into span recording\n");
        rc = 1;
    }
    if (sampled_tracer.completed_count() != kTraceSampledOps) {
        std::fprintf(stderr, "trace smoke: lost completions\n");
        rc = 1;
    }
    return rc;
}

int smoke() {
    telemetry::Counter counter;
    const TimestampNs counter_start = steady_ns();
    for (std::uint64_t i = 0; i < kSmokeOps; ++i) counter.add(1);
    const double counter_ns =
        static_cast<double>(steady_ns() - counter_start) / kSmokeOps;

    telemetry::Histogram histogram;
    const TimestampNs hist_start = steady_ns();
    for (std::uint64_t i = 0; i < kSmokeOps; ++i) histogram.record(i);
    const double hist_ns =
        static_cast<double>(steady_ns() - hist_start) / kSmokeOps;

    std::printf("telemetry smoke: Counter::add %.1f ns/op, "
                "Histogram::record %.1f ns/op (budget %.0f)\n",
                counter_ns, hist_ns, kSmokeBudgetNsPerOp);
    if (counter.value() != kSmokeOps ||
        histogram.snapshot().count() != kSmokeOps) {
        std::fprintf(stderr, "telemetry smoke: lost updates\n");
        return 1;
    }
    if (counter_ns > kSmokeBudgetNsPerOp || hist_ns > kSmokeBudgetNsPerOp) {
        std::fprintf(stderr,
                     "telemetry smoke: hot path over budget — a lock or "
                     "allocation crept into the metric update path\n");
        return 1;
    }
    return trace_smoke();
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) return smoke();
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
