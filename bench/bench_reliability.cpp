// Reliability-path micro-benchmarks: what the no-loss delivery pipeline
// costs on the hot paths. Three questions:
//   1. What does a disarmed FaultInjector::roll() cost? (It sits on
//      every transport send/recv and store insert, so it must be ~free.)
//   2. What does an armed roll cost? (Only paid inside fault tests.)
//   3. How expensive is commit-log durability at different sync
//      cadences, from "never fdatasync" to "fdatasync every append"
//      (Cassandra's batch-vs-periodic sync trade-off)?
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/fault.hpp"
#include "store/commitlog.hpp"
#include "store/node.hpp"

using namespace dcdb;

namespace {

// ------------------------------------------------- fault injector rolls

void BM_FaultRollDisarmed(benchmark::State& state) {
    FaultInjector::instance().disarm_all();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            FaultInjector::instance().roll(FaultPoint::kStoreInsert));
    }
}
BENCHMARK(BM_FaultRollDisarmed);

void BM_FaultRollArmed(benchmark::State& state) {
    // Armed but never firing: measures the locked RNG draw, the cost a
    // fault test pays per instrumented operation.
    FaultInjector::instance().arm(FaultPoint::kStoreInsert,
                                  {.error_prob = 0.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            FaultInjector::instance().roll(FaultPoint::kStoreInsert));
    }
    FaultInjector::instance().disarm(FaultPoint::kStoreInsert);
}
BENCHMARK(BM_FaultRollArmed);

// --------------------------------------------- commit-log sync cadence

// Arg 0: appends per fdatasync (0 = rely on the OS page cache only).
void BM_CommitLogAppendSyncEvery(benchmark::State& state) {
    bench::ScratchDir dir("commitlog_sync");
    store::CommitLog log(dir.str() + "/commit.log",
                         [](const store::Key&, std::span<const store::Row>) {});
    const auto cadence = static_cast<std::uint64_t>(state.range(0));

    store::Row row{1, 42, 0};
    store::Mutation mutation{store::Key{}, {&row, 1}};
    mutation.key.sid[0] = 7;
    std::vector<std::uint8_t> record;
    std::uint64_t since_sync = 0;
    for (auto _ : state) {
        ++row.ts;
        store::CommitLog::encode_record({&mutation, 1}, record);
        log.append(record, 1);
        if (cadence != 0 && ++since_sync >= cadence) {
            log.sync();
            since_sync = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitLogAppendSyncEvery)->Arg(0)->Arg(1024)->Arg(256)->Arg(1);

// ------------------------------------------- end-to-end insert overhead

// StorageNode::insert with the commit log on, at the default sync
// cadence: the full durable write path the Collect Agent drives.
void BM_NodeInsertDurable(benchmark::State& state) {
    bench::ScratchDir dir("node_durable");
    store::StorageNode node({dir.str(), 64u << 20, true});
    store::Key key;
    key.sid[0] = 9;
    TimestampNs ts = 0;
    for (auto _ : state) {
        node.insert(key, ++ts, 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeInsertDurable);

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
