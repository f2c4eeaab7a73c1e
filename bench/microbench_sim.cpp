/**
 * @file
 * google-benchmark suite over the simulation kernel and runtime hot
 * paths: timeline reservations, full launch and memcpy round trips
 * (simulator throughput, i.e. how fast the simulator itself runs).
 */

#include <benchmark/benchmark.h>

#include "ml/cnn.hpp"
#include "ml/llm.hpp"
#include "runtime/context.hpp"
#include "sim/timeline.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace hcc;

void
BM_TimelineReserve(benchmark::State &state)
{
    sim::Timeline t;
    SimTime ready = 0;
    for (auto _ : state) {
        const auto iv = t.reserve(ready, 100);
        ready = iv.end - 50;
        benchmark::DoNotOptimize(iv);
    }
}
BENCHMARK(BM_TimelineReserve);

void
BM_TimelinePoolReserve(benchmark::State &state)
{
    sim::TimelinePool pool("p", static_cast<int>(state.range(0)));
    SimTime ready = 0;
    for (auto _ : state) {
        const auto iv = pool.reserve(ready, 100);
        ready += 10;
        benchmark::DoNotOptimize(iv);
    }
}
BENCHMARK(BM_TimelinePoolReserve)->Arg(2)->Arg(16);

void
BM_KernelLaunch(benchmark::State &state)
{
    rt::SystemConfig cfg;
    cfg.cc = state.range(0) != 0;
    rt::Context ctx(cfg);
    gpu::KernelDesc k{"bench_kernel", {}, time::us(10), 0, 0};
    for (auto _ : state)
        ctx.launchKernel(k);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelLaunch)->Arg(0)->Arg(1);

void
BM_Memcpy(benchmark::State &state)
{
    rt::SystemConfig cfg;
    cfg.cc = state.range(0) != 0;
    rt::Context ctx(cfg);
    auto h = ctx.hostPageable(size::mib(1));
    auto d = ctx.mallocDevice(size::mib(1));
    for (auto _ : state)
        ctx.memcpy(d, h, size::mib(1));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Memcpy)->Arg(0)->Arg(1);

void
BM_FullWorkload(benchmark::State &state)
{
    const auto &w =
        workloads::WorkloadRegistry::instance().get("2mm");
    for (auto _ : state) {
        rt::SystemConfig cfg;
        cfg.cc = state.range(0) != 0;
        const auto r = workloads::runWorkload(w, cfg);
        benchmark::DoNotOptimize(r.end_to_end);
    }
}
BENCHMARK(BM_FullWorkload)->Arg(0)->Arg(1);

// The full large cells of the figure grids.  items/sec == simulator
// trace events per wall-clock second (the BENCH_sim.json headline):
// every launch/copy/sync of the serving or training loop records
// events through the whole runtime hot path, so this measures the
// end-to-end single-cell simulator throughput that bounds Fig. 13/14
// sweep latency.

void
BM_LlmDecodeCell(benchmark::State &state)
{
    // Fig. 14's slowest column: HF | BF16 (224 launches per decode
    // step x 64 steps) at batch 8.
    ml::LlmConfig lc;
    lc.backend = ml::LlmBackend::HuggingFace;
    lc.quant = ml::LlmQuant::Bf16;
    lc.batch = 8;
    std::int64_t events = 0;
    for (auto _ : state) {
        rt::SystemConfig cfg;
        cfg.cc = state.range(0) != 0;
        rt::Context ctx(cfg);
        const auto r = ml::serveLlm(ctx, lc);
        benchmark::DoNotOptimize(r.tokens_per_s);
        events += static_cast<std::int64_t>(ctx.tracer().size());
    }
    state.SetItemsProcessed(events);
}
BENCHMARK(BM_LlmDecodeCell)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_CnnTrainCell(benchmark::State &state)
{
    // Fig. 13's heaviest row: VGG16 FP32 at batch 64.
    ml::CnnTrainConfig cc;
    cc.model = ml::CnnModel::Vgg16;
    cc.batch_size = 64;
    cc.precision = ml::Precision::Fp32;
    std::int64_t events = 0;
    for (auto _ : state) {
        rt::SystemConfig cfg;
        cfg.cc = state.range(0) != 0;
        rt::Context ctx(cfg);
        const auto r = ml::trainCnn(ctx, cc);
        benchmark::DoNotOptimize(r.throughput);
        events += static_cast<std::int64_t>(ctx.tracer().size());
    }
    state.SetItemsProcessed(events);
}
BENCHMARK(BM_CnnTrainCell)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
