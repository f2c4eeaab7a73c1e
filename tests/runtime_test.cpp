/**
 * @file
 * Tests for the public runtime API: allocation/free accounting,
 * transfers, kernel launch semantics (KLO/LQT/KQT), streams, graphs,
 * synchronization, and the base-vs-CC cost ratios the paper reports
 * at the API level.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "runtime/context.hpp"
#include "runtime/host_costs.hpp"
#include "trace/analysis.hpp"

namespace hcc::rt {
namespace {

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.cc = false;
    cfg.seed = 7;
    return cfg;
}

SystemConfig
ccConfig()
{
    SystemConfig cfg;
    cfg.cc = true;
    cfg.seed = 7;
    return cfg;
}

/** Duration of the single event of @p kind in the trace. */
SimTime
onlyEventDuration(const Context &ctx, trace::EventKind kind)
{
    const auto evs = ctx.tracer().ofKind(kind);
    EXPECT_EQ(evs.size(), 1u) << trace::eventKindName(kind);
    return evs.empty() ? 0 : evs.front().duration();
}

// ------------------------------------------------------- allocation

TEST(ContextAlloc, DeviceAllocCcRatioInPaperBand)
{
    // Paper: cudaMalloc is 5.67x slower under CC.
    Context base(baseConfig()), cc(ccConfig());
    base.mallocDevice(size::mib(64));
    cc.mallocDevice(size::mib(64));
    const double r = static_cast<double>(
        onlyEventDuration(cc, trace::EventKind::MallocDevice))
        / static_cast<double>(
            onlyEventDuration(base, trace::EventKind::MallocDevice));
    EXPECT_NEAR(r, 5.67, 1.2);
}

TEST(ContextAlloc, HostAllocCcRatioInPaperBand)
{
    // Paper: cudaMallocHost is 5.72x slower under CC.
    Context base(baseConfig()), cc(ccConfig());
    base.mallocHost(size::mib(64));
    cc.mallocHost(size::mib(64));
    const double r = static_cast<double>(
        onlyEventDuration(cc, trace::EventKind::MallocHost))
        / static_cast<double>(
            onlyEventDuration(base, trace::EventKind::MallocHost));
    EXPECT_NEAR(r, 5.72, 1.2);
}

TEST(ContextAlloc, FreeCcRatioInPaperBand)
{
    // Paper: cudaFree is 10.54x slower under CC.
    Context base(baseConfig()), cc(ccConfig());
    auto b1 = base.mallocDevice(size::mib(64));
    auto b2 = cc.mallocDevice(size::mib(64));
    base.free(b1);
    cc.free(b2);
    const double r = static_cast<double>(
        onlyEventDuration(cc, trace::EventKind::Free))
        / static_cast<double>(
            onlyEventDuration(base, trace::EventKind::Free));
    EXPECT_NEAR(r, 10.54, 2.0);
}

TEST(ContextAlloc, ManagedAllocRatios)
{
    // Paper: managed alloc is 0.51x the non-UVM alloc (base), and
    // 5.43x slower under CC than base managed.
    Context base(baseConfig()), base2(baseConfig()), cc(ccConfig());
    base.mallocDevice(size::mib(64));
    base2.mallocManaged(size::mib(64));
    cc.mallocManaged(size::mib(64));
    const auto dev_alloc =
        onlyEventDuration(base, trace::EventKind::MallocDevice);
    const auto managed_base =
        onlyEventDuration(base2, trace::EventKind::MallocManaged);
    const auto managed_cc =
        onlyEventDuration(cc, trace::EventKind::MallocManaged);
    EXPECT_NEAR(static_cast<double>(managed_base)
                    / static_cast<double>(dev_alloc),
                0.51, 0.15);
    EXPECT_NEAR(static_cast<double>(managed_cc)
                    / static_cast<double>(managed_base),
                5.43, 1.2);
}

TEST(ContextAlloc, ManagedFreeRatios)
{
    // Paper: managed free is 3.13x the non-UVM free (base) and CC-UVM
    // free reaches 18.20x the base non-UVM free.
    Context base(baseConfig()), base2(baseConfig()), cc(ccConfig());
    auto d = base.mallocDevice(size::mib(128));
    base.free(d);
    auto m = base2.mallocManaged(size::mib(128));
    base2.free(m);
    auto mc = cc.mallocManaged(size::mib(128));
    cc.free(mc);
    const auto free_base =
        onlyEventDuration(base, trace::EventKind::Free);
    const auto free_managed =
        onlyEventDuration(base2, trace::EventKind::Free);
    const auto free_managed_cc =
        onlyEventDuration(cc, trace::EventKind::Free);
    EXPECT_NEAR(static_cast<double>(free_managed)
                    / static_cast<double>(free_base),
                3.13, 1.0);
    EXPECT_NEAR(static_cast<double>(free_managed_cc)
                    / static_cast<double>(free_base),
                18.20, 4.0);
}

TEST(ContextAlloc, PageableIsFreeAndUntracked)
{
    Context ctx(baseConfig());
    const SimTime before = ctx.now();
    auto b = ctx.hostPageable(size::gib(1));
    EXPECT_EQ(ctx.now(), before);
    EXPECT_TRUE(ctx.tracer().empty());
    ctx.free(b);
    EXPECT_EQ(ctx.now(), before);
}

TEST(ContextAlloc, DoubleFreeIsFatal)
{
    Context ctx(baseConfig());
    auto b = ctx.mallocDevice(4096);
    auto copy = b;
    ctx.free(b);
    EXPECT_THROW(ctx.free(copy), FatalError);
}

TEST(ContextAlloc, DeviceAllocPastTheHbmIsFatal)
{
    // cudaMalloc fails past the HBM; the capacity itself fits, and
    // managed memory may oversubscribe it (UVM eviction is modelled).
    Context ctx(baseConfig());
    EXPECT_THROW(ctx.mallocDevice(calib::kHbmCapacity + 1), FatalError);
    EXPECT_EQ(ctx.liveAllocations(), 0u);
    ctx.mallocDevice(calib::kHbmCapacity);
    ctx.mallocManaged(2 * calib::kHbmCapacity);
    EXPECT_EQ(ctx.liveAllocations(), 2u);
}

TEST(ContextAlloc, LeakAccounting)
{
    Context ctx(baseConfig());
    auto a = ctx.mallocDevice(1);
    auto b = ctx.mallocHost(1);
    auto c = ctx.mallocManaged(1);
    EXPECT_EQ(ctx.liveAllocations(), 3u);
    ctx.free(a);
    ctx.free(b);
    ctx.free(c);
    EXPECT_EQ(ctx.liveAllocations(), 0u);
}

// -------------------------------------------------------- transfers

TEST(ContextMemcpy, H2DBandwidthMatchesFig4a)
{
    Context base(baseConfig()), cc(ccConfig());
    const Bytes b = size::mib(512);

    auto bh = base.mallocHost(b);
    auto bd = base.mallocDevice(b);
    base.memcpy(bd, bh, b);
    const double base_gbps = bandwidthGBs(
        b, onlyEventDuration(base, trace::EventKind::MemcpyH2D));
    EXPECT_NEAR(base_gbps, calib::kPciePinnedGBs, 2.0);

    auto ch = cc.mallocHost(b);
    auto cd = cc.mallocDevice(b);
    cc.memcpy(cd, ch, b);
    // Pinned under CC is reclassified as managed D2D (Fig. 5).
    const double cc_gbps = bandwidthGBs(
        b, onlyEventDuration(cc, trace::EventKind::MemcpyD2D));
    EXPECT_NEAR(cc_gbps, 3.03, 0.4);
}

TEST(ContextMemcpy, BlockingSemantics)
{
    Context ctx(baseConfig());
    auto h = ctx.hostPageable(size::mib(64));
    auto d = ctx.mallocDevice(size::mib(64));
    const SimTime before = ctx.now();
    ctx.memcpy(d, h, size::mib(64));
    EXPECT_GE(ctx.now() - before, transferTime(size::mib(64),
                                               calib::kHostMemcpyGBs));
}

TEST(ContextMemcpy, AsyncReturnsImmediately)
{
    Context ctx(baseConfig());
    auto h = ctx.mallocHost(size::mib(256));
    auto d = ctx.mallocDevice(size::mib(256));
    auto s = ctx.createStream();
    const SimTime before = ctx.now();
    ctx.memcpyAsync(d, h, size::mib(256), s);
    EXPECT_LT(ctx.now() - before, time::us(50.0));
    const SimTime at_issue = ctx.now();
    ctx.streamSynchronize(s);
    EXPECT_GT(ctx.now(), at_issue);
}

TEST(ContextMemcpy, OversizeIsFatal)
{
    Context ctx(baseConfig());
    auto h = ctx.hostPageable(100);
    auto d = ctx.mallocDevice(50);
    EXPECT_THROW(ctx.memcpy(d, h, 100), FatalError);
}

TEST(ContextMemcpy, HostToHostIsFatal)
{
    Context ctx(baseConfig());
    auto a = ctx.hostPageable(100);
    auto b = ctx.hostPageable(100);
    EXPECT_THROW(ctx.memcpy(a, b, 10), FatalError);
}

TEST(ContextMemcpy, D2DStaysOnDevice)
{
    Context ctx(baseConfig());
    auto a = ctx.mallocDevice(size::mib(64));
    auto b = ctx.mallocDevice(size::mib(64));
    ctx.memcpy(b, a, size::mib(64));
    EXPECT_EQ(ctx.tracer().ofKind(trace::EventKind::MemcpyD2D).size(),
              1u);
}

TEST(ContextMemcpy, ManagedPrefetchMakesKernelFaultFree)
{
    Context ctx(baseConfig());
    auto m = ctx.mallocManaged(size::mib(8));
    // Managed data starts host-resident, so the first kernel touch
    // faults pages over; after that the next kernel is fault-free.
    gpu::KernelDesc k{"uvm_k", {}, time::us(30), size::mib(8),
                      m.uvm_handle};
    ctx.launchKernel(k);
    ctx.deviceSynchronize();
    const auto kernels = ctx.tracer().ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(kernels.size(), 1u);
    const SimTime first_ket = kernels[0].duration();

    ctx.launchKernel(k);
    ctx.deviceSynchronize();
    const auto again = ctx.tracer().ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_LT(again[1].duration(), first_ket / 2)
        << "second touch must not re-fault";
}

// ---------------------------------------------------------- kernels

TEST(ContextLaunch, KloInPaperBands)
{
    // Warm (steady-state) KLO: base ~7us; CC/base ~1.4x.
    auto run = [](const SystemConfig &cfg) {
        Context ctx(cfg);
        gpu::KernelDesc k{"k", {}, time::us(50), 0, 0};
        for (int i = 0; i < 300; ++i)
            ctx.launchKernel(k);
        ctx.deviceSynchronize();
        auto m = trace::analyze(ctx.tracer());
        // Skip the first-launch window when averaging warm KLO.
        const auto klos = m.klo.values();
        double sum = 0.0;
        for (std::size_t i = 10; i < klos.size(); ++i)
            sum += klos[i];
        return sum / static_cast<double>(klos.size() - 10);
    };
    const double base_klo = run(baseConfig());
    const double cc_klo = run(ccConfig());
    EXPECT_NEAR(base_klo, static_cast<double>(time::us(7.0)),
                static_cast<double>(time::us(1.5)));
    EXPECT_NEAR(cc_klo / base_klo, 1.42, 0.25);
}

TEST(ContextLaunch, FirstLaunchSpikesUnderCc)
{
    // Fig. 12a: the first launches of a kernel are much slower, and
    // catastrophically so under CC (drives dwt2d's 5.31x).
    Context ctx(ccConfig());
    gpu::KernelDesc k{"fresh", {}, time::us(10), 0, 0,
                      size::mib(8)};
    for (int i = 0; i < 20; ++i)
        ctx.launchKernel(k);
    const auto launches = ctx.tracer().ofKind(trace::EventKind::Launch);
    ASSERT_EQ(launches.size(), 20u);
    EXPECT_GT(launches[0].duration(), 10 * launches[19].duration());
}

TEST(ContextLaunch, KqtHigherUnderCc)
{
    auto run = [](const SystemConfig &cfg) {
        Context ctx(cfg);
        gpu::KernelDesc k{"k", {}, time::us(5), 0, 0};
        ctx.launchKernel(k);
        ctx.launchKernel(k);
        ctx.deviceSynchronize();
        const auto m = trace::analyze(ctx.tracer());
        return m.kqt.mean();
    };
    const double base_kqt = run(baseConfig());
    const double cc_kqt = run(ccConfig());
    EXPECT_GT(cc_kqt / base_kqt, 1.8)
        << "few-launch KQT amplification (2mm-style)";
}

TEST(ContextLaunch, LaunchCorrelatesWithKernel)
{
    Context ctx(baseConfig());
    gpu::KernelDesc k{"k", {}, time::us(10), 0, 0};
    ctx.launchKernel(k);
    const auto launches = ctx.tracer().ofKind(trace::EventKind::Launch);
    const auto kernels = ctx.tracer().ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(launches.size(), 1u);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(launches[0].correlation, kernels[0].correlation);
    EXPECT_GE(kernels[0].start, launches[0].end)
        << "kernel cannot start before its launch completes";
}

TEST(ContextLaunch, SameStreamKernelsSerialize)
{
    Context ctx(baseConfig());
    gpu::KernelDesc k{"k", {}, time::ms(1.0), 0, 0};
    ctx.launchKernel(k);
    ctx.launchKernel(k);
    const auto kernels = ctx.tracer().ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_GE(kernels[1].start, kernels[0].end);
}

TEST(ContextLaunch, DifferentStreamsOverlap)
{
    Context ctx(baseConfig());
    auto s1 = ctx.createStream();
    auto s2 = ctx.createStream();
    gpu::KernelDesc k{"k", {}, time::ms(10.0), 0, 0};
    ctx.launchKernel(k, s1);
    ctx.launchKernel(k, s2);
    const auto kernels = ctx.tracer().ofKind(trace::EventKind::Kernel);
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_LT(kernels[1].start, kernels[0].end)
        << "cross-stream kernels should overlap on the device";
}

// ----------------------------------------------------------- graphs

TEST(ContextGraph, GraphReplacesPerKernelLaunches)
{
    Context ctx(baseConfig());
    gpu::KernelDesc k{"k", {}, time::us(20), 0, 0};
    auto g = ctx.instantiateGraph("loop",
                                  std::vector<gpu::KernelDesc>(50, k));
    ctx.launchGraph(g);
    ctx.deviceSynchronize();
    const auto m = trace::analyze(ctx.tracer());
    EXPECT_EQ(m.launches, 1);
    EXPECT_EQ(m.kernels, 50);
}

TEST(ContextGraph, GraphBeatsLoopForManySmallKernels)
{
    gpu::KernelDesc k{"k", {}, time::us(4), 0, 0};
    const int n = 256;
    const int iterations = 20;  // instantiation amortizes over replays

    Context loop(ccConfig());
    for (int it = 0; it < iterations; ++it) {
        for (int i = 0; i < n; ++i)
            loop.launchKernel(k);
        loop.deviceSynchronize();
    }

    Context graphed(ccConfig());
    auto g = graphed.instantiateGraph(
        "fused", std::vector<gpu::KernelDesc>(n, k));
    for (int it = 0; it < iterations; ++it) {
        graphed.launchGraph(g);
        graphed.deviceSynchronize();
    }

    EXPECT_LT(graphed.now(), loop.now())
        << "launch fusion must win for low-KLR loops under CC";
}

TEST(ContextGraph, EmptyGraphIsFatal)
{
    Context ctx(baseConfig());
    EXPECT_THROW(ctx.instantiateGraph("empty", {}), FatalError);
}

// ------------------------------------------------------------- sync

TEST(ContextSync, DeviceSynchronizeDrainsAllStreams)
{
    Context ctx(baseConfig());
    auto s1 = ctx.createStream();
    auto s2 = ctx.createStream();
    gpu::KernelDesc k{"k", {}, time::ms(2.0), 0, 0};
    ctx.launchKernel(k, s1);
    ctx.launchKernel(k, s2);
    ctx.deviceSynchronize();
    const auto kernels = ctx.tracer().ofKind(trace::EventKind::Kernel);
    for (const auto &e : kernels)
        EXPECT_LE(e.end, ctx.now());
}

TEST(ContextSync, SyncOnIdleDeviceIsCheap)
{
    Context ctx(baseConfig());
    const SimTime before = ctx.now();
    ctx.deviceSynchronize();
    EXPECT_LT(ctx.now() - before, time::us(10.0));
}

// ----------------------------------------------------- cc lifecycle

TEST(ContextCc, SpdmHandshakePaidOnce)
{
    Context cc(ccConfig());
    EXPECT_GE(cc.now(), tee::SpdmSession::kHandshakeCost);
    Context base(baseConfig());
    EXPECT_EQ(base.now(), 0);
}

TEST(ContextCc, TdxStatsPopulatedByApiCalls)
{
    Context cc(ccConfig());
    auto d = cc.mallocDevice(size::mib(4));
    cc.free(d);
    EXPECT_GT(cc.tdx().stats().hypercalls, 0u);
    EXPECT_GT(cc.tdx().stats().pages_converted, 0u);
}

TEST(ContextCc, ChannelOnlyExistsUnderCc)
{
    Context base(baseConfig()), cc(ccConfig());
    EXPECT_EQ(base.channel(), nullptr);
    EXPECT_NE(cc.channel(), nullptr);
}

// ------------------------------------------------ end-to-end sanity

TEST(ContextEndToEnd, CopyComputeCopyAppSlowerUnderCc)
{
    auto run = [](const SystemConfig &cfg) {
        Context ctx(cfg);
        const SimTime app_start = ctx.now();
        auto h = ctx.hostPageable(size::mib(128));
        auto d = ctx.mallocDevice(size::mib(128));
        ctx.memcpy(d, h, size::mib(128));
        gpu::KernelDesc k{"work", {}, time::ms(3.0), 0, 0};
        for (int i = 0; i < 20; ++i)
            ctx.launchKernel(k);
        ctx.deviceSynchronize();
        ctx.memcpy(h, d, size::mib(128));
        ctx.free(d);
        return ctx.now() - app_start;
    };
    const SimTime base_t = run(baseConfig());
    const SimTime cc_t = run(ccConfig());
    EXPECT_GT(cc_t, base_t);
    // Compute dominates; slowdown should be bounded.
    EXPECT_LT(static_cast<double>(cc_t) / static_cast<double>(base_t),
              3.0);
}

} // namespace
} // namespace hcc::rt
