/**
 * @file
 * Tests for the critical-path engine (trace/critpath.hpp): DAG
 * construction on hand-built multi-stream traces with known critical
 * paths, tie-breaking determinism, the exact share partition, slack,
 * the crypto/link split, the classifier rules, and the end-to-end
 * classification claim on real workload cells (native copy cells are
 * link-bound, the same cells under CC are crypto-bound, the ML cells
 * stay compute-bound — the paper's Fig. 4/13/14 story).  A
 * differential test holds the binding-predecessor walk, the light
 * result and the fork analyzer to a reference DAG walk on seeded
 * random traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <random>
#include <sstream>

#include "obs/registry.hpp"
#include "tee/secure_channel.hpp"
#include "trace/critpath.hpp"
#include "trace/tracer.hpp"
#include "workloads/workload.hpp"

namespace hcc::trace {
namespace {

TraceEvent
mk(EventKind kind, SimTime start, SimTime end, int stream = -1,
   std::uint64_t correlation = 0, SimTime wait = 0)
{
    TraceEvent e;
    e.kind = kind;
    e.start = start;
    e.end = end;
    e.stream = stream;
    e.correlation = correlation;
    e.queue_wait = wait;
    return e;
}

SimTime
sharesSum(const CriticalPath &p)
{
    return std::accumulate(p.shares.begin(), p.shares.end(),
                           SimTime{0});
}

// ------------------------------------------------ DAG and the walk

TEST(CritPath, EmptyTraceIsComputeBoundZero)
{
    Tracer t;
    const auto a = analyzeCritical(t);
    EXPECT_EQ(a.path.end_to_end, 0);
    EXPECT_EQ(a.path.on_path_ps, 0);
    EXPECT_TRUE(a.path.segments.empty());
    EXPECT_EQ(a.path.bottleneck, Bottleneck::ComputeBound);
}

TEST(CritPath, SingleChainLaunchKernelPartitionsExactly)
{
    Tracer t;
    const auto c = t.record(mk(EventKind::Launch, 0, 10), "k");
    t.record(mk(EventKind::Kernel, 15, 115, 0, c, 5), "k");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 115);
    // Kernel [15,115] bound to its launch; the [10,15] gap before a
    // Kernel is queue time (KQT -> launch); launch span [0,10].
    EXPECT_EQ(p.share(PathCategory::Compute), 100);
    EXPECT_EQ(p.share(PathCategory::Launch), 15);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    EXPECT_EQ(p.on_path_ps, 110);
    ASSERT_EQ(p.segments.size(), 2u);
    // Segments come back in ascending time order.
    EXPECT_EQ(p.segments[0].event, 0u);
    EXPECT_EQ(p.segments[1].event, 1u);
}

TEST(CritPath, ForkJoinPicksTheLongerBranch)
{
    Tracer t;
    const auto c0 = t.record(mk(EventKind::Launch, 0, 10), "a");
    t.record(mk(EventKind::Kernel, 10, 110, 0, c0), "a"); // long
    const auto c1 = t.record(mk(EventKind::Launch, 10, 18), "b");
    t.record(mk(EventKind::Kernel, 20, 50, 1, c1), "b"); // short
    // Device-wide sync joins both streams.
    t.record(mk(EventKind::Sync, 18, 115), "sync");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 115);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    // Path: launch a -> kernel a -> sync tail; kernel b off-path.
    EXPECT_EQ(p.share(PathCategory::Compute), 100);
    EXPECT_EQ(p.share(PathCategory::Launch), 10);
    EXPECT_EQ(p.share(PathCategory::Sync), 5);
    bool kernel_b_on_path = false;
    for (const auto &seg : p.segments)
        kernel_b_on_path |= seg.event == 3;
    EXPECT_FALSE(kernel_b_on_path);
    // The critical events carry no slack.
    EXPECT_EQ(p.slack[0], 0);
    EXPECT_EQ(p.slack[1], 0);
    EXPECT_EQ(p.slack[4], 0);
}

TEST(CritPath, StreamChainSlackOnTheShorterStream)
{
    Tracer t;
    t.record(mk(EventKind::Kernel, 10, 110, 0), "long");
    t.record(mk(EventKind::Kernel, 20, 50, 1), "short");
    t.record(mk(EventKind::MemcpyD2H, 110, 120, 0), "memcpy");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 110);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    // The short kernel could grow until the run's end.
    EXPECT_EQ(p.slack[1], 70);
    EXPECT_EQ(p.slack[0], 0);
    EXPECT_EQ(p.slack[2], 0);
}

TEST(CritPath, TieBreaksToHigherIndexDeterministically)
{
    Tracer t;
    // Two async copies end at the same instant; the sync that waits
    // on both must bind to the higher event index.
    t.record(mk(EventKind::MemcpyH2D, 0, 100, 0), "memcpy");
    t.record(mk(EventKind::MemcpyH2D, 0, 100, 1), "memcpy");
    t.record(mk(EventKind::Sync, 100, 110), "sync");
    const auto p = analyzeCritical(t).path;
    ASSERT_EQ(p.segments.size(), 2u);
    EXPECT_EQ(p.segments[0].event, 1u);
    EXPECT_EQ(p.segments[1].event, 2u);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    // Determinism: the same trace analyzes to the same JSON.
    EXPECT_EQ(criticalPathJson(p),
              criticalPathJson(analyzeCritical(t).path));
}

TEST(CritPath, ZeroDurationEventsStayWellFormed)
{
    Tracer t;
    const auto c = t.record(mk(EventKind::Launch, 10, 10), "k");
    t.record(mk(EventKind::Kernel, 10, 20, 0, c), "k");
    t.record(mk(EventKind::Sync, 20, 20), "sync");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 10);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    EXPECT_EQ(p.share(PathCategory::Compute), 10);
    // All three events appear; the zero-width ones as empty slices.
    EXPECT_EQ(p.segments.size(), 3u);
}

TEST(CritPath, OrphanLaunchAndUnmatchedKernelDoNotCrash)
{
    Tracer t;
    t.record(mk(EventKind::Launch, 0, 5, -1, 77), "orphan");
    t.record(mk(EventKind::Kernel, 10, 20, 0, 99), "stray");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 20);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    EXPECT_EQ(p.share(PathCategory::Compute), 10);
    // No correlation edge exists, so the time before the stray
    // kernel is untraced host ramp-up, not queue wait.
    EXPECT_EQ(p.share(PathCategory::Other), 10);
}

TEST(CritPath, LqtGapSplitsIntoLaunchAndOther)
{
    Tracer t;
    t.record(mk(EventKind::MallocDevice, 0, 10), "cudaMalloc");
    // Gap [10,40] before a launch with queue_wait 12: the measured
    // LQT rides the launch category, the rest is host framework time.
    const auto c =
        t.record(mk(EventKind::Launch, 40, 50, -1, 0, 12), "k");
    t.record(mk(EventKind::Kernel, 50, 90, 0, c), "k");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 90);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    EXPECT_EQ(p.share(PathCategory::Launch), 10 + 12);
    EXPECT_EQ(p.share(PathCategory::Other), 30 - 12);
    EXPECT_EQ(p.share(PathCategory::Alloc), 10);
    EXPECT_EQ(p.share(PathCategory::Compute), 40);
}

// ----------------------------------------- faults and the partition

TEST(CritPath, FaultOverlapReattributedToFault)
{
    Tracer t;
    t.record(mk(EventKind::Kernel, 0, 100, 0), "k");
    t.record(mk(EventKind::Fault, 50, 80), "fault");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 100);
    EXPECT_EQ(p.share(PathCategory::Compute), 70);
    EXPECT_EQ(p.share(PathCategory::Fault), 30);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
}

TEST(CritPath, FaultTailBeyondLastEventIsOnPath)
{
    Tracer t;
    t.record(mk(EventKind::Kernel, 0, 100, 0), "k");
    t.record(mk(EventKind::Fault, 90, 130), "fault");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 130);
    // [90,100] overlaps the kernel, [100,130] extends past it.
    EXPECT_EQ(p.share(PathCategory::Fault), 40);
    EXPECT_EQ(p.share(PathCategory::Compute), 90);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
}

TEST(CritPath, MessyMultiStreamTraceStillPartitionsExactly)
{
    Tracer t;
    t.record(mk(EventKind::MallocManaged, 0, 7), "cudaMallocManaged");
    TraceEvent uvm = mk(EventKind::MemcpyH2D, 10, 60, 0);
    uvm.encrypted_paging = true;
    t.record(uvm, "memcpy");
    const auto c = t.record(mk(EventKind::Launch, 7, 15), "k");
    t.record(mk(EventKind::Kernel, 60, 160, 0, c, 45), "k");
    t.record(mk(EventKind::MemcpyD2H, 160, 200, 0), "memcpy");
    t.record(mk(EventKind::Fault, 150, 170), "fault");
    t.record(mk(EventKind::Sync, 15, 205), "sync");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.end_to_end, 205);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    EXPECT_GT(p.share(PathCategory::Fault), 0);
    EXPECT_GT(p.share(PathCategory::Uvm), 0);
}

// ------------------------------------------------ crypto/link split

TEST(CritPath, CopyTimeSplitsByRegistryBusyRatio)
{
    Tracer t;
    t.record(mk(EventKind::MemcpyH2D, 0, 100, -1), "memcpy");
    obs::Registry reg;
    reg.counter("sim.timeline.cc_crypto.busy_ps").add(3000);
    reg.counter("pcie.link.busy_ps_h2d").add(1000);
    const auto p = analyzeCritical(t, &reg).path;
    // 3:1 busy ratio -> 75 ps crypto, 25 ps link, exactly.
    EXPECT_EQ(p.share(PathCategory::Crypto), 75);
    EXPECT_EQ(p.share(PathCategory::Link), 25);
    EXPECT_EQ(sharesSum(p), p.end_to_end);
    ASSERT_EQ(p.segments.size(), 1u);
    EXPECT_EQ(p.segments[0].category, PathCategory::Crypto);
}

TEST(CritPath, NoRegistryMeansPureLink)
{
    Tracer t;
    t.record(mk(EventKind::MemcpyH2D, 0, 100, -1), "memcpy");
    const auto p = analyzeCritical(t).path;
    EXPECT_EQ(p.share(PathCategory::Link), 100);
    EXPECT_EQ(p.share(PathCategory::Crypto), 0);
}

// ------------------------------------------------- fork analyzer

/** A prefix whose kernel is still running when the suffix starts. */
void
recordPrefix(Tracer &t)
{
    t.record(mk(EventKind::MemcpyH2D, 0, 100), "memcpy");
    const auto c = t.record(mk(EventKind::Launch, 100, 110), "k");
    t.record(mk(EventKind::Kernel, 110, 1000, 0, c), "k");
}

TEST(CritPathFork, FaultsOverThePrefixWalkMatchAFullScan)
{
    // The suffix's sync waits on the prefix kernel, so the walk hands
    // off to the memoized prefix walk, whose copy, launch and kernel
    // records the suffix's fault spans overlap.  Two cells share the
    // capture: the second replays the memoized walk under other
    // faults.
    obs::Registry reg;
    reg.counter("sim.timeline.cc_crypto.busy_ps").add(3);
    reg.counter("pcie.link.busy_ps_h2d").add(7);
    Tracer prefix;
    recordPrefix(prefix);
    ForkAnalyzer fork;
    fork.capture(prefix);

    struct Cell
    {
        SimTime fault_a, fault_b;
        SimTime crypto, link, launch, fault;
    };
    // Cell 1: [50,80) takes 30 of the copy, leaving 70 to split 3:7.
    // Cell 2: [90,105) takes 10 of the copy and 5 of the launch.
    // Both: [500,700) takes 200 of the kernel.
    for (const Cell &cell : {Cell{50, 80, 21, 49, 10, 230},
                             Cell{90, 105, 27, 63, 5, 215}}) {
        Tracer t;
        recordPrefix(t);
        t.record(mk(EventKind::Sync, 120, 1005), "sync");
        t.record(mk(EventKind::Fault, cell.fault_a, cell.fault_b),
                 "fault");
        t.record(mk(EventKind::Fault, 500, 700), "fault");
        const auto f = fork.analyze(t, &reg);
        const auto full = analyzeCritical(t, &reg, false);
        EXPECT_EQ(f.path.shares, full.path.shares);
        EXPECT_EQ(f.path.on_path_ps, full.path.on_path_ps);
        EXPECT_EQ(f.path.on_path_events, full.path.on_path_events);
        EXPECT_EQ(f.path.bottleneck, full.path.bottleneck);
        EXPECT_EQ(f.metrics.sync_time, full.metrics.sync_time);

        const CriticalPath &p = f.path;
        EXPECT_EQ(p.end_to_end, 1005);
        EXPECT_EQ(p.share(PathCategory::Crypto), cell.crypto);
        EXPECT_EQ(p.share(PathCategory::Link), cell.link);
        EXPECT_EQ(p.share(PathCategory::Launch), cell.launch);
        EXPECT_EQ(p.share(PathCategory::Compute), 690);
        EXPECT_EQ(p.share(PathCategory::Sync), 5);
        EXPECT_EQ(p.share(PathCategory::Fault), cell.fault);
        EXPECT_EQ(f.metrics.sync_time, 885 - 200);
    }
}

/** A fork cell's analysis against the cold reference: the full scan
 *  with its sample sets compacted, as campaign cells report it. */
void
expectSameAnalysis(const CriticalAnalysis &got,
                   const CriticalAnalysis &want)
{
    const AppMetrics &g = got.metrics;
    const AppMetrics &w = want.metrics;
    EXPECT_EQ(g.klo.values(), w.klo.values());
    EXPECT_EQ(g.lqt.values(), w.lqt.values());
    EXPECT_EQ(g.kqt.values(), w.kqt.values());
    EXPECT_EQ(g.ket.values(), w.ket.values());
    EXPECT_EQ(g.copy_h2d, w.copy_h2d);
    EXPECT_EQ(g.copy_d2h, w.copy_d2h);
    EXPECT_EQ(g.sync_time, w.sync_time);
    EXPECT_EQ(g.fault_time, w.fault_time);
    EXPECT_EQ(g.end_to_end, w.end_to_end);
    EXPECT_EQ(g.launches, w.launches);
    EXPECT_EQ(g.kernels, w.kernels);
    EXPECT_EQ(g.fault_recoveries, w.fault_recoveries);
    EXPECT_EQ(got.path.end_to_end, want.path.end_to_end);
    EXPECT_EQ(got.path.shares, want.path.shares);
    EXPECT_EQ(got.path.on_path_ps, want.path.on_path_ps);
    EXPECT_EQ(got.path.on_path_events, want.path.on_path_events);
    EXPECT_EQ(got.path.bottleneck, want.path.bottleneck);
}

CriticalAnalysis
coldReference(const Tracer &t, const obs::Registry *reg)
{
    auto full = analyzeCritical(t, reg);
    compactSampleMetrics(full.metrics);
    return full;
}

/** Two launches and their kernels on stream 0; 5 events, and the
 *  correlation ids 1..3, so the next fresh id (4) indexes a slot
 *  inside the captured correlation table. */
void
recordTwoKernelPrefix(Tracer &t)
{
    t.record(mk(EventKind::MemcpyH2D, 0, 100), "memcpy");
    const auto c1 = t.record(mk(EventKind::Launch, 100, 110), "k");
    t.record(mk(EventKind::Kernel, 110, 1000, 0, c1, 10), "k");
    const auto c2 =
        t.record(mk(EventKind::Launch, 120, 130, -1, 0, 5), "k");
    t.record(mk(EventKind::Kernel, 1000, 1500, 0, c2, 870), "k");
}

TEST(CritPathFork, AnalyzeLeavesTheCaptureUnchanged)
{
    obs::Registry reg;
    reg.counter("sim.timeline.cc_crypto.busy_ps").add(3);
    reg.counter("pcie.link.busy_ps_h2d").add(7);
    Tracer prefix;
    recordTwoKernelPrefix(prefix);
    ForkAnalyzer fork;
    fork.capture(prefix);

    // Cell A: a new stream, launches with fresh correlation ids, a
    // sync over every stream and fault spans, one of which reaches
    // back into the memoized prefix walk.
    Tracer a;
    recordTwoKernelPrefix(a);
    const auto fresh =
        a.record(mk(EventKind::Launch, 140, 150, -1, 0, 7), "k");
    a.record(mk(EventKind::Kernel, 1500, 1800, 2, fresh, 1350), "k");
    a.record(mk(EventKind::Sync, 150, 1850), "sync");
    a.record(mk(EventKind::Fault, 105, 125), "fault");
    a.record(mk(EventKind::Fault, 1600, 1700), "fault");
    const auto c = a.record(mk(EventKind::Launch, 1850, 1860), "k");
    a.record(mk(EventKind::Kernel, 1860, 2000, 0, c), "k");

    // Cell B, unfaulted: had A's suffix stayed in the capture, its
    // stream-2 kernel and its store of `fresh` would hand B's orphan
    // kernel two predecessors it does not have.
    Tracer b;
    recordTwoKernelPrefix(b);
    b.record(mk(EventKind::MemcpyH2D, 140, 1600), "memcpy");
    b.record(mk(EventKind::MemcpyH2D, 1600, 1650), "memcpy");
    b.record(mk(EventKind::Kernel, 1700, 1900, 2, fresh), "k");

    // Cell C: its sync sits at the index of A's, so A's join edge to
    // its stream-2 kernel, had it stayed, would bind C's sync to C's
    // later-ending kernel instead of the prefix kernel it waits on.
    Tracer c3;
    recordTwoKernelPrefix(c3);
    c3.record(mk(EventKind::MemcpyH2D, 140, 200), "memcpy");
    c3.record(mk(EventKind::Kernel, 1500, 1900, 2), "k");
    c3.record(mk(EventKind::Sync, 210, 1950, 0), "sync");

    const auto a1 = fork.analyze(a, &reg);
    const auto b1 = fork.analyze(b, &reg);
    const auto c1 = fork.analyze(c3, &reg);
    const auto a2 = fork.analyze(a, &reg);
    expectSameAnalysis(a1, coldReference(a, &reg));
    expectSameAnalysis(b1, coldReference(b, &reg));
    expectSameAnalysis(c1, coldReference(c3, &reg));
    expectSameAnalysis(a2, a1);
    expectSameAnalysis(a2, coldReference(a, &reg));
    EXPECT_EQ(b1.path.share(PathCategory::Other), 1700);
    EXPECT_EQ(c1.path.share(PathCategory::Compute), 1390);
}

TEST(CritPathFork, FoldedPrefixSumsMatchAWholeScanBitForBit)
{
    // Queue waits near 1e15 ps push every running sum past 2^53, so
    // the totals round: only the same additions in the same order
    // give the same bits.  Seeded, so a failure reproduces.
    std::mt19937_64 rng(20261018);
    std::uniform_int_distribution<SimTime> wait(SimTime{1} << 48,
                                                SimTime{1} << 51);
    std::uniform_int_distribution<SimTime> len(1, 1000);
    std::vector<TraceEvent> events;
    SimTime t = 0;
    for (std::uint64_t i = 1; i <= 300; ++i) {
        const SimTime launch_end = t + len(rng);
        events.push_back(mk(EventKind::Launch, t, launch_end, -1, i,
                            wait(rng)));
        const SimTime kernel_end = launch_end + len(rng);
        events.push_back(mk(EventKind::Kernel, launch_end, kernel_end,
                            0, i, wait(rng)));
        t = launch_end;
    }
    const auto traceOf = [&](std::size_t n) {
        Tracer tr;
        for (std::size_t i = 0; i < n; ++i)
            tr.record(events[i], "k");
        return tr;
    };
    const Tracer whole = traceOf(events.size());
    const auto want = coldReference(whole, nullptr);

    // The fold is order-sensitive here: summing backwards differs.
    const auto kqt = analyzeCritical(whole).metrics.kqt.values();
    const double backward =
        std::accumulate(kqt.rbegin(), kqt.rend(), 0.0);
    ASSERT_NE(std::bit_cast<std::uint64_t>(backward),
              std::bit_cast<std::uint64_t>(want.metrics.kqt.values()[0]));

    const auto bits = [](const SampleSet &set) {
        EXPECT_EQ(set.count(), 1u);
        return set.empty() ? 0 : std::bit_cast<std::uint64_t>(
                                     set.values()[0]);
    };
    std::uniform_int_distribution<std::size_t> cut(0, events.size());
    for (int round = 0; round < 8; ++round) {
        std::size_t k1 = cut(rng);
        std::size_t k2 = cut(rng);
        if (k1 > k2)
            std::swap(k1, k2);
        // A root capture at k1, and a tree node cloned from it and
        // extended to k2: both fold their prefix once.
        ForkAnalyzer root;
        root.capture(traceOf(k1));
        ForkAnalyzer node = root.clone();
        node.extendCapture(traceOf(k2));
        for (ForkAnalyzer *fork : {&root, &node}) {
            const auto got = fork->analyze(whole, nullptr);
            EXPECT_EQ(bits(got.metrics.klo), bits(want.metrics.klo));
            EXPECT_EQ(bits(got.metrics.lqt), bits(want.metrics.lqt));
            EXPECT_EQ(bits(got.metrics.kqt), bits(want.metrics.kqt));
            EXPECT_EQ(bits(got.metrics.ket), bits(want.metrics.ket));
            EXPECT_EQ(got.path.shares, want.path.shares);
        }
    }
}

// ------------------------------------ differential: reference walk

/**
 * Test-local reference: the DAG engine the binding-predecessor scan
 * replaced.  It keeps every candidate edge (program order,
 * correlation, sync joins) and picks each step's predecessor in the
 * walk, among the candidates that end by the walk's current time.
 */
namespace ref {

constexpr std::uint32_t kNone = 0xffffffffu;

bool
hostSerial(const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::Kernel:
      case EventKind::Fault:
        return false;
      case EventKind::MemcpyH2D:
      case EventKind::MemcpyD2H:
      case EventKind::MemcpyD2D:
        return e.stream < 0;
      default:
        return true;
    }
}

bool
deviceSide(const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::Kernel:
        return true;
      case EventKind::MemcpyH2D:
      case EventKind::MemcpyD2H:
      case EventKind::MemcpyD2D:
        return e.stream >= 0;
      default:
        return false;
    }
}

PathCategory
copyCategory(const Tracer &t, const TraceEvent &e)
{
    if (e.encrypted_paging || t.name(e) == "memPrefetch"
        || t.name(e) == "memcpy-managed")
        return PathCategory::Uvm;
    return e.kind == EventKind::MemcpyD2D ? PathCategory::Compute
                                          : PathCategory::Link;
}

PathCategory
category(const Tracer &t, const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::Kernel:
        return PathCategory::Compute;
      case EventKind::MemcpyH2D:
      case EventKind::MemcpyD2H:
      case EventKind::MemcpyD2D:
        return copyCategory(t, e);
      case EventKind::Launch:
      case EventKind::GraphLaunch:
        return PathCategory::Launch;
      case EventKind::Sync:
        return PathCategory::Sync;
      case EventKind::Fault:
        return PathCategory::Fault;
      default:
        return PathCategory::Alloc;
    }
}

struct Result
{
    std::vector<PathSegment> segments;
    std::vector<SimTime> slack;
    std::array<SimTime, kPathCategoryCount> shares{};
    SimTime on_path_ps = 0;
    Bottleneck bottleneck = Bottleneck::ComputeBound;
};

Result
analyze(const Tracer &t, std::uint64_t crypto_busy,
        std::uint64_t link_busy)
{
    const auto ev = t.events();
    const std::size_t n = ev.size();
    std::vector<std::uint32_t> chain(n, kNone), corr(n, kNone);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sync_edges;
    std::map<std::uint64_t, std::uint32_t> launch_of;
    std::vector<std::uint32_t> last_dev;
    std::vector<std::pair<SimTime, SimTime>> fault_spans;
    std::uint32_t last_host = kNone, tail = kNone;
    for (std::uint32_t i = 0; i < n; ++i) {
        const TraceEvent &e = ev[i];
        if (e.kind == EventKind::Fault) {
            fault_spans.emplace_back(e.start, e.end);
            continue;
        }
        if (tail == kNone || e.end >= ev[tail].end)
            tail = i;
        if (deviceSide(e)) {
            const auto st = static_cast<std::size_t>(e.stream);
            if (st >= last_dev.size())
                last_dev.resize(st + 1, kNone);
            if (last_dev[st] != kNone && ev[last_dev[st]].end <= e.start)
                chain[i] = last_dev[st];
            last_dev[st] = i;
            const auto f = launch_of.find(e.correlation);
            if (e.kind == EventKind::Kernel && f != launch_of.end()
                && ev[f->second].end <= e.start)
                corr[i] = f->second;
        } else if (hostSerial(e)) {
            if (last_host != kNone && ev[last_host].end <= e.start)
                chain[i] = last_host;
            if (e.kind == EventKind::Sync) {
                for (std::size_t st = 0; st < last_dev.size(); ++st) {
                    const auto dv = last_dev[st];
                    if ((e.stream < 0
                         || st == static_cast<std::size_t>(e.stream))
                        && dv != kNone && ev[dv].end <= e.end)
                        sync_edges.emplace_back(i, dv);
                }
            }
            last_host = i;
            if (e.kind == EventKind::Launch
                || e.kind == EventKind::GraphLaunch)
                launch_of[e.correlation] = i;
        }
    }

    Result r;
    r.slack.assign(n, 0);
    if (tail != kNone) {
        std::vector<SimTime> lf(n, ev[tail].end);
        for (std::uint32_t i = static_cast<std::uint32_t>(n); i-- > 0;) {
            const TraceEvent &e = ev[i];
            if (e.kind == EventKind::Fault)
                continue;
            for (const auto p : {chain[i], corr[i]}) {
                if (p != kNone)
                    lf[p] = std::min(lf[p], lf[i] - e.duration());
            }
            for (const auto &[s, p] : sync_edges) {
                if (s == i)
                    lf[p] = std::min(lf[p], ev[p].end + (lf[i] - e.end));
            }
            r.slack[i] = std::max<SimTime>(0, lf[i] - e.end);
        }
    }

    const SpanCoverage faults(fault_spans);
    const SimTime e2e = t.span();
    const auto book = [&](SimTime v, PathCategory c) {
        const std::uint64_t den = crypto_busy + link_busy;
        if (c == PathCategory::Link && den > 0) {
            const auto crypto = static_cast<SimTime>(
                static_cast<unsigned __int128>(v) * crypto_busy / den);
            r.shares[static_cast<std::size_t>(PathCategory::Crypto)] +=
                crypto;
            v -= crypto;
        }
        r.shares[static_cast<std::size_t>(c)] += v;
    };
    const auto charge = [&](SimTime a, SimTime b, PathCategory c) {
        if (b <= a)
            return;
        const SimTime f =
            c == PathCategory::Fault ? 0 : faults.covered(a, b);
        r.shares[static_cast<std::size_t>(PathCategory::Fault)] += f;
        book(b - a - f, c);
    };
    if (tail == kNone) {
        r.shares[static_cast<std::size_t>(PathCategory::Fault)] = e2e;
    } else {
        charge(ev[tail].end, t.lastEnd(), PathCategory::Fault);
        const PathCategory display =
            crypto_busy > 0 && crypto_busy >= link_busy
                ? PathCategory::Crypto
                : PathCategory::Link;
        std::uint32_t cur = tail;
        SimTime cur_t = ev[cur].end;
        for (;;) {
            const TraceEvent &e = ev[cur];
            std::uint32_t best = kNone;
            SimTime best_end = 0;
            const auto consider = [&](std::uint32_t p) {
                if (p == kNone || ev[p].end > cur_t)
                    return;
                if (best == kNone || ev[p].end > best_end
                    || (ev[p].end == best_end && p > best)) {
                    best = p;
                    best_end = ev[p].end;
                }
            };
            consider(chain[cur]);
            consider(corr[cur]);
            for (const auto &[s, p] : sync_edges) {
                if (s == cur)
                    consider(p);
            }
            const SimTime begin =
                best == kNone ? e.start : std::max(e.start, best_end);
            const PathCategory raw = category(t, e);
            r.segments.push_back(
                {cur, begin, cur_t,
                 raw == PathCategory::Link ? display : raw});
            r.on_path_ps += cur_t - begin;
            charge(begin, cur_t, raw);
            if (best == kNone) {
                charge(t.firstStart(), e.start, PathCategory::Other);
                break;
            }
            const SimTime a = best_end, b = e.start;
            if (b > a) {
                switch (e.kind) {
                  case EventKind::Kernel:
                    charge(a, b, PathCategory::Launch);
                    break;
                  case EventKind::Launch:
                  case EventKind::GraphLaunch: {
                    const SimTime lqt = std::min(
                        b - a, std::max<SimTime>(0, e.queue_wait));
                    charge(b - lqt, b, PathCategory::Launch);
                    charge(a, b - lqt, PathCategory::Other);
                    break;
                  }
                  case EventKind::Sync:
                    charge(a, b, PathCategory::Sync);
                    break;
                  case EventKind::MemcpyH2D:
                  case EventKind::MemcpyD2H:
                  case EventKind::MemcpyD2D:
                    charge(a, b, copyCategory(t, e));
                    break;
                  default:
                    charge(a, b, PathCategory::Other);
                    break;
                }
            }
            cur = best;
            cur_t = best_end;
        }
        std::reverse(r.segments.begin(), r.segments.end());
    }
    r.bottleneck = classifyShares(r.shares, e2e);
    return r;
}

} // namespace ref

/**
 * A seeded random trace shaped like a runtime's: one host clock, 2-3
 * streams, launches and GraphLaunch fan-out, blocking and async
 * copies, stream and device syncs, allocations, fault spans, and a
 * coarse time grid so equal end times are common.  A few events break
 * the runtime's timing (kernels that start before their launch ends,
 * kernels with no launch) to exercise the edges the scan refuses.
 */
Tracer
randomTrace(std::mt19937_64 &rng, std::size_t ops)
{
    const auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const auto len = [&] { return SimTime{10} * pick(0, 4); };
    const int streams = pick(2, 3);
    std::vector<SimTime> ready(static_cast<std::size_t>(streams), 0);
    Tracer t;
    SimTime h = 0;
    const auto kernelOn = [&](int st, SimTime issued,
                              std::uint64_t corr) {
        auto &r = ready[static_cast<std::size_t>(st)];
        SimTime start = std::max(issued, r) + len();
        if (pick(0, 19) == 0)
            start = std::max<SimTime>(0, issued - 10); // early start
        const SimTime end = start + len() + 10;
        t.record(mk(EventKind::Kernel, start, end, st,
                    pick(0, 29) == 0 ? 0 : corr, start - issued),
                 "k");
        r = std::max(r, end);
    };
    for (std::size_t op = 0; op < ops; ++op) {
        const int st = pick(0, streams - 1);
        switch (pick(0, 11)) {
          case 0:
          case 1:
          case 2: {
            const SimTime end = h + len();
            const auto c =
                t.record(mk(EventKind::Launch, h, end, -1, 0, len()),
                         "k");
            h = end;
            kernelOn(st, end, c);
            break;
          }
          case 3: {
            const SimTime end = h + len();
            const auto c = t.record(
                mk(EventKind::GraphLaunch, h, end, -1, 0, len()),
                "graph");
            h = end;
            for (int k = pick(2, 4); k > 0; --k)
                kernelOn(pick(0, streams - 1), end, c);
            break;
          }
          case 4: {
            // Async copy on a stream; the host only issues it.
            auto &r = ready[static_cast<std::size_t>(st)];
            const SimTime start = std::max(h, r);
            TraceEvent e = mk(pick(0, 1) ? EventKind::MemcpyH2D
                                         : EventKind::MemcpyD2H,
                              start, start + len() + 10, st);
            e.encrypted_paging = pick(0, 5) == 0;
            t.record(e, pick(0, 4) == 0 ? "memPrefetch" : "memcpy");
            r = e.end;
            h += 10;
            break;
          }
          case 5: {
            const auto kind = pick(0, 2);
            const SimTime end = h + len() + 10;
            t.record(mk(kind == 0   ? EventKind::MemcpyH2D
                        : kind == 1 ? EventKind::MemcpyD2H
                                    : EventKind::MemcpyD2D,
                        h, end),
                     "memcpy");
            h = end;
            break;
          }
          case 6: {
            const SimTime end =
                std::max(h, ready[static_cast<std::size_t>(st)])
                + len();
            t.record(mk(EventKind::Sync, h, end, st), "sync");
            h = end;
            break;
          }
          case 7: {
            const SimTime end =
                std::max(h, *std::max_element(ready.begin(),
                                              ready.end()))
                + len();
            t.record(mk(EventKind::Sync, h, end), "sync");
            h = end;
            break;
          }
          case 8:
          case 9: {
            const SimTime end = h + len();
            t.record(mk(pick(0, 1) ? EventKind::MallocDevice
                                   : EventKind::Free,
                        h, end),
                     "alloc");
            h = end;
            break;
          }
          case 10: {
            const SimTime a = std::max<SimTime>(0, h - len() * 3);
            t.record(mk(EventKind::Fault, a, a + len() * 2), "fault");
            break;
          }
          default:
            h += len();
            break;
        }
    }
    return t;
}

TEST(CritPathDifferential, MatchesTheReferenceWalkOnRandomTraces)
{
    std::mt19937_64 rng(20261018);
    for (int round = 0; round < 300; ++round) {
        const Tracer t = randomTrace(rng, 20 + round % 120);
        obs::Registry reg;
        const std::uint64_t crypto = round % 3 == 0 ? 0 : 7;
        const std::uint64_t link = round % 5 == 0 ? 0 : 11;
        reg.counter("sim.timeline.cc_crypto.busy_ps").add(crypto);
        reg.counter("pcie.link.busy_ps_h2d").add(link);
        const ref::Result want = ref::analyze(t, crypto, link);
        SCOPED_TRACE("round " + std::to_string(round));

        const auto full = analyzeCritical(t, &reg);
        ASSERT_EQ(full.path.segments.size(), want.segments.size());
        for (std::size_t i = 0; i < want.segments.size(); ++i) {
            const PathSegment &g = full.path.segments[i];
            const PathSegment &w = want.segments[i];
            EXPECT_EQ(g.event, w.event) << "segment " << i;
            EXPECT_EQ(g.begin, w.begin) << "segment " << i;
            EXPECT_EQ(g.end, w.end) << "segment " << i;
            EXPECT_EQ(g.category, w.category) << "segment " << i;
        }
        EXPECT_EQ(full.path.slack, want.slack);
        EXPECT_EQ(full.path.shares, want.shares);
        EXPECT_EQ(full.path.on_path_ps, want.on_path_ps);
        EXPECT_EQ(full.path.bottleneck, want.bottleneck);

        const auto light = analyzeCritical(t, &reg, false);
        EXPECT_EQ(light.path.shares, want.shares);
        EXPECT_EQ(light.path.on_path_ps, want.on_path_ps);
        EXPECT_EQ(light.path.on_path_events, want.segments.size());
        EXPECT_EQ(light.path.bottleneck, want.bottleneck);

        // Fork analyzers cut at random points, one of them a tree
        // node extended from its parent's capture.
        std::uniform_int_distribution<std::size_t> cut(0, t.size());
        std::size_t k1 = cut(rng), k2 = cut(rng);
        if (k1 > k2)
            std::swap(k1, k2);
        const auto prefixOf = [&](std::size_t k) {
            Tracer p;
            const auto ev = t.events();
            for (std::size_t i = 0; i < k; ++i)
                p.record(ev[i], t.name(ev[i]));
            return p;
        };
        ForkAnalyzer root;
        root.capture(prefixOf(k1));
        ForkAnalyzer node = root.clone();
        node.extendCapture(prefixOf(k2));
        for (ForkAnalyzer *fork : {&root, &node})
            expectSameAnalysis(fork->analyze(t, &reg),
                               coldReference(t, &reg));
    }
}

TEST(CritPathLight, EqualsTheCompactedFullResultOnEveryEvaluationCell)
{
    const auto &registry = workloads::WorkloadRegistry::instance();
    std::size_t cells = 0;
    for (const auto &app : workloads::evaluationApps()) {
        for (const bool uvm : {false, true}) {
            if (uvm && !registry.get(app).supportsUvm())
                continue;
            for (const bool cc : {false, true}) {
                SCOPED_TRACE(app + (cc ? " cc" : " base")
                             + (uvm ? " uvm" : ""));
                rt::SystemConfig sys;
                sys.cc = cc;
                workloads::WorkloadParams params;
                params.uvm = uvm;
                const auto r = workloads::runWorkload(app, sys, params);
                const auto light =
                    analyzeCritical(r.trace, r.stats.get(), false);
                expectSameAnalysis(light,
                                   coldReference(r.trace, r.stats.get()));
                EXPECT_TRUE(light.path.segments.empty());
                EXPECT_TRUE(light.path.slack.empty());
                EXPECT_EQ(light.path.on_path_events,
                          r.critical.segments.size());
                ++cells;
            }
        }
    }
    EXPECT_GT(cells, 2 * workloads::evaluationApps().size());
}

// ------------------------------------------------------- classifier

using Shares = std::array<SimTime, kPathCategoryCount>;

Shares
shares(PathCategory c, SimTime v, SimTime rest_compute)
{
    Shares s{};
    s[static_cast<std::size_t>(c)] = v;
    s[static_cast<std::size_t>(PathCategory::Compute)] +=
        rest_compute;
    return s;
}

TEST(Classifier, RulesFireInPriorityOrder)
{
    EXPECT_EQ(classifyShares(shares(PathCategory::Fault, 10, 90),
                             100),
              Bottleneck::FaultBound);
    EXPECT_EQ(classifyShares(shares(PathCategory::Fault, 9, 91), 100),
              Bottleneck::ComputeBound);
    EXPECT_EQ(classifyShares(shares(PathCategory::Uvm, 20, 80), 100),
              Bottleneck::UvmThrash);
    // 5% UVM share alone is not thrash unless the registry saw
    // substantial in-kernel fault servicing time.
    EXPECT_EQ(classifyShares(shares(PathCategory::Uvm, 5, 95), 100),
              Bottleneck::ComputeBound);
    EXPECT_EQ(classifyShares(shares(PathCategory::Uvm, 5, 95), 100,
                             /*uvm_fault_ps=*/20),
              Bottleneck::UvmThrash);
    EXPECT_EQ(classifyShares(shares(PathCategory::Crypto, 15, 85),
                             100),
              Bottleneck::CryptoBound);
    EXPECT_EQ(classifyShares(shares(PathCategory::Link, 15, 85), 100),
              Bottleneck::LinkBound);
    EXPECT_EQ(classifyShares(shares(PathCategory::Launch, 31, 30),
                             100),
              Bottleneck::LaunchBound);
    // Launch-heavy but compute still larger -> compute-bound.
    EXPECT_EQ(classifyShares(shares(PathCategory::Launch, 31, 69),
                             100),
              Bottleneck::ComputeBound);
    EXPECT_EQ(classifyShares(Shares{}, 0), Bottleneck::ComputeBound);
}

TEST(Classifier, CryptoMustMatchOrBeatLink)
{
    Shares s{};
    s[static_cast<std::size_t>(PathCategory::Crypto)] = 20;
    s[static_cast<std::size_t>(PathCategory::Link)] = 30;
    s[static_cast<std::size_t>(PathCategory::Compute)] = 50;
    EXPECT_EQ(classifyShares(s, 100), Bottleneck::LinkBound);
    s[static_cast<std::size_t>(PathCategory::Crypto)] = 30;
    s[static_cast<std::size_t>(PathCategory::Link)] = 20;
    EXPECT_EQ(classifyShares(s, 100), Bottleneck::CryptoBound);
}

TEST(Classifier, StableCodes)
{
    EXPECT_EQ(static_cast<int>(Bottleneck::ComputeBound), 0);
    EXPECT_EQ(static_cast<int>(Bottleneck::CryptoBound), 1);
    EXPECT_EQ(static_cast<int>(Bottleneck::LinkBound), 2);
    EXPECT_EQ(static_cast<int>(Bottleneck::LaunchBound), 3);
    EXPECT_EQ(static_cast<int>(Bottleneck::UvmThrash), 4);
    EXPECT_EQ(static_cast<int>(Bottleneck::FaultBound), 5);
    EXPECT_EQ(bottleneckName(Bottleneck::CryptoBound),
              "crypto-bound");
    EXPECT_EQ(bottleneckName(Bottleneck::UvmThrash), "uvm-thrash");
}

// -------------------------------------------- metrics share the pass

TEST(CritPath, MetricsMatchLegacyAnalyze)
{
    Tracer t;
    const auto c = t.record(mk(EventKind::Launch, 0, 10, -1, 0, 2),
                            "k");
    t.record(mk(EventKind::Kernel, 12, 112, 0, c, 2), "k");
    t.record(mk(EventKind::MemcpyH2D, 112, 212, -1), "memcpy");
    t.record(mk(EventKind::Sync, 212, 222), "sync");
    const auto legacy = analyze(t);
    const auto both = analyzeCritical(t).metrics;
    EXPECT_EQ(legacy.launches, both.launches);
    EXPECT_EQ(legacy.kernels, both.kernels);
    EXPECT_EQ(legacy.sumKlo(), both.sumKlo());
    EXPECT_EQ(legacy.copy_h2d, both.copy_h2d);
    EXPECT_EQ(legacy.sync_time, both.sync_time);
    EXPECT_EQ(legacy.end_to_end, both.end_to_end);
}

// --------------------------------------------------- obs publishing

TEST(CritPath, PublishesCountersToRegistry)
{
    Tracer t;
    t.record(mk(EventKind::MemcpyH2D, 0, 100, -1), "memcpy");
    const auto p = analyzeCritical(t).path;
    obs::Registry reg;
    publishCriticalPath(p, reg);
    EXPECT_EQ(reg.counter("critpath.end_to_end_ps").value(), 100u);
    EXPECT_EQ(reg.counter("critpath.on_path_ps").value(), 100u);
    EXPECT_EQ(reg.counter("critpath.events_on_path").value(), 1u);
    EXPECT_EQ(reg.counter("critpath.bottleneck_code").value(),
              static_cast<std::uint64_t>(Bottleneck::LinkBound));
    EXPECT_EQ(reg.counter("critpath.share.link_ps").value(), 100u);
    EXPECT_EQ(reg.counter("critpath.share.compute_ps").value(), 0u);
}

// ----------------------------------------------------- report / JSON

TEST(CritPath, ReportAndJsonAreWellFormed)
{
    Tracer t;
    const auto c = t.record(mk(EventKind::Launch, 0, 10), "k");
    t.record(mk(EventKind::Kernel, 10, 110, 0, c), "k");
    t.record(mk(EventKind::Kernel, 20, 50, 1), "idle");
    const auto p = analyzeCritical(t).path;
    const auto report = criticalReport(p, t, 5);
    EXPECT_NE(report.find("critical path"), std::string::npos);
    EXPECT_NE(report.find("bottleneck"), std::string::npos);
    EXPECT_NE(report.find("top on-path contributors"),
              std::string::npos);
    EXPECT_NE(report.find("largest slack"), std::string::npos);
    const auto json = criticalPathJson(p);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"bottleneck\": \"compute-bound\""),
              std::string::npos);
    std::ostringstream full;
    writeCriticalJson(p, t, full);
    EXPECT_NE(full.str().find("\"hccsim_critical_version\": 1"),
              std::string::npos);
    EXPECT_NE(full.str().find("\"segments\""), std::string::npos);
}

// ------------------------------------- the paper's classification

workloads::WorkloadResult
runCell(const std::string &app, bool cc)
{
    rt::SystemConfig sys;
    sys.cc = cc;
    workloads::WorkloadParams params;
    return workloads::runWorkload(app, sys, params);
}

TEST(CritPathWorkloads, CopyHeavyCellFlipsLinkToCryptoUnderCC)
{
    const auto base = runCell("atax", false);
    const auto cc = runCell("atax", true);
    // Native: PCIe wire time gates the run; no crypto exists at all.
    EXPECT_EQ(base.critical.bottleneck, Bottleneck::LinkBound);
    EXPECT_EQ(base.critical.share(PathCategory::Crypto), 0);
    // CC: the same copies now pay AES-GCM; crypto takes over.
    EXPECT_EQ(cc.critical.bottleneck, Bottleneck::CryptoBound);
    EXPECT_GT(cc.critical.share(PathCategory::Crypto),
              cc.critical.share(PathCategory::Link));
    // Both partitions are exact.
    EXPECT_EQ(sharesSum(base.critical), base.critical.end_to_end);
    EXPECT_EQ(sharesSum(cc.critical), cc.critical.end_to_end);
}

TEST(CritPathWorkloads, SpeculationMovesCryptoOffTheCriticalPath)
{
    // Overlap-hidden seals must not be charged to Crypto: under the
    // speculative tier the copy-heavy cell's crypto path time
    // collapses and the crypto:link balance tilts back toward the
    // wire (docs/OVERLAP.md).
    const auto overlapped = [](tee::OverlapMode mode) {
        rt::SystemConfig sys;
        sys.cc = true;
        sys.channel.overlap = mode;
        workloads::WorkloadParams params;
        return workloads::runWorkload("atax", sys, params);
    };
    const auto serial = overlapped(tee::OverlapMode::None);
    const auto spec = overlapped(tee::OverlapMode::Speculative);
    const auto ratio = [](const CriticalPath &p) {
        return static_cast<double>(p.share(PathCategory::Crypto))
            / static_cast<double>(p.share(PathCategory::Link));
    };
    EXPECT_GT(serial.critical.share(PathCategory::Crypto),
              2 * spec.critical.share(PathCategory::Crypto));
    EXPECT_GT(spec.critical.share(PathCategory::Link), 0);
    EXPECT_GT(ratio(serial.critical), ratio(spec.critical));
    EXPECT_LT(spec.end_to_end, serial.end_to_end);
    // The partition stays exact in both tiers.
    EXPECT_EQ(sharesSum(serial.critical),
              serial.critical.end_to_end);
    EXPECT_EQ(sharesSum(spec.critical), spec.critical.end_to_end);
}

TEST(CritPathWorkloads, ComputeBoundCellStaysComputeBoundUnderCC)
{
    // Fig. 13/14: ML training/serving is compute-dominant, so CC
    // only nibbles at the edges (alloc, copies) of the path.
    const auto base = runCell("cnn", false);
    const auto cc = runCell("cnn", true);
    EXPECT_EQ(base.critical.bottleneck, Bottleneck::ComputeBound);
    EXPECT_EQ(cc.critical.bottleneck, Bottleneck::ComputeBound);
    EXPECT_EQ(base.critical.share(PathCategory::Crypto), 0);
    EXPECT_EQ(sharesSum(cc.critical), cc.critical.end_to_end);
}

TEST(CritPathWorkloads, RepeatedRunsAreByteIdentical)
{
    const auto a = runCell("atax", true);
    const auto b = runCell("atax", true);
    EXPECT_EQ(criticalPathJson(a.critical),
              criticalPathJson(b.critical));
    std::ostringstream ja, jb;
    writeCriticalJson(a.critical, a.trace, ja);
    writeCriticalJson(b.critical, b.trace, jb);
    EXPECT_EQ(ja.str(), jb.str());
}

} // namespace
} // namespace hcc::trace
