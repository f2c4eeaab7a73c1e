/**
 * @file
 * Tests for the tracer and the trace analysis layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

namespace hcc::trace {
namespace {

TraceEvent
mk(EventKind kind, SimTime start, SimTime end, SimTime wait = 0,
   Bytes bytes = 0)
{
    TraceEvent e;
    e.kind = kind;
    e.start = start;
    e.end = end;
    e.queue_wait = wait;
    e.bytes = bytes;
    return e;
}

TEST(TracerTest, RecordsAndAssignsCorrelations)
{
    Tracer t;
    const auto a = t.record(mk(EventKind::Launch, 0, 10));
    const auto b = t.record(mk(EventKind::Kernel, 12, 50));
    EXPECT_NE(a, b);
    EXPECT_EQ(t.size(), 2u);
}

TEST(TracerTest, SpanCoversAllEvents)
{
    Tracer t;
    t.record(mk(EventKind::Launch, 100, 110));
    t.record(mk(EventKind::Kernel, 50, 400));
    EXPECT_EQ(t.firstStart(), 50);
    EXPECT_EQ(t.lastEnd(), 400);
    EXPECT_EQ(t.span(), 350);
}

TEST(TracerTest, OfKindFilters)
{
    Tracer t;
    t.record(mk(EventKind::Launch, 0, 1));
    t.record(mk(EventKind::Kernel, 1, 2));
    t.record(mk(EventKind::Launch, 2, 3));
    EXPECT_EQ(t.ofKind(EventKind::Launch).size(), 2u);
    EXPECT_EQ(t.ofKind(EventKind::MemcpyH2D).size(), 0u);
}

TEST(TracerTest, RejectsNegativeDuration)
{
    Tracer t;
    auto e = mk(EventKind::Launch, 10, 5);
    EXPECT_DEATH(t.record(e), "event ends before it starts");
}

TEST(TracerTest, ClearResets)
{
    Tracer t;
    t.record(mk(EventKind::Launch, 0, 1));
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.span(), 0);
}

TEST(Analysis, MetricsAggregateByKind)
{
    Tracer t;
    t.record(mk(EventKind::Launch, 0, 10, 2));
    t.record(mk(EventKind::Kernel, 12, 112, 2));
    t.record(mk(EventKind::Launch, 112, 120, 3));
    t.record(mk(EventKind::Kernel, 125, 185, 5));
    t.record(mk(EventKind::MemcpyH2D, 200, 300, 0, 4096));
    t.record(mk(EventKind::MemcpyD2H, 300, 350));
    t.record(mk(EventKind::MemcpyD2D, 350, 360));
    t.record(mk(EventKind::MallocDevice, 360, 400));
    t.record(mk(EventKind::Free, 400, 420));
    t.record(mk(EventKind::Sync, 420, 430));

    const auto m = analyze(t);
    EXPECT_EQ(m.launches, 2);
    EXPECT_EQ(m.kernels, 2);
    EXPECT_EQ(m.sumKlo(), 18);
    EXPECT_EQ(m.sumLqt(), 5);
    EXPECT_EQ(m.sumKqt(), 7);
    EXPECT_EQ(m.sumKet(), 160);
    EXPECT_EQ(m.copy_h2d, 100);
    EXPECT_EQ(m.copy_d2h, 50);
    EXPECT_EQ(m.copy_d2d, 10);
    EXPECT_EQ(m.copyTotal(), 160);
    EXPECT_EQ(m.alloc_device, 40);
    EXPECT_EQ(m.free_time, 20);
    EXPECT_EQ(m.sync_time, 10);
    EXPECT_EQ(m.end_to_end, 430);
}

TEST(Analysis, GraphLaunchCountsAsLaunch)
{
    Tracer t;
    t.record(mk(EventKind::GraphLaunch, 0, 8, 1));
    const auto m = analyze(t);
    EXPECT_EQ(m.launches, 1);
    EXPECT_EQ(m.sumKlo(), 8);
}

TEST(Analysis, FaultOverlapNotDoubleCountedInSync)
{
    // Regression: a fault-recovery span overlapping a Sync window
    // used to be counted in both fault_time and sync_time.  The
    // recovery owns that wall time; sync keeps only the rest.
    Tracer t;
    t.record(mk(EventKind::Sync, 150, 250));
    t.record(mk(EventKind::Fault, 100, 200));
    const auto m = analyze(t);
    EXPECT_EQ(m.fault_time, 100);
    EXPECT_EQ(m.fault_recoveries, 1);
    EXPECT_EQ(m.sync_time, 50);
}

TEST(Analysis, OverlappingFaultSpansMergeBeforeSyncCorrection)
{
    Tracer t;
    t.record(mk(EventKind::Sync, 150, 250));
    // Two overlapping recoveries covering [100, 200] in union; the
    // sync overlap must be subtracted once, not twice.
    t.record(mk(EventKind::Fault, 100, 180));
    t.record(mk(EventKind::Fault, 160, 200));
    const auto m = analyze(t);
    EXPECT_EQ(m.fault_recoveries, 2);
    EXPECT_EQ(m.sync_time, 50);
}

TEST(Analysis, FaultCoveringWholeSyncZeroesIt)
{
    Tracer t;
    t.record(mk(EventKind::Sync, 150, 250));
    t.record(mk(EventKind::Fault, 100, 300));
    const auto m = analyze(t);
    EXPECT_EQ(m.sync_time, 0);
    EXPECT_EQ(m.fault_time, 200);
}

SimTime
unionOf(std::vector<SpanCoverage::Span> spans)
{
    return SpanCoverage(std::move(spans)).total();
}

TEST(Analysis, UnionCoverageMergesOverlaps)
{
    EXPECT_EQ(unionOf({{0, 10}, {5, 15}}), 15);
    EXPECT_EQ(unionOf({{0, 10}, {20, 30}}), 20);
    EXPECT_EQ(unionOf({{0, 10}, {2, 3}}), 10);
    EXPECT_EQ(unionOf({}), 0);
}

TEST(Analysis, UnionCoverageUnsortedInput)
{
    EXPECT_EQ(unionOf({{20, 30}, {0, 5}, {4, 21}}), 30);
}

TEST(Analysis, OverlapWithClipsToWindow)
{
    const SpanCoverage spans({{0, 100}, {200, 300}});
    EXPECT_EQ(spans.covered(50, 250), 100);
    EXPECT_EQ(spans.covered(400, 500), 0);
    EXPECT_EQ(spans.covered(100, 100), 0);
}

TEST(Analysis, SpanCoverageMatchesBruteForce)
{
    // Spans live on a small integer grid [kLo, kHi), so a
    // per-picosecond bitmap is an exact reference for the union and
    // for every window.
    constexpr SimTime kLo = -8;
    constexpr SimTime kHi = 72;
    std::mt19937_64 rng(20250416);
    const auto pick = [&](SimTime lo, SimTime hi) {
        return lo + static_cast<SimTime>(
                   rng() % static_cast<std::uint64_t>(hi - lo + 1));
    };
    for (int family = 0; family < 2000; ++family) {
        std::vector<SpanCoverage::Span> spans;
        const int n = static_cast<int>(rng() % 13);
        for (int i = 0; i < n; ++i) {
            const SimTime a = pick(kLo, kHi - 20);
            SpanCoverage::Span sp{a, a + pick(1, 20)};
            if (!spans.empty()) {
                const auto prev = spans[rng() % spans.size()];
                const SimTime lo = std::min(prev.first, prev.second);
                const SimTime hi = std::max(prev.first, prev.second);
                switch (rng() % 8) {
                  case 0: // duplicate
                    sp = prev;
                    break;
                  case 1: // touching
                    sp = {hi, std::min(hi + pick(0, 8), kHi)};
                    break;
                  case 2: // nested
                    sp.first = pick(lo, hi);
                    sp.second = pick(sp.first, hi);
                    break;
                  default:
                    break;
                }
            }
            switch (rng() % 8) {
              case 0: // empty
                sp.second = sp.first;
                break;
              case 1: // inverted
                std::swap(sp.first, sp.second);
                break;
              default:
                break;
            }
            spans.push_back(sp);
        }
        std::vector<bool> bit(static_cast<std::size_t>(kHi - kLo));
        for (const auto &[a, b] : spans)
            for (SimTime t = a; t < b; ++t)
                bit[static_cast<std::size_t>(t - kLo)] = true;
        const auto brute = [&](SimTime a, SimTime b) {
            SimTime c = 0;
            for (SimTime t = std::max(a, kLo); t < std::min(b, kHi); ++t)
                c += bit[static_cast<std::size_t>(t - kLo)] ? 1 : 0;
            return c;
        };

        const SpanCoverage cov(spans);
        ASSERT_EQ(cov.total(), brute(kLo, kHi)) << "family " << family;
        const auto &runs = cov.runs();
        for (std::size_t r = 0; r < runs.size(); ++r) {
            EXPECT_LT(runs[r].first, runs[r].second);
            if (r > 0) {
                EXPECT_LT(runs[r - 1].second, runs[r].first);
            }
        }
        for (int q = 0; q < 40; ++q) {
            const SimTime a = pick(kLo - 4, kHi + 4);
            // Every fifth window is empty or inverted.
            const SimTime b = q % 5 == 0 ? a - pick(0, 10)
                                         : pick(kLo - 4, kHi + 4);
            ASSERT_EQ(cov.covered(a, b), brute(a, b))
                << "family " << family << " window [" << a << ", "
                << b << ")";
        }
    }
}

TEST(Analysis, EventScatterDropsLongest)
{
    Tracer t;
    t.record(mk(EventKind::Kernel, 0, 1000));     // the long one
    t.record(mk(EventKind::Kernel, 1000, 1010));
    t.record(mk(EventKind::Kernel, 2000, 2020));
    const auto pts = eventScatter(t, EventKind::Kernel, 1);
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_LT(pts[0].start_us, pts[1].start_us)
        << "points sorted by start";
    for (const auto &p : pts)
        EXPECT_LT(p.duration_us, 1.0);
}

TEST(Analysis, KlrDefinition)
{
    Tracer t;
    t.record(mk(EventKind::Launch, 0, 10, 10));   // KLO 10, LQT 10
    t.record(mk(EventKind::Kernel, 10, 110, 0));  // KET 100
    const auto m = analyze(t);
    EXPECT_DOUBLE_EQ(kernelToLaunchRatio(m), 5.0);
}

TEST(Analysis, KlrInfiniteWithoutLaunches)
{
    Tracer t;
    t.record(mk(EventKind::Kernel, 0, 100));
    const auto m = analyze(t);
    EXPECT_GT(kernelToLaunchRatio(m), 1e12);
}

} // namespace
} // namespace hcc::trace
