/**
 * @file
 * Tests for the performance-model decomposition: part accounting,
 * alpha/beta estimation, prediction accuracy on synthetic and real
 * traces.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "perfmodel/model.hpp"
#include "runtime/context.hpp"
#include "trace/tracer.hpp"
#include "workloads/workload.hpp"

namespace hcc::perfmodel {
namespace {

trace::TraceEvent
ev(trace::EventKind kind, SimTime start, SimTime end,
   SimTime wait = 0)
{
    trace::TraceEvent e;
    e.kind = kind;
    e.start = start;
    e.end = end;
    e.queue_wait = wait;
    return e;
}

TEST(Decompose, SerialAppExactPrediction)
{
    // memcpy [0,100), launch [100,110), kernel [110,160), free
    // [160,200): no overlap anywhere.
    trace::Tracer t;
    t.record(ev(trace::EventKind::MemcpyH2D, 0, 100));
    t.record(ev(trace::EventKind::Launch, 100, 110));
    t.record(ev(trace::EventKind::Kernel, 110, 160));
    t.record(ev(trace::EventKind::Free, 160, 200));
    const auto d = decompose(t);
    EXPECT_EQ(d.t_mem, 100);
    EXPECT_EQ(d.t_launch, 10);
    EXPECT_EQ(d.t_kernel, 50);
    EXPECT_EQ(d.t_other, 40);
    EXPECT_DOUBLE_EQ(d.alpha, 0.0);
    EXPECT_DOUBLE_EQ(d.beta_mean, 0.0);
    EXPECT_EQ(d.predicted, 200);
    EXPECT_EQ(d.end_to_end, 200);
    EXPECT_DOUBLE_EQ(d.relativeError(), 0.0);
}

TEST(Decompose, FullyOverlappedCopyGivesAlphaOne)
{
    trace::Tracer t;
    t.record(ev(trace::EventKind::Kernel, 0, 1000));
    t.record(ev(trace::EventKind::MemcpyH2D, 100, 300));
    const auto d = decompose(t);
    EXPECT_DOUBLE_EQ(d.alpha, 1.0);
    EXPECT_EQ(d.predicted, 1000);
}

TEST(Decompose, KernelHiddenUnderLaunchGivesBetaOne)
{
    // Fig. 3's K1: launch activity covers the kernel completely.
    trace::Tracer t;
    t.record(ev(trace::EventKind::Launch, 0, 100));
    t.record(ev(trace::EventKind::Kernel, 10, 60));
    const auto d = decompose(t);
    EXPECT_DOUBLE_EQ(d.beta_mean, 1.0);
    EXPECT_EQ(d.predicted, 100);
}

TEST(Decompose, LqtExtendsTheLaunchSpan)
{
    trace::Tracer t;
    // Launch op [50,60) preceded by 50 of queuing: B = 60.
    t.record(ev(trace::EventKind::Launch, 50, 60, 50));
    const auto d = decompose(t);
    EXPECT_EQ(d.t_launch, 60);
}

TEST(Decompose, SyncOverlappedWithKernelNotDoubleCounted)
{
    trace::Tracer t;
    t.record(ev(trace::EventKind::Kernel, 0, 100));
    t.record(ev(trace::EventKind::Sync, 20, 120));
    const auto d = decompose(t);
    // Only the sync tail [100,120) lands in T_other.
    EXPECT_EQ(d.t_other, 20);
}

TEST(Decompose, OverlapsCountTheUnionOfEachFamily)
{
    trace::Tracer t;
    // Launch spans (LQT included): [0,10), [15,30), [25,40).
    t.record(ev(trace::EventKind::Launch, 0, 10));
    t.record(ev(trace::EventKind::Launch, 20, 30, 5));
    t.record(ev(trace::EventKind::Launch, 25, 40));
    // K1 [5,45): the launches cover [5,10) + [15,40) = 30 of its 40,
    // the overlap of the last two counted once: beta_1 = 0.75.
    t.record(ev(trace::EventKind::Kernel, 8, 45, 3));
    // Copy [41,49): [41,45) lies under K1, so alpha = 4/8.
    t.record(ev(trace::EventKind::MemcpyH2D, 41, 49));
    // K2 [100,150) and K3 [160,200), no launch above: beta = 0.
    t.record(ev(trace::EventKind::Kernel, 100, 150));
    t.record(ev(trace::EventKind::Kernel, 160, 200));
    // Sync [120,220) overlaps K2 by 30 and K3 by 40: residue 30.
    t.record(ev(trace::EventKind::Sync, 120, 220));
    const auto d = decompose(t);
    EXPECT_EQ(d.t_mem, 8);
    EXPECT_DOUBLE_EQ(d.alpha, 0.5);
    EXPECT_EQ(d.t_launch, 40);
    EXPECT_EQ(d.t_kernel, 130);
    EXPECT_DOUBLE_EQ(d.beta_mean, 0.25);
    EXPECT_EQ(d.t_other, 30);
    EXPECT_EQ(d.end_to_end, 220);
    // (1 - alpha) * 8 + 40 + (10 + 50 + 40) + 30.
    EXPECT_EQ(d.predicted, 174);
    EXPECT_EQ(d.residual, 46);
}

TEST(Decompose, EmptyTraceIsAllZero)
{
    trace::Tracer t;
    const auto d = decompose(t);
    EXPECT_EQ(d.end_to_end, 0);
    EXPECT_EQ(d.predicted, 0);
    EXPECT_DOUBLE_EQ(d.relativeError(), 0.0);
}

TEST(Decompose, ReportMentionsAllParts)
{
    trace::Tracer t;
    t.record(ev(trace::EventKind::Kernel, 0, 100));
    const auto d = decompose(t);
    const std::string r = d.report();
    EXPECT_NE(r.find("T_mem"), std::string::npos);
    EXPECT_NE(r.find("KLO+LQT"), std::string::npos);
    EXPECT_NE(r.find("P (model)"), std::string::npos);
}

// The model must predict real app traces accurately in both modes
// (this is the claim of Sec. V). The app name is a std::string so the
// printed parameter (and so the registered test name) carries the name
// itself rather than a load-address-dependent pointer.
class ModelAccuracy
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(ModelAccuracy, PredictsEndToEndWithinFivePercent)
{
    const auto [app, cc] = GetParam();
    rt::SystemConfig cfg;
    cfg.cc = cc;
    const auto res = workloads::runWorkload(app, cfg);
    const auto d = decompose(res.trace);
    EXPECT_LT(d.relativeError(), 0.05)
        << app << " cc=" << cc << ": predicted "
        << formatTime(d.predicted) << " vs measured "
        << formatTime(d.end_to_end);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, ModelAccuracy,
    ::testing::Combine(::testing::Values("2mm", "3dconv", "sc",
                                         "hotspot", "kmeans",
                                         "gramschm", "dwt2d", "cnn"),
                       ::testing::Bool()));

} // namespace
} // namespace hcc::perfmodel
