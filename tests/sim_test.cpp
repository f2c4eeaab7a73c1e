/**
 * @file
 * Tests for the simulation kernel: timelines and timeline pools.
 */

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "sim/timeline.hpp"

namespace hcc::sim {
namespace {

// ------------------------------------------------------------ timeline

TEST(TimelineTest, BackToBackReservations)
{
    Timeline t("ce");
    const auto a = t.reserve(0, 100);
    EXPECT_EQ(a.start, 0);
    EXPECT_EQ(a.end, 100);
    const auto b = t.reserve(0, 50);
    EXPECT_EQ(b.start, 100) << "FIFO resource: b queues behind a";
    EXPECT_EQ(b.end, 150);
    EXPECT_EQ(t.totalQueuing(), 100);
    EXPECT_EQ(t.busyTime(), 150);
    EXPECT_EQ(t.reservations(), 2u);
}

TEST(TimelineTest, IdleGapWhenReadyLate)
{
    Timeline t;
    t.reserve(0, 10);
    const auto b = t.reserve(100, 10);
    EXPECT_EQ(b.start, 100) << "no queuing when resource is idle";
    EXPECT_EQ(t.totalQueuing(), 0);
}

TEST(TimelineTest, ZeroDurationAllowed)
{
    Timeline t;
    const auto a = t.reserve(5, 0);
    EXPECT_EQ(a.start, 5);
    EXPECT_EQ(a.end, 5);
}

TEST(TimelineTest, ResetClearsState)
{
    Timeline t;
    t.reserve(0, 100);
    t.reset();
    EXPECT_EQ(t.freeAt(), 0);
    EXPECT_EQ(t.busyTime(), 0);
    EXPECT_EQ(t.reservations(), 0u);
}

TEST(TimelineTest, IntervalsNeverOverlap)
{
    Timeline t;
    SimTime prev_end = 0;
    for (int i = 0; i < 100; ++i) {
        const auto iv = t.reserve(i * 3, 7);
        EXPECT_GE(iv.start, prev_end);
        prev_end = iv.end;
    }
}

// ---------------------------------------------------------------- pool

TEST(TimelinePoolTest, SpreadsAcrossMembers)
{
    TimelinePool pool("copy", 2);
    const auto a = pool.reserve(0, 100);
    const auto b = pool.reserve(0, 100);
    EXPECT_EQ(a.start, 0);
    EXPECT_EQ(b.start, 0) << "second member should take the overflow";
    const auto c = pool.reserve(0, 10);
    EXPECT_EQ(c.start, 100) << "both busy until 100";
}

TEST(TimelinePoolTest, ReportsServingMember)
{
    TimelinePool pool("ce", 3);
    int m0 = -1, m1 = -1, m2 = -1;
    pool.reserve(0, 10, m0);
    pool.reserve(0, 10, m1);
    pool.reserve(0, 10, m2);
    EXPECT_NE(m0, m1);
    EXPECT_NE(m1, m2);
    EXPECT_NE(m0, m2);
}

TEST(TimelinePoolTest, ZeroDurationTiesRoundRobin)
{
    // Regression: the old selector minimized freeAt() and broke
    // ties toward member 0, so a burst of zero-duration
    // reservations (zero-byte copies on a copy-engine pool) all
    // piled onto the first member.  Ties on the actual start time
    // must rotate across the pool instead.
    TimelinePool pool("ce", 4);
    int m[4] = {-1, -1, -1, -1};
    for (int i = 0; i < 4; ++i) {
        const auto iv = pool.reserve(100, 0, m[i]);
        EXPECT_EQ(iv.start, 100);
    }
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            EXPECT_NE(m[i], m[j])
                << "tied reservations must spread across members";
}

TEST(TimelinePoolTest, PicksMemberMinimizingActualStart)
{
    TimelinePool pool("ce", 2);
    int first = -1, second = -1;
    pool.reserve(0, 100, first);     // that member busy until 100
    // At ready=50 the other member starts immediately; the busy one
    // could only start at 100.
    const auto iv = pool.reserve(50, 10, second);
    EXPECT_EQ(iv.start, 50);
    EXPECT_NE(first, second);
}

TEST(TimelinePoolTest, ResetRestoresDeterministicSelection)
{
    TimelinePool pool("ce", 2);
    int m = -1;
    pool.reserve(0, 0, m);
    pool.reserve(0, 0, m);
    pool.reset();
    pool.reserve(0, 0, m);
    EXPECT_EQ(m, 0) << "reset must also rewind the tie cursor";
}

TEST(TimelinePoolTest, SingleMemberBehavesLikeTimeline)
{
    TimelinePool pool("x", 1);
    pool.reserve(0, 50);
    const auto b = pool.reserve(0, 10);
    EXPECT_EQ(b.start, 50);
}

TEST(TimelinePoolTest, RejectsEmptyPool)
{
    EXPECT_THROW(TimelinePool("bad", 0), FatalError);
}

TEST(TimelinePoolTest, EarliestFree)
{
    TimelinePool pool("p", 2);
    pool.reserve(0, 100);
    EXPECT_EQ(pool.earliestFree(), 0);
    pool.reserve(0, 200);
    EXPECT_EQ(pool.earliestFree(), 100);
}

} // namespace
} // namespace hcc::sim
