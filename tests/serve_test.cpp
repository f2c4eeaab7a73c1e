/**
 * @file
 * Tests for the open-loop serving simulator: arrival-trace
 * determinism, nearest-rank percentiles, burst-window parsing and
 * shaping, continuous-batching scheduler edge cases (lone request,
 * KV-budget preemption), the paper-shaped CC-vs-native goodput gap
 * widening with load, and byte-identical output across worker
 * counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "serve/serve.hpp"

namespace hcc::serve {
namespace {

/** A spec small enough that a full cell serves in milliseconds. */
ServeSpec
tinySpec()
{
    ServeSpec spec;
    spec.requests = 12;
    spec.max_batch = 4;
    spec.prompt_len = 64;
    spec.gen_len = 8;
    spec.loads = {8.0};
    spec.cc_modes = {false};
    return spec;
}

// -------------------------------------------------------- arrivals

TEST(ServeArrivals, TraceIsDeterministicAndOrdered)
{
    const ServeSpec spec = tinySpec();
    const auto a = buildArrivalTrace(spec, 8.0);
    const auto b = buildArrivalTrace(spec, 8.0);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(spec.requests));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int>(i));
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
        EXPECT_EQ(a[i].gen_len, b[i].gen_len);
        if (i > 0) {
            EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        }
        EXPECT_GE(a[i].prompt_len, 1);
        EXPECT_GE(a[i].gen_len, 1);
    }
}

TEST(ServeArrivals, SeedAndLoadChangeTheTrace)
{
    ServeSpec spec = tinySpec();
    const auto base = buildArrivalTrace(spec, 8.0);
    const auto faster = buildArrivalTrace(spec, 32.0);
    EXPECT_LT(faster.back().arrival, base.back().arrival)
        << "4x the offered load must compress the trace";
    spec.seed = 7;
    const auto reseeded = buildArrivalTrace(spec, 8.0);
    EXPECT_NE(reseeded.back().arrival, base.back().arrival);
}

TEST(ServeArrivals, LengthsStayAroundTheMeans)
{
    const ServeSpec spec = tinySpec();
    for (const Request &r : buildArrivalTrace(spec, 8.0)) {
        EXPECT_GE(r.prompt_len, spec.prompt_len / 2);
        EXPECT_LE(r.prompt_len, spec.prompt_len * 3 / 2);
        EXPECT_GE(r.gen_len, spec.gen_len / 2);
        EXPECT_LE(r.gen_len, spec.gen_len * 3 / 2);
    }
}

TEST(ServeArrivals, BurstWindowCompressesTheTrace)
{
    ServeSpec spec = tinySpec();
    const auto plain = buildArrivalTrace(spec, 8.0);
    spec.bursts = {{0.0, 1.0, 10.0}};
    const auto burst = buildArrivalTrace(spec, 8.0);
    EXPECT_LT(burst.back().arrival, plain.back().arrival)
        << "a whole-trace 10x burst must shorten every gap";
}

TEST(ServeArrivals, ParseBurstList)
{
    const auto one = parseBurstList("0.5:0.8:4");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one[0].begin, 0.5);
    EXPECT_DOUBLE_EQ(one[0].end, 0.8);
    EXPECT_DOUBLE_EQ(one[0].multiplier, 4.0);
    EXPECT_EQ(parseBurstList("0:0.25:2,0.75:1:8").size(), 2u);

    EXPECT_THROW(parseBurstList(""), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.8:0.5:4"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.5:0.8:0"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("-0.1:0.5:2"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.5:1.5:2"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.5:0.8"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("nonsense"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.5:0.8:nan"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.5:0.8:inf"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("nan:0.8:2"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.5:0.8:2:3"), hcc::FatalError);
    EXPECT_THROW(parseBurstList("0.5:0.8:2x"), hcc::FatalError);
}

// ----------------------------------------------------- percentiles

TEST(ServePercentile, NearestRankMatchesHandComputedValues)
{
    const std::vector<SimTime> ten = {10, 20, 30, 40, 50,
                                      60, 70, 80, 90, 100};
    EXPECT_EQ(percentileNearestRank(ten, 50.0), 50);
    EXPECT_EQ(percentileNearestRank(ten, 90.0), 90);
    EXPECT_EQ(percentileNearestRank(ten, 95.0), 100);
    EXPECT_EQ(percentileNearestRank(ten, 99.0), 100);
    EXPECT_EQ(percentileNearestRank(ten, 100.0), 100);
    EXPECT_EQ(percentileNearestRank(ten, 1.0), 10);

    EXPECT_EQ(percentileNearestRank({}, 95.0), 0);
    EXPECT_EQ(percentileNearestRank({42}, 50.0), 42);
    EXPECT_EQ(percentileNearestRank({42}, 99.0), 42);
}

// ------------------------------------------------------- expansion

TEST(ServeExpand, CellsFollowInputOrderAndLabels)
{
    ServeSpec spec;
    spec.loads = {8.0, 24.0};
    spec.cc_modes = {false, true};
    spec.overlaps = {tee::OverlapMode::None,
                     tee::OverlapMode::Speculative};
    EXPECT_EQ(spec.cellCount(), 8u);
    const auto cells = expandServeCells(spec);
    ASSERT_EQ(cells.size(), 8u);
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[0].label(), "l8.base");
    EXPECT_EQ(cells[1].label(), "l8.base.speculative");
    EXPECT_EQ(cells[2].label(), "l8.cc");
    EXPECT_EQ(cells[3].label(), "l8.cc.speculative");
    EXPECT_EQ(cells[4].label(), "l24.base");
    EXPECT_DOUBLE_EQ(cells[4].load, 24.0);
    EXPECT_TRUE(cells[6].cc);
}

// ------------------------------------------------------- scheduler

TEST(ServeScheduler, LoneRequestCompletesWithoutPreemption)
{
    ServeSpec spec = tinySpec();
    spec.requests = 1;
    const auto cells = expandServeCells(spec);
    ASSERT_EQ(cells.size(), 1u);
    const ServePoint p = runServeCell(spec, cells[0]);
    EXPECT_EQ(p.requests, 1);
    EXPECT_EQ(p.completed, 1);
    EXPECT_EQ(p.preempted, 0);
    EXPECT_EQ(p.prefills, 1);
    EXPECT_GT(p.tokens, 0);
    EXPECT_GT(p.makespan, 0);
    EXPECT_GT(p.ttft_p50, 0);
    EXPECT_GT(p.tpot_p50, 0);
    EXPECT_GE(p.ttft_p99, p.ttft_p50);
    EXPECT_GE(p.tpot_p99, p.tpot_p50);
}

TEST(ServeScheduler, EveryRequestRetiresUnderContention)
{
    ServeSpec spec = tinySpec();
    spec.loads = {64.0};     // all requests queue near t=0
    const auto cells = expandServeCells(spec);
    const ServePoint p = runServeCell(spec, cells[0]);
    EXPECT_EQ(p.completed, spec.requests);
    EXPECT_GE(p.prefills, spec.requests)
        << "every request must prefill at least once";
    EXPECT_GT(p.goodput_tok_s, 0.0);
}

TEST(ServeScheduler, KvBudgetExhaustionPreemptsAndStillCompletes)
{
    ServeSpec spec = tinySpec();
    spec.requests = 8;
    spec.prompt_len = 16;
    spec.gen_len = 128;
    // Prompts are cheap (<1 MiB of KV), so a full batch admits under
    // the 4 MiB budget — but each session grows 2-6 MiB of decode KV,
    // so growth must overflow the budget and evict young sessions.
    spec.kv_budget_bytes = size::mib(4);
    spec.loads = {64.0};
    const auto cells = expandServeCells(spec);
    const ServePoint p = runServeCell(spec, cells[0]);
    EXPECT_EQ(p.completed, spec.requests);
    EXPECT_GT(p.preempted, 0)
        << "a 12 MiB budget cannot hold two 8 MiB sessions";
    EXPECT_GT(p.prefills, 0);
    EXPECT_GT(p.kv_migrated_bytes, 0u);
}

TEST(ServeScheduler, CcPaysThePagingAndLaunchTax)
{
    ServeSpec spec = tinySpec();
    spec.cc_modes = {false, true};
    const auto cells = expandServeCells(spec);
    ASSERT_EQ(cells.size(), 2u);
    const ServePoint base = runServeCell(spec, cells[0]);
    const ServePoint cc = runServeCell(spec, cells[1]);
    EXPECT_EQ(base.completed, spec.requests);
    EXPECT_EQ(cc.completed, spec.requests);
    EXPECT_GT(cc.makespan, base.makespan);
    EXPECT_GT(cc.ttft_p95, base.ttft_p95);
    EXPECT_LT(cc.goodput_tok_s, base.goodput_tok_s);
    EXPECT_GE(cc.kv_fault_batches, base.kv_fault_batches)
        << "CC bounds fault batches to 2 pages, so the same KV "
           "working set needs at least as many batches";
}

TEST(ServeScheduler, CcGoodputGapWidensTowardSaturation)
{
    ServeSpec spec;
    spec.requests = 32;
    spec.max_batch = 8;
    spec.prompt_len = 128;
    spec.gen_len = 16;
    spec.kv_budget_bytes = size::mib(64);
    spec.loads = {4.0, 16.0};
    spec.cc_modes = {false, true};
    const ServeResult r = runServe(spec, 2);
    ASSERT_TRUE(r.allOk());
    ASSERT_EQ(r.cells.size(), 4u);
    // Input order: l4.base, l4.cc, l16.base, l16.cc.
    const double gap_low = r.cells[0].point.goodput_tok_s
                           - r.cells[1].point.goodput_tok_s;
    const double gap_high = r.cells[2].point.goodput_tok_s
                            - r.cells[3].point.goodput_tok_s;
    EXPECT_GT(gap_low, 0.0);
    EXPECT_GT(gap_high, gap_low)
        << "the CC goodput deficit must widen as load approaches "
           "saturation (low " << gap_low << ", high " << gap_high
        << " tok/s)";
}

TEST(ServeScheduler, RejectsNonPositiveLoad)
{
    const ServeSpec spec = tinySpec();
    ServeCell cell;
    cell.load = 0.0;
    EXPECT_THROW(runServeCell(spec, cell), hcc::FatalError);
}

// --------------------------------------------------------- outputs

TEST(ServeOutput, ByteIdenticalAcrossWorkerCounts)
{
    ServeSpec spec = tinySpec();
    spec.loads = {8.0, 24.0};
    spec.cc_modes = {false, true};
    const ServeResult serial = runServe(spec, 1);
    const ServeResult parallel = runServe(spec, 4);
    ASSERT_TRUE(serial.allOk());
    ASSERT_TRUE(parallel.allOk());

    std::ostringstream cs, cp, js, jp, ss, sp;
    writeServeCsv(serial, cs);
    writeServeCsv(parallel, cp);
    EXPECT_EQ(cs.str(), cp.str());
    writeServeJson(serial, js);
    writeServeJson(parallel, jp);
    EXPECT_EQ(js.str(), jp.str());
    writeServeStats(serial, ss);
    writeServeStats(parallel, sp);
    EXPECT_EQ(ss.str(), sp.str());
}

TEST(ServeOutput, CsvAndJsonCarryTheSloColumns)
{
    const ServeResult r = runServe(tinySpec(), 1);
    ASSERT_TRUE(r.allOk());
    std::ostringstream csv, json, stats;
    writeServeCsv(r, csv);
    writeServeJson(r, json);
    writeServeStats(r, stats);
    EXPECT_EQ(csv.str().find("index,label,load,cc,overlap,"),
              0u);
    EXPECT_NE(csv.str().find("ttft_p95_ps"), std::string::npos);
    EXPECT_NE(csv.str().find("l8.base"), std::string::npos);
    EXPECT_NE(json.str().find("\"goodput_tok_s\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"bottleneck\""), std::string::npos);
    EXPECT_NE(stats.str().find("serve_curve"), std::string::npos);
    EXPECT_NE(stats.str().find("cell0.l8.base."),
              std::string::npos);
}

TEST(ServeOutput, FormatLoadIsShortest)
{
    ServeCell cell;
    for (const auto &[load, label] :
         {std::pair{8.0, "l8.base"}, std::pair{0.5, "l0.5.base"},
          std::pair{24.0, "l24.base"}}) {
        cell.load = load;
        EXPECT_EQ(cell.label(), label);
    }
}

} // namespace
} // namespace hcc::serve
