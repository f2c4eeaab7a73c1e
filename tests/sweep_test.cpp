/**
 * @file
 * Tests for the parallel sweep engine: the work-stealing thread
 * pool, grid expansion and parsing, the determinism guarantee
 * (byte-identical merged output regardless of worker count), and
 * per-cell crash isolation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/stats_io.hpp"
#include "sweep/sweep.hpp"

namespace hcc::sweep {
namespace {

// ------------------------------------------------------ thread pool

TEST(ThreadPool, ExecutesEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
    EXPECT_EQ(pool.stats().executed, 100u);
}

TEST(ThreadPool, WaitWithNoTasksReturns)
{
    ThreadPool pool(2);
    pool.wait();
    EXPECT_EQ(pool.stats().executed, 0u);
}

TEST(ThreadPool, SurvivesThrowingTasks)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&, i] {
            if (i % 2 == 0)
                throw std::runtime_error("boom");
            done.fetch_add(1);
        });
    }
    pool.wait();
    EXPECT_EQ(done.load(), 5);
    EXPECT_EQ(pool.stats().uncaught, 5u);
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultJobs(), 1);
}

TEST(RunIndexed, SingleJobRunsInline)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(3);
    runIndexed(3, 1, [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(RunIndexed, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    const auto stats = runIndexed(hits.size(), 8, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(stats.executed, hits.size());
}

TEST(RunIndexed, RethrowsTheLowestIndexErrorAfterEveryTaskRan)
{
    // A throwing task must neither stop the others nor vanish: the
    // caller would read its slot as a default-constructed result.
    for (const int jobs : {1, 4}) {
        std::vector<std::atomic<int>> ran(10);
        try {
            runIndexed(ran.size(), jobs, [&](std::size_t i) {
                ran[i].fetch_add(1);
                if (i == 3 || i == 7)
                    throw FatalError("task " + std::to_string(i));
            });
            ADD_FAILURE() << "nothing rethrown at jobs " << jobs;
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), "task 3") << "jobs " << jobs;
        }
        for (const auto &r : ran)
            EXPECT_EQ(r.load(), 1) << "jobs " << jobs;
    }
}

// --------------------------------------------------- grid expansion

TEST(GridSpecTest, ExpandsInInputOrder)
{
    GridSpec grid;
    grid.apps = {"a", "b"};
    grid.cc_modes = {false, true};
    grid.scales = {1.0, 2.0};
    EXPECT_EQ(grid.cellCount(), 8u);
    const auto cells = expandGrid(grid);
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].app, "a");
    EXPECT_FALSE(cells[0].cc);
    EXPECT_EQ(cells[0].scale, 1.0);
    EXPECT_EQ(cells[1].scale, 2.0) << "seeds/scales are innermost";
    EXPECT_TRUE(cells[2].cc);
    EXPECT_EQ(cells[4].app, "b");
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(GridSpecTest, LabelEncodesTheCell)
{
    GridSpec grid;
    grid.apps = {"2mm"};
    grid.cc_modes = {true};
    grid.uvm_modes = {true};
    grid.scales = {2.0};
    grid.seeds = {7};
    const auto cells = expandGrid(grid);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].label(), "2mm.cc.uvm.x2.s7");
}

TEST(GridSpecTest, OverlapIsTheInnermostAxis)
{
    GridSpec grid;
    grid.apps = {"a"};
    grid.cc_modes = {true};
    grid.seeds = {1, 2};
    grid.overlaps = {tee::OverlapMode::None,
                     tee::OverlapMode::Speculative};
    EXPECT_EQ(grid.cellCount(), 4u);
    const auto cells = expandGrid(grid);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].overlap, tee::OverlapMode::None);
    EXPECT_EQ(cells[1].overlap, tee::OverlapMode::Speculative);
    EXPECT_EQ(cells[1].seed, 1u)
        << "overlap spins faster than seeds";
    EXPECT_EQ(cells[2].seed, 2u);
    EXPECT_EQ(cells[3].overlap, tee::OverlapMode::Speculative);
}

TEST(GridSpecTest, LabelAppendsOnlyPipelinedTiers)
{
    GridSpec grid;
    grid.apps = {"2mm"};
    grid.cc_modes = {true};
    grid.overlaps = {tee::OverlapMode::None,
                     tee::OverlapMode::DoubleBuffer,
                     tee::OverlapMode::Speculative};
    const auto cells = expandGrid(grid);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].label(), "2mm.cc.x1.s42")
        << "serial tier keeps the pre-overlap label stable";
    EXPECT_EQ(cells[1].label(), "2mm.cc.x1.s42.double-buffer");
    EXPECT_EQ(cells[2].label(), "2mm.cc.x1.s42.speculative");
}

// ------------------------------------------------------ spec parsing

TEST(ParseGridSpec, ParsesKeysAndComments)
{
    const auto grid = parseGridSpec("# comment\n"
                                    "apps = atax, bicg\n"
                                    "cc = both\n"
                                    "uvm = off\n"
                                    "scales = 0.5, 1\n"
                                    "seeds = 1, 2\n"
                                    "crypto-workers = 4\n"
                                    "tee-io = off\n").take();
    EXPECT_EQ(grid.apps, (std::vector<std::string>{"atax", "bicg"}));
    EXPECT_EQ(grid.cc_modes, (std::vector<bool>{false, true}));
    EXPECT_EQ(grid.scales, (std::vector<double>{0.5, 1.0}));
    EXPECT_EQ(grid.crypto_workers, 4);
    EXPECT_EQ(grid.cellCount(), 16u);
}

TEST(ParseGridSpec, RejectsUnknownKeys)
{
    const auto grid = parseGridSpec("bogus = 1\n");
    EXPECT_FALSE(grid.ok());
    EXPECT_EQ(grid.status().code(), ErrorCode::ParseError);
    EXPECT_NE(grid.status().message().find("bogus"),
              std::string::npos)
        << "error message names the offending key";
}

TEST(ParseGridSpec, RejectsBadValues)
{
    EXPECT_FALSE(parseGridSpec("apps = atax\nscales = -1\n").ok());
    EXPECT_FALSE(parseGridSpec("apps = atax\nscales = nan\n").ok());
    EXPECT_FALSE(parseGridSpec("apps = atax\nscales = 1,inf\n").ok());
    EXPECT_FALSE(parseGridSpec("apps = atax\ncc = maybe\n").ok());
    // Integer keys read whole tokens, in range; every key's error,
    // list keys included, names its line and the key.
    for (const auto &[text, key] :
         std::initializer_list<std::pair<const char *, const char *>>{
             {"apps = atax\ncrypto-workers = 2x\n", "crypto-workers"},
             {"apps = atax\napps = ,\n", "apps"},
             {"apps = atax\ncc = sometimes\n", "cc"},
             {"apps = atax\nuvm = maybe\n", "uvm"},
             {"apps = atax\nscales = 1,-2\n", "scales"},
             {"apps = atax\nseeds = 1,-2\n", "seeds"},
             {"apps = atax\noverlap = none,warp\n", "overlap"},
         }) {
        const auto grid = parseGridSpec(text);
        ASSERT_FALSE(grid.ok()) << text;
        const std::string &msg = grid.status().message();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::string("bad ") + key + ":"),
                  std::string::npos)
            << msg;
    }
    // `snapshot-budget` is not a grid key; its error names the line.
    const auto budget =
        parseGridSpec("apps = atax\nsnapshot-budget = 64\n");
    ASSERT_FALSE(budget.ok());
    EXPECT_NE(budget.status().message().find(
                  "line 2: unknown key 'snapshot-budget'"),
              std::string::npos)
        << budget.status().message();
    EXPECT_FALSE(parseModeList("sideways").ok());
    EXPECT_FALSE(parseScaleList("").ok());
    EXPECT_FALSE(parseScaleList("2x").ok());
    EXPECT_FALSE(parseSeedList("1,-2").ok());
    EXPECT_FALSE(parseSeedList("7abc").ok());
    EXPECT_FALSE(parseAppList("").ok());
}

TEST(ParseGridSpec, AllExpandsToEvaluationApps)
{
    const auto apps = parseAppList("all");
    ASSERT_TRUE(apps.ok());
    EXPECT_GT(apps->size(), 10u);
}

TEST(ParseOverlapList, ListAllAndErrors)
{
    EXPECT_EQ(parseOverlapList("none,speculative").value(),
              (std::vector<tee::OverlapMode>{
                  tee::OverlapMode::None,
                  tee::OverlapMode::Speculative}));
    EXPECT_EQ(parseOverlapList("all").value(),
              (std::vector<tee::OverlapMode>{
                  tee::OverlapMode::None,
                  tee::OverlapMode::DoubleBuffer,
                  tee::OverlapMode::Speculative}));
    EXPECT_FALSE(parseOverlapList("warp").ok());
    EXPECT_FALSE(parseOverlapList("").ok());
}

TEST(ParseGridSpec, OverlapKey)
{
    const auto grid = parseGridSpec("apps = atax\n"
                                    "overlap = none, double-buffer\n")
                          .take();
    EXPECT_EQ(grid.overlaps,
              (std::vector<tee::OverlapMode>{
                  tee::OverlapMode::None,
                  tee::OverlapMode::DoubleBuffer}));
    EXPECT_EQ(grid.cellCount(), 4u) << "overlap multiplies cc=both";
    EXPECT_FALSE(parseGridSpec("apps = atax\noverlap = warp\n").ok());
}

// ------------------------------------------------------- determinism

/** The tentpole guarantee: merged outputs are byte-identical no
 *  matter how many workers raced over the grid. */
TEST(SweepDeterminism, MergedOutputIndependentOfJobs)
{
    GridSpec grid;
    grid.apps = {"atax", "bicg"};
    grid.cc_modes = {false, true};
    grid.seeds = {42, 7};

    const auto serial = runSweep(grid, 1);
    const auto parallel = runSweep(grid, 8);
    ASSERT_EQ(serial.cells.size(), 8u);
    ASSERT_EQ(parallel.cells.size(), 8u);
    EXPECT_TRUE(serial.allOk());
    EXPECT_TRUE(parallel.allOk());

    std::ostringstream stats1, stats8, csv1, csv8, json1, json8;
    writeMergedStats(serial, stats1);
    writeMergedStats(parallel, stats8);
    EXPECT_EQ(stats1.str(), stats8.str())
        << "merged stats must be byte-identical across --jobs";
    writeCellsCsv(serial, csv1);
    writeCellsCsv(parallel, csv8);
    EXPECT_EQ(csv1.str(), csv8.str());
    writeCellsJson(serial, json1);
    writeCellsJson(parallel, json8);
    EXPECT_EQ(json1.str(), json8.str());

    // And the dumps are stats-diff clean, the CI regression gate.
    const auto base = obs::parseStatsJson(stats1.str()).take();
    const auto cur = obs::parseStatsJson(stats8.str()).take();
    EXPECT_TRUE(obs::diffStats(base, cur, 0.0).pass());
}

TEST(SweepDeterminism, ResultsComeBackInInputOrder)
{
    GridSpec grid;
    grid.apps = {"atax", "gemm", "mvt"};
    grid.cc_modes = {false};
    const auto result = runSweep(grid, 4);
    ASSERT_EQ(result.cells.size(), 3u);
    EXPECT_EQ(result.cells[0].cell.app, "atax");
    EXPECT_EQ(result.cells[1].cell.app, "gemm");
    EXPECT_EQ(result.cells[2].cell.app, "mvt");
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        EXPECT_EQ(result.cells[i].cell.index, i);
}

/** Cross-seed prefix sharing: cells differing only in their seed now
 *  share one identity-seeded prefix, so every one of them replays
 *  from the snapshot — and still matches the cold control exactly. */
TEST(SweepDeterminism, DistinctSeedsShareOnePrefix)
{
    GridSpec grid;
    grid.apps = {"gaussian"};
    grid.cc_modes = {true};
    grid.seeds = {1, 2, 3};

    const auto fork = runSweep(grid, 1);
    ASSERT_EQ(fork.cells.size(), 3u);
    EXPECT_EQ(fork.snapshot_hits, 3u)
        << "distinct seeds must fork from one shared prefix";
    EXPECT_GT(fork.peak_resident_bytes, 0u);

    grid.no_snapshot = true;
    const auto cold = runSweep(grid, 2);
    EXPECT_EQ(cold.snapshot_hits, 0u);

    std::ostringstream st_f, st_c, csv_f, csv_c;
    writeMergedStats(fork, st_f);
    writeMergedStats(cold, st_c);
    EXPECT_EQ(st_f.str(), st_c.str());
    writeCellsCsv(fork, csv_f);
    writeCellsCsv(cold, csv_c);
    EXPECT_EQ(csv_f.str(), csv_c.str());

    // The seed axis survives the sharing: rows differ across seeds.
    EXPECT_NE(fork.cells[0].result.end_to_end, 0);
    EXPECT_TRUE(fork.cells[0].result.end_to_end
                    != fork.cells[1].result.end_to_end
                || fork.cells[1].result.end_to_end
                    != fork.cells[2].result.end_to_end)
        << "reseed-at-fork must not collapse the seed axis";
}

// -------------------------------------------------- crash isolation

/** A cell that dies (FatalError) fails alone: the rest of the grid
 *  still runs and the sweep reports the failure per cell. */
TEST(SweepIsolation, FailingCellDoesNotTakeDownThePool)
{
    GridSpec grid;
    // gaussian has no UVM variant, so its uvm=on cell throws
    // FatalError inside the worker; atax supports UVM and must
    // still complete.
    grid.apps = {"gaussian", "atax"};
    grid.cc_modes = {false};
    grid.uvm_modes = {true};

    const auto result = runSweep(grid, 4);
    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_FALSE(result.cells[0].ok);
    EXPECT_FALSE(result.cells[0].error.empty());
    EXPECT_TRUE(result.cells[1].ok);
    EXPECT_EQ(result.failures(), 1u);
    EXPECT_FALSE(result.allOk());
}

TEST(SweepIsolation, UnknownAppFailsItsCellOnly)
{
    GridSpec grid;
    grid.apps = {"no-such-app", "atax"};
    grid.cc_modes = {false};
    const auto result = runSweep(grid, 2);
    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_FALSE(result.cells[0].ok);
    EXPECT_TRUE(result.cells[1].ok);
}

// ------------------------------------------------------- obs wiring

TEST(SweepObs, PublishesCountersAndUtilization)
{
    GridSpec grid;
    grid.apps = {"atax"};
    grid.cc_modes = {false, true};
    obs::Registry reg;
    const auto result = runSweep(grid, 2, &reg);
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(reg.counter("sweep.cells").value(), 2u);
    EXPECT_EQ(reg.counter("sweep.failures").value(), 0u);
    // Wall-clock lives under host.* so it never enters the
    // deterministic dumps.
    const auto dump = obs::statsJson(reg, /*include_host=*/true);
    EXPECT_NE(dump.find("host.sweep.wall_us"), std::string::npos);
    const auto det = obs::statsJson(reg, /*include_host=*/false);
    EXPECT_EQ(det.find("host.sweep"), std::string::npos);
}

} // namespace
} // namespace hcc::sweep
