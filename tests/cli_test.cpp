/**
 * @file
 * Tests for the hccsim CLI: argument parsing into the typed
 * per-command option structs, and command execution.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/options.hpp"
#include "common/log.hpp"
#include "crypto/impl.hpp"

namespace hcc::cli {
namespace {

std::optional<Options>
parse(std::initializer_list<const char *> args, std::string *err
      = nullptr)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    std::string e;
    auto r = parseArgs(v, e);
    if (err)
        *err = e;
    return r;
}

// --------------------------------------------------------- parsing

TEST(CliParse, ListCommand)
{
    const auto o = parse({"list"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::List);
}

TEST(CliParse, RunWithAllOptions)
{
    const auto o = parse({"run", "--app", "sc", "--cc", "--uvm",
                          "--scale", "2.5", "--seed", "7"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::Run);
    EXPECT_EQ(o->run.workload.app, "sc");
    EXPECT_TRUE(o->run.sim.cc);
    EXPECT_TRUE(o->run.sim.uvm);
    EXPECT_DOUBLE_EQ(o->run.sim.scale, 2.5);
    EXPECT_EQ(o->run.sim.seed, 7u);
}

TEST(CliParse, HelpVariants)
{
    for (const char *h : {"help", "--help", "-h"}) {
        const auto o = parse({h});
        ASSERT_TRUE(o);
        EXPECT_EQ(o->command, Command::Help);
    }
}

TEST(CliParse, MissingAppIsError)
{
    std::string err;
    EXPECT_FALSE(parse({"run"}, &err));
    EXPECT_NE(err.find("--app"), std::string::npos);
}

TEST(CliParse, UnknownCommandAndOption)
{
    std::string err;
    EXPECT_FALSE(parse({"frobnicate"}, &err));
    EXPECT_FALSE(parse({"run", "--app", "sc", "--what"}, &err));
    EXPECT_NE(err.find("--what"), std::string::npos);
}

TEST(CliParse, BadNumericValues)
{
    EXPECT_FALSE(parse({"run", "--app", "sc", "--scale", "zero"}));
    EXPECT_FALSE(parse({"run", "--app", "sc", "--scale", "-1"}));
    EXPECT_FALSE(parse({"run", "--app", "sc", "--seed", "xyz"}));
    EXPECT_FALSE(parse({"run", "--app", "sc", "--scale"}));
}

TEST(CliParse, NonFiniteNumbersAreRejectedNamingTheFlag)
{
    // NaN slips past range checks written as `v <= 0.0`; every
    // floating-point flag reads through one finite-number parser,
    // so each of these is an argument error (exit 2), not an abort,
    // a hang or a cell labelled "nan".
    const struct
    {
        std::vector<std::string> args;
        const char *flag;
    } cases[] = {
        {{"faults", "--app", "atax", "--rates", "nan", "--seeds", "1"},
         "--rates"},
        {{"run", "--app", "atax", "--faults",
          "channel.tag_mismatch=nan"},
         "--faults"},
        {{"run", "--app", "atax", "--scale", "inf"}, "--scale"},
        {{"run", "--app", "atax", "--scale", "nan"}, "--scale"},
        {{"run", "--app", "atax", "--scale", "1e999"}, "--scale"},
        {{"sweep", "--apps", "atax", "--scales", "inf"}, "--scales"},
        {{"sweep", "--apps", "atax", "--scales", "nan"}, "--scales"},
        {{"faults", "--app", "atax", "--fork-point", "nan"},
         "--fork-point"},
        {{"faults", "--app", "atax", "--fork-point", "0.5/nan"},
         "--fork-point"},
        {{"serve", "--loads", "nan", "--requests", "4"}, "--loads"},
        {{"serve", "--bursts", "0:0.5:inf"}, "--bursts"},
        {{"stats-diff", "a", "b", "--tolerance", "nan"}, "--tolerance"},
        {{"crypto-calibrate", "--ms", "-inf"}, "--ms"},
    };
    for (const auto &c : cases) {
        std::string err;
        EXPECT_FALSE(parseArgs(c.args, err)) << c.flag;
        EXPECT_NE(err.find(c.flag), std::string::npos) << err;
    }
}

TEST(CliParse, BadFormat)
{
    EXPECT_FALSE(parse({"trace", "--app", "sc", "--format", "xml"}));
    const auto o = parse({"trace", "--app", "sc", "--format", "csv"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->trace.format, OutputFormat::Csv);
    std::string err;
    EXPECT_FALSE(parse({"run", "--app", "sc", "--format", "csv"},
                       &err))
        << "run has no structured output; --format must not apply";
    EXPECT_NE(err.find("does not apply"), std::string::npos);
}

TEST(CliParse, ChannelKnobs)
{
    const auto o = parse({"compare", "--app", "gemm",
                          "--crypto-workers", "8", "--tee-io"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->compare.sim.crypto_workers, 8);
    EXPECT_TRUE(o->compare.sim.tee_io);
    EXPECT_FALSE(parse({"run", "--app", "x", "--crypto-workers",
                        "0"}));
    EXPECT_FALSE(parse({"run", "--app", "x", "--crypto-workers",
                        "many"}));
}

TEST(CliParse, OverlapFlag)
{
    const auto o =
        parse({"run", "--app", "x", "--overlap", "speculative"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->run.sim.overlap, tee::OverlapMode::Speculative);
    // Sweep grids the axis, so it takes lists and `all`.
    {
        const auto s = parse({"sweep", "--apps", "atax", "--overlap",
                              "none,double-buffer"});
        ASSERT_TRUE(s);
        ASSERT_EQ(s->sweep.grid.overlaps.size(), 2u);
        EXPECT_EQ(s->sweep.grid.overlaps[1],
                  tee::OverlapMode::DoubleBuffer);
    }
    EXPECT_TRUE(parse({"sweep", "--apps", "atax", "--overlap",
                       "all"}));
    std::string err;
    EXPECT_FALSE(parse({"run", "--app", "x", "--overlap",
                        "none,speculative"}, &err));
    EXPECT_NE(err.find("single mode"), std::string::npos);
    EXPECT_FALSE(parse({"run", "--app", "x", "--overlap", "all"}));
    EXPECT_FALSE(parse({"run", "--app", "x", "--overlap", "warp"}));
    EXPECT_FALSE(parse({"list", "--overlap", "none"}))
        << "list takes no channel knobs";
}

TEST(CliParse, OverlapListOnFaults)
{
    // The faults campaign grids the overlap axis like sweep does.
    const auto o = parse({"faults", "--app", "atax", "--overlap",
                          "none,speculative"});
    ASSERT_TRUE(o);
    ASSERT_EQ(o->faults.spec.overlaps.size(), 2u);
    EXPECT_EQ(o->faults.spec.overlaps[1],
              tee::OverlapMode::Speculative);
    EXPECT_TRUE(parse({"faults", "--app", "atax", "--overlap",
                       "all"}));
    std::string err;
    EXPECT_FALSE(parse({"compare", "--app", "atax", "--overlap",
                        "all"}, &err));
    EXPECT_NE(err.find("single mode"), std::string::npos);
}

TEST(CliParse, ForkPointPathsValidateAtParseTime)
{
    const auto o = parse({"faults", "--app", "atax", "--fork-point",
                          "auto/0.95"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->faults.spec.fork_point.str(), "auto/0.95");

    std::string err;
    EXPECT_FALSE(parse({"faults", "--app", "atax", "--fork-point",
                        "none/0.5"}, &err));
    EXPECT_NE(err.find("cannot chain"), std::string::npos);
    EXPECT_FALSE(parse({"faults", "--app", "atax", "--fork-point",
                        "0.5/0.4"}, &err));
    EXPECT_NE(err.find("strictly"), std::string::npos);
    EXPECT_FALSE(parse({"faults", "--app", "atax", "--fork-point",
                        "0.5/1.5"}, &err));
    EXPECT_FALSE(parse({"faults", "--app", "atax", "--fork-point",
                        "0.5/"}, &err));
    EXPECT_FALSE(parse({"run", "--app", "atax", "--fork-point",
                        "auto"}, &err));
    EXPECT_NE(err.find("does not apply"), std::string::npos);
}

TEST(CliParse, SnapshotBudgetFlag)
{
    const auto o = parse({"sweep", "--apps", "atax",
                          "--snapshot-budget", "64"});
    ASSERT_TRUE(o);
    ASSERT_TRUE(o->sweep.snapshot.budget_bytes.has_value());
    EXPECT_EQ(*o->sweep.snapshot.budget_bytes,
              std::size_t{64} << 20);
    {
        const auto f = parse({"faults", "--app", "atax",
                              "--snapshot-budget", "0"});
        ASSERT_TRUE(f);
        EXPECT_EQ(f->faults.spec.snapshot_budget_bytes, 0u);
    }
    EXPECT_FALSE(parse({"sweep", "--apps", "a",
                        "--snapshot-budget", "-1"}));
    EXPECT_FALSE(parse({"sweep", "--apps", "a",
                        "--snapshot-budget", "much"}));
    std::string err;
    EXPECT_FALSE(parse({"run", "--app", "sc", "--snapshot-budget",
                        "64"}, &err));
    EXPECT_NE(err.find("does not apply"), std::string::npos);
}

TEST(CliRun, WorkersReduceCcSlowdown)
{
    auto slowdown = [](int workers) {
        Options o;
        o.command = Command::Compare;
        o.compare.workload.app = "gemm";
        o.compare.sim.crypto_workers = workers;
        std::ostringstream oss;
        runCli(o, oss);
        const auto out = oss.str();
        const auto pos = out.find("CC slowdown: ");
        return std::stod(out.substr(pos + 13));
    };
    EXPECT_LT(slowdown(8), slowdown(1) * 0.7);
}

TEST(CliParse, EmptyArgsIsError)
{
    EXPECT_FALSE(parse({}));
}

TEST(CliParse, StatsDiffCommand)
{
    const auto o = parse({"stats-diff", "base.json", "cur.json",
                          "--tolerance", "0.05"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::StatsDiff);
    EXPECT_EQ(o->stats_diff.baseline, "base.json");
    EXPECT_EQ(o->stats_diff.current, "cur.json");
    EXPECT_DOUBLE_EQ(o->stats_diff.tolerance, 0.05);

    std::string err;
    EXPECT_FALSE(parse({"stats-diff", "only-one.json"}, &err));
    EXPECT_NE(err.find("CURRENT"), std::string::npos);
    EXPECT_FALSE(parse({"stats-diff", "a", "b", "c"}));
    EXPECT_FALSE(parse({"stats-diff", "a", "b", "--tolerance",
                        "-0.1"}));
    EXPECT_FALSE(parse({"stats-diff", "a", "b", "--tolerance",
                        "lots"}));
}

TEST(CliParse, StatsOutAndLogLevel)
{
    const auto o = parse({"run", "--app", "sc", "--stats-out",
                          "s.json", "--log-level", "debug"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->run.stats_out, "s.json");
    EXPECT_EQ(o->log_level, "debug");

    std::string err;
    EXPECT_FALSE(parse({"run", "--app", "sc", "--log-level", "loud"},
                       &err));
    EXPECT_NE(err.find("--log-level"), std::string::npos);
    EXPECT_FALSE(parse({"list", "--stats-out", "s.json"}, &err));
    EXPECT_NE(err.find("--stats-out"), std::string::npos);
}

// ------------------------------------------------------- execution

TEST(CliRun, ListShowsKnownApps)
{
    Options o;
    o.command = Command::List;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("2dconv"), std::string::npos);
    EXPECT_NE(out.find("sc"), std::string::npos);
    EXPECT_NE(out.find("graphbig_bfs"), std::string::npos);
}

TEST(CliRun, RunPrintsSummaryAndModel)
{
    Options o;
    o.command = Command::Run;
    o.run.workload.app = "2mm";
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("end-to-end"), std::string::npos);
    EXPECT_NE(out.find("P (model)"), std::string::npos);
}

TEST(CliRun, CompareShowsSlowdown)
{
    Options o;
    o.command = Command::Compare;
    o.compare.workload.app = "atax";
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    EXPECT_NE(oss.str().find("CC slowdown:"), std::string::npos);
}

TEST(CliRun, TraceJsonAndCsv)
{
    Options o;
    o.command = Command::Trace;
    o.trace.workload.app = "2mm";
    {
        std::ostringstream oss;
        EXPECT_EQ(runCli(o, oss), 0);
        EXPECT_EQ(oss.str().front(), '[');
    }
    o.trace.format = OutputFormat::Csv;
    {
        std::ostringstream oss;
        EXPECT_EQ(runCli(o, oss), 0);
        EXPECT_EQ(oss.str().find("kind,name"), 0u);
    }
}

TEST(CliRun, UnknownAppThrowsFatal)
{
    Options o;
    o.command = Command::Run;
    o.run.workload.app = "not-a-workload";
    std::ostringstream oss;
    EXPECT_THROW(runCli(o, oss), hcc::FatalError);
}

TEST(CliRun, HelpMentionsAllCommands)
{
    Options o;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    for (const char *cmd :
         {"list", "run", "compare", "trace", "serve", "stats-diff"})
        EXPECT_NE(oss.str().find(cmd), std::string::npos) << cmd;
}

TEST(CliRun, LogLevelFlagSetsGlobalLevel)
{
    const LogLevel before = logLevel();
    Options o;
    o.command = Command::Help;
    o.log_level = "error";
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    EXPECT_EQ(logLevel(), LogLevel::Error);
    setLogLevel(before);
}

/** Run a workload through runCli, dumping stats to @p path. */
void
runWithStatsOut(const std::string &path, double scale)
{
    Options o;
    o.command = Command::Run;
    o.run.workload.app = "atax";
    o.run.sim.cc = true;
    o.run.sim.scale = scale;
    o.run.stats_out = path;
    std::ostringstream oss;
    ASSERT_EQ(runCli(o, oss), 0);
}

TEST(CliRun, StatsOutAndStatsDiffRoundTrip)
{
    const auto dir = ::testing::TempDir();
    const auto base = dir + "hccsim_stats_base.json";
    const auto same = dir + "hccsim_stats_same.json";
    const auto bigger = dir + "hccsim_stats_bigger.json";
    runWithStatsOut(base, 1.0);
    runWithStatsOut(same, 1.0);
    runWithStatsOut(bigger, 2.0);

    Options diff;
    diff.command = Command::StatsDiff;
    diff.stats_diff.baseline = base;
    diff.stats_diff.current = same;
    {
        std::ostringstream oss;
        EXPECT_EQ(runCli(diff, oss), 0);
        EXPECT_NE(oss.str().find("no drift"), std::string::npos);
    }
    diff.stats_diff.current = bigger;
    {
        std::ostringstream oss;
        EXPECT_EQ(runCli(diff, oss), 1);
        EXPECT_NE(oss.str().find("drifting"), std::string::npos);
    }
    // A huge tolerance forgives the size change.
    diff.stats_diff.tolerance = 0.99;
    {
        std::ostringstream oss;
        EXPECT_EQ(runCli(diff, oss), 0);
    }
}

TEST(CliRun, StatsDiffMissingFileThrowsFatal)
{
    Options o;
    o.command = Command::StatsDiff;
    o.stats_diff.baseline = "/nonexistent/base.json";
    o.stats_diff.current = "/nonexistent/cur.json";
    std::ostringstream oss;
    EXPECT_THROW(runCli(o, oss), hcc::FatalError);
}

// ------------------------------------------------- crypto selection

TEST(CliParse, CryptoImplFlag)
{
    const auto o =
        parse({"run", "--app", "sc", "--crypto-impl", "scalar"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->crypto_impl, "scalar");

    std::string err;
    EXPECT_FALSE(
        parse({"run", "--app", "sc", "--crypto-impl", "vaes"}, &err));
    EXPECT_NE(err.find("crypto-impl"), std::string::npos);
    EXPECT_FALSE(parse({"run", "--app", "sc", "--crypto-impl"}));
}

TEST(CliParse, CryptoCalibrateCommand)
{
    const auto o = parse({"crypto-calibrate", "--ms", "1"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::CryptoCalibrate);
    EXPECT_DOUBLE_EQ(o->crypto_calibrate.budget_ms, 1.0);
    // No --app required for this command.
    EXPECT_FALSE(parse({"crypto-calibrate", "--ms", "0"}));
    EXPECT_FALSE(parse({"crypto-calibrate", "--ms", "fast"}));
}

TEST(CliRun, CryptoCalibratePrintsEveryAlgoAndRatio)
{
    Options o;
    o.command = Command::CryptoCalibrate;
    o.crypto_calibrate.budget_ms = 1.0;  // keep the loop short
    o.crypto_impl = "ttable";
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("ttable"), std::string::npos);
    EXPECT_NE(out.find("aes-gcm-128"), std::string::npos)
        << "calibration table must list each algorithm:\n"
        << out;
    EXPECT_NE(out.find("host/model"), std::string::npos);
    crypto::setActiveCryptoImpl(std::nullopt);
}

// ----------------------------------------------------------- sweep

TEST(CliParse, SweepFlags)
{
    const auto o = parse({"sweep", "--apps", "atax,bicg",
                          "--cc-modes", "both", "--uvm-modes", "off",
                          "--scales", "1,2", "--seeds", "42,7",
                          "--jobs", "4", "--out", "cells.csv",
                          "--format", "csv", "--stats-out",
                          "stats.json"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::Sweep);
    EXPECT_EQ(o->sweep.grid.apps,
              (std::vector<std::string>{"atax", "bicg"}));
    EXPECT_EQ(o->sweep.grid.scales, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(o->sweep.grid.seeds,
              (std::vector<std::uint64_t>{42, 7}));
    EXPECT_EQ(o->sweep.grid.cc_modes,
              (std::vector<bool>{false, true}));
    EXPECT_EQ(o->sweep.jobs, 4);
    EXPECT_EQ(o->sweep.format, OutputFormat::Csv);
    EXPECT_EQ(o->sweep.out_file, "cells.csv");
    EXPECT_EQ(o->sweep.stats_out, "stats.json");
}

TEST(CliParse, SweepRequiresAppsOrSpec)
{
    std::string err;
    EXPECT_FALSE(parse({"sweep"}, &err));
    EXPECT_NE(err.find("--apps"), std::string::npos);
    EXPECT_FALSE(parse({"sweep", "--apps", "a", "--spec", "g.grid"},
                       &err));
    EXPECT_TRUE(parse({"sweep", "--spec", "g.grid"}));
}

TEST(CliParse, SweepRejectsBadValues)
{
    EXPECT_FALSE(parse({"sweep", "--apps", "a", "--jobs", "0"}));
    EXPECT_FALSE(parse({"sweep", "--apps", "a", "--jobs", "many"}));
    EXPECT_FALSE(parse({"sweep", "--apps", "a", "--cc-modes",
                        "sometimes"}));
    EXPECT_FALSE(parse({"sweep", "--apps", "a", "--uvm-modes",
                        "maybe"}));
}

TEST(CliParse, OutAndTraceOutAreCommandSpecific)
{
    std::string err;
    EXPECT_FALSE(parse({"run", "--app", "sc", "--out", "x.csv"},
                       &err));
    EXPECT_NE(err.find("--out"), std::string::npos);
    EXPECT_FALSE(parse({"run", "--app", "sc", "--trace-out",
                        "t.json"}, &err));
    EXPECT_TRUE(parse({"trace", "--app", "sc", "--trace-out",
                       "t.json"}));
}

TEST(CliRun, SweepPrintsPerCellTableAndSummary)
{
    Options o;
    o.command = Command::Sweep;
    o.sweep.grid.apps = {"atax"};
    o.sweep.jobs = 2;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("atax.base.x1.s42"), std::string::npos);
    EXPECT_NE(out.find("atax.cc.x1.s42"), std::string::npos);
    EXPECT_NE(out.find("2/2 cells ok"), std::string::npos);
}

TEST(CliRun, SweepFailedCellSetsExitCode)
{
    Options o;
    o.command = Command::Sweep;
    o.sweep.grid.apps = {"gaussian"};    // no UVM variant
    o.sweep.grid.uvm_modes = {true};
    o.sweep.grid.cc_modes = {false};
    o.sweep.jobs = 1;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 1);
    EXPECT_NE(oss.str().find("FAIL"), std::string::npos);
}

TEST(CliRun, SweepUnwritableOutputFails)
{
    Options o;
    o.command = Command::Sweep;
    o.sweep.grid.apps = {"atax"};
    o.sweep.grid.cc_modes = {false};
    o.sweep.jobs = 1;
    o.sweep.out_file = "/nonexistent-dir/cells.csv";
    std::ostringstream oss;
    EXPECT_THROW(runCli(o, oss), hcc::FatalError);
    o.sweep.out_file.clear();
    o.sweep.stats_out = "/nonexistent-dir/stats.json";
    EXPECT_THROW(runCli(o, oss), hcc::FatalError);
}

TEST(CliRun, RunUnwritableStatsOutFails)
{
    Options o;
    o.command = Command::Run;
    o.run.workload.app = "atax";
    o.run.stats_out = "/nonexistent-dir/stats.json";
    std::ostringstream oss;
    EXPECT_THROW(runCli(o, oss), hcc::FatalError);
}

TEST(CliRun, TraceOutWritesFileInsteadOfStream)
{
    Options o;
    o.command = Command::Trace;
    o.trace.workload.app = "atax";
    o.trace.trace_out = "trace_out_test.json";
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    EXPECT_TRUE(oss.str().empty());
    std::ifstream in(o.trace.trace_out);
    ASSERT_TRUE(in.good());
    char first = 0;
    in >> first;
    EXPECT_EQ(first, '[');
    in.close();
    std::remove(o.trace.trace_out.c_str());

    o.trace.trace_out = "/nonexistent-dir/trace.json";
    EXPECT_THROW(runCli(o, oss), hcc::FatalError);
}

/** The event-level diff compares the two runs' traces: every app
 *  (not just spec files or faulted runs) must get per-kind rows. */
TEST(CliRun, CompareEventDiffHasPerKindRows)
{
    Options o;
    o.command = Command::Compare;
    o.compare.workload.app = "atax";
    std::ostringstream oss;
    ASSERT_EQ(runCli(o, oss), 0);
    EXPECT_NE(oss.str().find("  Launch: "), std::string::npos)
        << oss.str();
    EXPECT_EQ(oss.str().find("end-to-end: 0 ps -> 0 ps"),
              std::string::npos);
}

TEST(CliRun, CompareParallelMatchesSerial)
{
    Options o;
    o.command = Command::Compare;
    o.compare.workload.app = "atax";
    std::ostringstream serial, parallel;
    o.compare.jobs = 1;
    EXPECT_EQ(runCli(o, serial), 0);
    o.compare.jobs = 2;
    EXPECT_EQ(runCli(o, parallel), 0);
    EXPECT_EQ(serial.str(), parallel.str())
        << "compare output must not depend on --jobs";
}

// ---------------------------------------------------------- faults

TEST(CliParse, FaultsFlagOnRunLikeCommands)
{
    const auto o = parse({"run", "--app", "sc", "--faults",
                          "channel.tag_mismatch=0.05"});
    ASSERT_TRUE(o);
    EXPECT_TRUE(o->run.sim.faults.any());

    std::string err;
    EXPECT_FALSE(parse({"run", "--app", "sc", "--faults",
                        "bogus.site=0.1"}, &err));
    EXPECT_NE(err.find("--faults"), std::string::npos);
}

TEST(CliParse, FaultsCampaignFlags)
{
    const auto o = parse({"faults", "--app", "atax", "--sites",
                          "channel.tag_mismatch,pcie.replay",
                          "--rates", "0.1,0.5", "--seeds", "1,2",
                          "--jobs", "2"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::Faults);
    EXPECT_EQ(o->faults.spec.app, "atax");
    ASSERT_EQ(o->faults.spec.sites.size(), 2u);
    EXPECT_EQ(o->faults.spec.sites[0],
              *fault::parseSite("channel.tag_mismatch"));
    EXPECT_EQ(o->faults.spec.rates, (std::vector<double>{0.1, 0.5}));
    EXPECT_EQ(o->faults.spec.seeds,
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(o->faults.jobs, 2);
}

TEST(CliParse, FaultsRequiresAppAndValidGrid)
{
    std::string err;
    EXPECT_FALSE(parse({"faults"}, &err));
    EXPECT_NE(err.find("--app"), std::string::npos);
    EXPECT_FALSE(parse({"faults", "--app", "atax", "--sites",
                        "bogus.site"}, &err));
    EXPECT_NE(err.find("bogus.site"), std::string::npos);
    EXPECT_FALSE(parse({"faults", "--app", "atax", "--rates",
                        "1.5"}, &err));
    EXPECT_NE(err.find("--rates"), std::string::npos);
}

TEST(CliParse, PerCommandHelpShortCircuitsValidation)
{
    // `faults --help` must work without --app; every subcommand
    // answers --help/-h the same way.
    for (const char *h : {"--help", "-h"}) {
        const auto o = parse({"faults", h});
        ASSERT_TRUE(o);
        EXPECT_EQ(o->command, Command::Faults);
        EXPECT_TRUE(o->show_help);
    }
    const auto o = parse({"run", "--help"});
    ASSERT_TRUE(o);
    EXPECT_TRUE(o->show_help);
}

TEST(CliParse, InapplicableFlagNamesTheCommand)
{
    // Campaign cells are always CC runs; --cc belongs to run-like
    // commands only, and the error must name both sides.
    std::string err;
    EXPECT_FALSE(parse({"faults", "--app", "atax", "--cc"}, &err));
    EXPECT_NE(err.find("--cc"), std::string::npos);
    EXPECT_NE(err.find("does not apply"), std::string::npos);
    EXPECT_NE(err.find("faults"), std::string::npos);
}

TEST(CliRun, PerCommandHelpPrintsFlagTable)
{
    Options o;
    o.command = Command::Faults;
    o.show_help = true;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("--sites"), std::string::npos);
    EXPECT_NE(out.find("--rates"), std::string::npos);
    EXPECT_NE(out.find("--jobs"), std::string::npos);
    EXPECT_EQ(out.find("--tolerance"), std::string::npos)
        << "stats-diff-only flags must not leak into faults help";
    EXPECT_EQ(out.find("--loads"), std::string::npos)
        << "serve-only flags must not leak into faults help";
}

TEST(CliRun, FaultsCampaignPrintsSummaryTable)
{
    Options o;
    o.command = Command::Faults;
    o.faults.spec.app = "atax";
    o.faults.spec.sites = {*fault::parseSite("channel.tag_mismatch")};
    o.faults.spec.rates = {1.0};
    o.faults.spec.seeds = {1};
    o.faults.jobs = 1;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("fault campaign: atax"), std::string::npos);
    EXPECT_NE(out.find("atax.baseline.s1"), std::string::npos);
    EXPECT_NE(out.find("atax.channel.tag_mismatch.r1.s1"),
              std::string::npos);
    EXPECT_NE(out.find("2/2 cells ok"), std::string::npos);
}

TEST(CliRun, FaultsCampaignFailedCellSetsExitCode)
{
    Options o;
    o.command = Command::Faults;
    o.faults.spec.app = "atax";
    o.faults.spec.sites = {*fault::parseSite("spdm.handshake")};
    o.faults.spec.rates = {1.0};   // handshake can never succeed
    o.faults.spec.seeds = {1};
    o.faults.jobs = 1;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 1);
    EXPECT_NE(oss.str().find("failed"), std::string::npos);
}

TEST(CliRun, FaultedRunIsDeterministicAndSlower)
{
    Options o;
    o.command = Command::Compare;
    o.compare.workload.app = "atax";
    std::ostringstream base;
    EXPECT_EQ(runCli(o, base), 0);
    o.compare.sim.faults =
        fault::parseFaultSpec("channel.tag_mismatch=1").value();
    std::ostringstream f1, f2;
    EXPECT_EQ(runCli(o, f1), 0);
    EXPECT_EQ(runCli(o, f2), 0);
    EXPECT_EQ(f1.str(), f2.str())
        << "faulted runs must be deterministic";
    EXPECT_NE(f1.str(), base.str())
        << "a rate-1.0 fault must change the CC timing";
    EXPECT_NE(f1.str().find("fault recoveries"), std::string::npos);
}

TEST(CliParse, CriticalCommandAndFlags)
{
    const auto o = parse({"critical", "--app", "atax", "--cc",
                          "--top", "3", "--critical-out",
                          "/tmp/x.json"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::Critical);
    EXPECT_EQ(o->critical.workload.app, "atax");
    EXPECT_TRUE(o->critical.sim.cc);
    EXPECT_EQ(o->critical.top, 3);
    EXPECT_EQ(o->critical.critical_out, "/tmp/x.json");
}

TEST(CliParse, CriticalRequiresAppAndValidTop)
{
    std::string err;
    EXPECT_FALSE(parse({"critical"}, &err));
    EXPECT_NE(err.find("--app"), std::string::npos);
    EXPECT_FALSE(parse({"critical", "--app", "atax", "--top", "0"},
                       &err));
    EXPECT_FALSE(parse({"run", "--app", "atax", "--top", "3"},
                       &err));
    EXPECT_NE(err.find("does not apply"), std::string::npos);
}

TEST(CliRun, CriticalPrintsReportAndWritesJson)
{
    Options o;
    o.command = Command::Critical;
    o.critical.workload.app = "atax";
    o.critical.sim.cc = true;
    o.critical.top = 5;
    const std::string out_path =
        std::string(::testing::TempDir()) + "critical_out.json";
    o.critical.critical_out = out_path;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("critical path"), std::string::npos);
    EXPECT_NE(out.find("bottleneck"), std::string::npos);
    EXPECT_NE(out.find("crypto-bound"), std::string::npos);
    std::ifstream in(out_path);
    ASSERT_TRUE(in.good());
    std::stringstream file;
    file << in.rdbuf();
    EXPECT_NE(file.str().find("\"hccsim_critical_version\": 1"),
              std::string::npos);
    EXPECT_NE(file.str().find("\"bottleneck\": \"crypto-bound\""),
              std::string::npos);
    std::remove(out_path.c_str());
}

TEST(CliRun, CriticalIsByteIdenticalAcrossRuns)
{
    Options o;
    o.command = Command::Critical;
    o.critical.workload.app = "gaussian";
    o.critical.sim.cc = true;
    std::ostringstream a, b;
    EXPECT_EQ(runCli(o, a), 0);
    EXPECT_EQ(runCli(o, b), 0);
    EXPECT_EQ(a.str(), b.str());
}

TEST(CliRun, RunMentionsBottleneckLine)
{
    Options o;
    o.command = Command::Run;
    o.run.workload.app = "atax";
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    EXPECT_NE(oss.str().find("critical path:"), std::string::npos);
    EXPECT_NE(oss.str().find("link-bound"), std::string::npos);
}

TEST(CliRun, CompareShowsCriticalPathDelta)
{
    Options o;
    o.command = Command::Compare;
    o.compare.workload.app = "atax";
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("critical-path delta"), std::string::npos);
    EXPECT_NE(out.find("bottleneck: link-bound -> crypto-bound"),
              std::string::npos);
}

TEST(CliRun, SweepEmitsBottleneckColumns)
{
    Options o;
    o.command = Command::Sweep;
    o.sweep.grid.apps = {"atax"};
    o.sweep.jobs = 1;
    const std::string out_path =
        std::string(::testing::TempDir()) + "sweep_critical.csv";
    o.sweep.out_file = out_path;
    o.sweep.format = OutputFormat::Csv;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    std::ifstream in(out_path);
    ASSERT_TRUE(in.good());
    std::stringstream file;
    file << in.rdbuf();
    EXPECT_NE(file.str().find(",bottleneck,critical_path_ps,"),
              std::string::npos);
    EXPECT_NE(file.str().find("link-bound"), std::string::npos);
    EXPECT_NE(file.str().find("crypto-bound"), std::string::npos);
    std::remove(out_path.c_str());
}

// ----------------------------------------------------------- serve

TEST(CliParse, ServeFlags)
{
    const auto o = parse({"serve", "--loads", "2,8", "--requests",
                          "40", "--max-batch", "8", "--prompt-len",
                          "128", "--gen-len", "16", "--kv-budget",
                          "64", "--kv-token-bytes", "16384",
                          "--backend", "hf", "--quant", "awq4",
                          "--cc-modes", "on", "--overlap",
                          "none,speculative", "--bursts",
                          "0.5:0.8:4", "--seed", "9", "--jobs", "2",
                          "--format", "csv", "--out", "serve.csv",
                          "--stats-out", "serve_stats.json"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::Serve);
    const serve::ServeSpec &s = o->serve.spec;
    EXPECT_EQ(s.loads, (std::vector<double>{2.0, 8.0}));
    EXPECT_EQ(s.requests, 40);
    EXPECT_EQ(s.max_batch, 8);
    EXPECT_EQ(s.prompt_len, 128);
    EXPECT_EQ(s.gen_len, 16);
    EXPECT_EQ(s.kv_budget_bytes, Bytes{64} << 20);
    EXPECT_EQ(s.kv_bytes_per_token, 16384u);
    EXPECT_EQ(s.backend, ml::LlmBackend::HuggingFace);
    EXPECT_EQ(s.quant, ml::LlmQuant::Awq4);
    EXPECT_EQ(s.cc_modes, (std::vector<bool>{true}));
    ASSERT_EQ(s.overlaps.size(), 2u);
    EXPECT_EQ(s.overlaps[1], tee::OverlapMode::Speculative);
    ASSERT_EQ(s.bursts.size(), 1u);
    EXPECT_DOUBLE_EQ(s.bursts[0].begin, 0.5);
    EXPECT_DOUBLE_EQ(s.bursts[0].end, 0.8);
    EXPECT_DOUBLE_EQ(s.bursts[0].multiplier, 4.0);
    EXPECT_EQ(s.seed, 9u);
    EXPECT_EQ(o->serve.jobs, 2);
    EXPECT_EQ(o->serve.format, OutputFormat::Csv);
    EXPECT_EQ(o->serve.out_file, "serve.csv");
    EXPECT_EQ(o->serve.stats_out, "serve_stats.json");
}

TEST(CliParse, ServeNeedsNoRequiredArgs)
{
    const auto o = parse({"serve"});
    ASSERT_TRUE(o);
    EXPECT_EQ(o->command, Command::Serve);
    // Engine defaults survive parsing untouched.
    EXPECT_EQ(o->serve.spec.requests, 160);
    EXPECT_EQ(o->serve.spec.cc_modes,
              (std::vector<bool>{false, true}));
}

TEST(CliParse, ServeRejectsBadValues)
{
    EXPECT_FALSE(parse({"serve", "--loads", "0"}));
    EXPECT_FALSE(parse({"serve", "--loads", "fast"}));
    EXPECT_FALSE(parse({"serve", "--requests", "0"}));
    EXPECT_FALSE(parse({"serve", "--max-batch", "0"}));
    EXPECT_FALSE(parse({"serve", "--kv-budget", "0"}));
    EXPECT_FALSE(parse({"serve", "--backend", "pytorch"}));
    EXPECT_FALSE(parse({"serve", "--quant", "int8"}));
    EXPECT_FALSE(parse({"serve", "--bursts", "0.8:0.5:4"}));
    EXPECT_FALSE(parse({"serve", "--bursts", "nonsense"}));
    std::string err;
    EXPECT_FALSE(parse({"serve", "--app", "atax"}, &err))
        << "serve has no workload registry app";
    EXPECT_NE(err.find("does not apply"), std::string::npos);
    EXPECT_FALSE(parse({"run", "--app", "sc", "--loads", "2"},
                       &err));
    EXPECT_NE(err.find("does not apply"), std::string::npos);
}

// -------------------------------------------------------- snapshot

TEST(CliRun, SnapshotChainedCaptureRecordsParentAndSections)
{
    const auto path =
        std::string(::testing::TempDir()) + "chained.hccsnap";
    Options cap;
    cap.command = Command::Snapshot;
    cap.snapshot.app = "gaussian";
    cap.snapshot.sim.cc = true;
    cap.snapshot.fork_point =
        snap::parseForkPoint("auto/0.95").value();
    cap.snapshot.out_file = path;
    std::ostringstream cos;
    EXPECT_EQ(runCli(cap, cos), 0);
    EXPECT_NE(cos.str().find("wrote"), std::string::npos);

    Options ins;
    ins.command = Command::Snapshot;
    ins.snapshot.inspect = path;
    std::ostringstream ios;
    EXPECT_EQ(runCli(ins, ios), 0);
    const auto out = ios.str();
    EXPECT_NE(out.find("app:        gaussian"), std::string::npos);
    EXPECT_NE(out.find("fork point: auto/0.95"), std::string::npos);
    EXPECT_NE(out.find("parent:     auto"), std::string::npos)
        << "a chained capture must record the path it forks from:\n"
        << out;
    // The per-section byte-size table names each subsystem.
    EXPECT_NE(out.find("channel"), std::string::npos);
    EXPECT_NE(out.find("trace"), std::string::npos);
    EXPECT_NE(out.find("%"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, SnapshotRejectsNoneForkPoint)
{
    Options o;
    o.command = Command::Snapshot;
    o.snapshot.app = "gaussian";
    o.snapshot.fork_point = snap::parseForkPoint("none").value();
    o.snapshot.out_file =
        std::string(::testing::TempDir()) + "none.hccsnap";
    std::ostringstream oss;
    EXPECT_THROW(runCli(o, oss), hcc::FatalError);
}

TEST(CliRun, FaultsOverlapGridPrintsTieredCellsAndForkSummary)
{
    Options o;
    o.command = Command::Faults;
    o.faults.spec.app = "gaussian";
    o.faults.spec.sites = {*fault::parseSite("pcie.replay")};
    o.faults.spec.rates = {0.5};
    o.faults.spec.seeds = {1, 2};
    o.faults.spec.overlaps = {tee::OverlapMode::None,
                              tee::OverlapMode::Speculative};
    o.faults.spec.fork_point = snap::parseForkPoint("auto").value();
    o.faults.jobs = 2;
    std::ostringstream oss;
    EXPECT_EQ(runCli(o, oss), 0);
    const auto out = oss.str();
    EXPECT_NE(out.find("gaussian.baseline.s1"), std::string::npos);
    EXPECT_NE(out.find("gaussian.baseline.s1.speculative"),
              std::string::npos);
    EXPECT_NE(out.find("8/8 cells ok"), std::string::npos);
    EXPECT_NE(out.find("forked from snapshots"), std::string::npos);
    EXPECT_NE(out.find("resident snapshot bytes"),
              std::string::npos);
}

} // namespace
} // namespace hcc::cli
