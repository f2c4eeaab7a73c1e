/**
 * @file
 * The host-time benchmark of `hccsim`: three workloads, each a
 * closed loop with one client issuing the same `hccsim` command
 * in-process (cli::parseArgs + cli::runCli) and checking every op's
 * output.  A traced run interleaves those ops with ops that make the
 * command's public calls one by one under spans, to split the op's
 * host time by module.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The seed whose outputs are pinned by bench/baselines. */
inline constexpr std::uint64_t kDefaultSeed = 42;

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    /** Length of the timed phase. */
    double seconds = 10.0;
    /** Interleave traced ops and report per-layer metrics. */
    bool trace = false;
    /** Checkout root: bench/baselines is read from here. */
    std::filesystem::path root;
    /** Op outputs and the span file go here. */
    std::filesystem::path out_dir;
    /** When the process was spawned (steady clock); setup_s counts
     *  from here.  Unset: from the runBenchmark() call. */
    std::optional<std::chrono::steady_clock::time_point> spawned;
    /** Return after the warm-up op, reporting setup_s only. */
    bool setup_only = false;
    /** Stop after this many timed ops (0: run for @p seconds). */
    std::size_t max_ops = 0;
    /** Flip a byte of timed op @p corrupt_op's first output before
     *  it is checked (tests prove a bad output fails the op). */
    long corrupt_op = -1;
};

struct RunResult
{
    /** No op failed and the run completed. */
    bool correct = false;
    /** Ops executed and checked: warm-up, timed ops, and post-run
     *  reference runs. */
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines for stdout, before the result line. */
    std::string report;
};

/** Run one benchmark invocation.  @throws std::runtime_error on an
 *  unknown workload or unusable directories. */
RunResult runBenchmark(const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
