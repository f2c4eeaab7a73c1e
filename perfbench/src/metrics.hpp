/**
 * @file
 * The arithmetic of the host-time benchmark, kept free of simulator
 * calls so its tests run in milliseconds: nearest-rank quantiles,
 * span self time, the once-per-tier count of inherited snapshot
 * prefix samples, and the metric tables that BENCHMARK.json mirrors.
 */

#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** One metric the benchmark reports: name, unit, value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Name and unit of a metric the benchmark promises to print. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Metrics of an untraced run (`--trace 0`), in print order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Metrics of a traced run (`--trace 1`), in print order.  Every
 *  workload prints all of them; a layer the workload never calls
 *  reads 0. */
const std::vector<MetricSpec> &perLayerMetrics();

/** BENCHMARK.json's name rule: a letter or digit, then at most 63
 *  letters, digits, `_`, `.` or `-`. */
bool validMetricName(std::string_view name);

/** BENCHMARK.json's unit rule: 1..16 letters, digits, `_`, `/`, `%`,
 *  `.` or `-`. */
bool validUnit(std::string_view unit);

/**
 * Nearest-rank percentile: the ceil(pct/100 * n)-th smallest element
 * of @p sorted (ascending, non-empty), rank at least 1.
 */
double nearestRank(const std::vector<double> &sorted, double pct);

/** Rank (1-based) nearestRank() picks for @p pct out of @p n. */
std::size_t nearestRankIndex(std::size_t n, double pct);

/**
 * The highest percentile of the ladder 99.9, 99, 95, 90, 75, 50 whose
 * nearest rank leaves at least @p min_beyond of @p n samples above
 * it; empty when even the median does not.
 */
std::optional<double> tailPercentile(std::size_t n,
                                     std::size_t min_beyond = 10);

/**
 * Ops per second at the mean wall time of the fastest @p share of
 * @p op_ms (the ceil(share * n) shortest ops, at least one); 0 when
 * there are none.  On a host whose co-tenants slow every op by up to
 * 1.8x in phases of seconds to minutes, the fastest ops of a run
 * measure the program with the least interference, so a run's value
 * depends far less on how much of it a slow phase covered than the
 * mean over all ops does.
 */
double fastOpsPerS(std::vector<double> op_ms, double share = 0.1);

/** One recorded span: a call into a layer during op @p op.
 *  @p parent indexes the enclosing span (-1 for an op's root). */
struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int op = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover (children are clipped to
 * the parent and merged, so touching or overlapping children are not
 * subtracted twice and grandchildren are left to their own parent).
 * Within one op the self times sum to the root span's duration.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/**
 * A cell's `host.profile.fork_prefix_us` distribution, as its
 * registry reports it, and the campaign tier (overlap mode) whose
 * snapshot tree produced the cell.
 */
struct PrefixSample
{
    std::size_t tier = 0;
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * Host time spent building shared snapshot prefixes, each counted
 * once per tier.  A cell's registry is a clone of its tree path's
 * state, so it carries the prefix sample and every chained-segment
 * sample on that path, and all cells below a node repeat that node's
 * sample.  For paths of at most two cuts the samples are exactly
 * {min, max}; the sum of a tier's distinct sample values is then the
 * tier's prefix time.  Longer paths add their middle samples
 * (sum - min - max) as one further value.
 */
double prefixOncePerTierUs(const std::vector<PrefixSample> &cells);

/** Render one result line: {"correct", "attempted", "failed",
 *  "metrics": {name: {"value", "unit"}}}. */
std::string resultJson(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
