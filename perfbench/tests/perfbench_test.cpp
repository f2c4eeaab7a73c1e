// Tests of the host-time benchmark: its arithmetic, its metric table
// against BENCHMARK.json, and one-op smoke runs of every workload with
// the output checks on.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics.hpp"
#include "obs/json.hpp"

namespace perfbench {
namespace {

TEST(Quantiles, NearestRankPicksCeilRank)
{
    std::vector<double> v(10);
    std::iota(v.begin(), v.end(), 1.0);
    EXPECT_EQ(nearestRank(v, 50), 5);
    EXPECT_EQ(nearestRank(v, 51), 6);
    EXPECT_EQ(nearestRank(v, 90), 9);
    EXPECT_EQ(nearestRank(v, 99), 10);
    EXPECT_EQ(nearestRank(v, 0), 1);
    EXPECT_EQ(nearestRank({7.0}, 50), 7);
}

TEST(Quantiles, TailNeedsTenSamplesBeyond)
{
    EXPECT_FALSE(tailPercentile(0));
    EXPECT_FALSE(tailPercentile(19));  // p50 = rank 10, 9 beyond
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(40), 75.0);  // p90 = rank 36, 4 beyond
    EXPECT_EQ(tailPercentile(100), 90.0); // p95 = rank 95, 5 beyond
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(1000 - nearestRankIndex(1000, 99.0), 10u);
}

TEST(Quantiles, FastOpsPerSAveragesTheFastestTenth)
{
    EXPECT_EQ(fastOpsPerS({}), 0.0);
    EXPECT_DOUBLE_EQ(fastOpsPerS({250.0}), 4.0);
    // 20 ops: the two fastest (100 and 300 ms) set the rate, however
    // slow the other 18 are.
    std::vector<double> ops(18, 900.0);
    ops.insert(ops.begin() + 7, 300.0);
    ops.push_back(100.0);
    EXPECT_DOUBLE_EQ(fastOpsPerS(ops), 2 * 1e3 / 400.0);
    EXPECT_DOUBLE_EQ(fastOpsPerS(ops, 1.0), 20 * 1e3 / (18 * 900.0 + 400));
    // 21 ops: ceil(2.1) = 3 fastest.
    ops.push_back(200.0);
    EXPECT_DOUBLE_EQ(fastOpsPerS(ops), 3 * 1e3 / 600.0);
}

double
sumForOp(const std::vector<Span> &spans, const std::vector<double> &self,
         int op)
{
    double sum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].op == op)
            sum += self[i];
    return sum;
}

TEST(SelfTime, TouchingAndNestedChildren)
{
    const std::vector<Span> spans = {
        {"cli", 0, 100, -1, 1},
        {"a", 10, 30, 0, 1},   // touches b
        {"b", 30, 50, 0, 1},
        {"c", 15, 20, 1, 1},   // nested in a, not subtracted from cli
        {"cli", 200, 260, -1, 3},
        {"d", 210, 240, 4, 3}, // overlapping siblings: union is 40
        {"e", 230, 250, 4, 3},
        {"f", 255, 270, 4, 3}, // runs past its parent: clipped
    };
    const auto self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 60);
    EXPECT_DOUBLE_EQ(self[1], 15);
    EXPECT_DOUBLE_EQ(self[2], 20);
    EXPECT_DOUBLE_EQ(self[3], 5);
    EXPECT_DOUBLE_EQ(self[4], 15);
    EXPECT_DOUBLE_EQ(sumForOp(spans, self, 1), 100);
}

TEST(SnapshotPrefix, CountedOncePerTier)
{
    // Tier 0: one 100 us prefix, then per-seed segments of 10 and
    // 20 us, inherited by 3 and 2 cells.  Tier 1: a single cut.
    std::vector<PrefixSample> cells;
    for (int i = 0; i < 3; ++i)
        cells.push_back({0, 2, 110, 10, 100});
    for (int i = 0; i < 2; ++i)
        cells.push_back({0, 2, 120, 20, 100});
    for (int i = 0; i < 4; ++i)
        cells.push_back({1, 1, 200, 200, 200});
    EXPECT_DOUBLE_EQ(prefixOncePerTierUs(cells), 130 + 200);

    // Equal values in different tiers are different prefixes.
    cells.push_back({2, 1, 200, 200, 200});
    EXPECT_DOUBLE_EQ(prefixOncePerTierUs(cells), 130 + 200 + 200);
    // Cells without the scope (cold-split cells) add nothing.
    cells.push_back({0, 0, 0, 0, 0});
    EXPECT_DOUBLE_EQ(prefixOncePerTierUs(cells), 530);
    // A three-cut path: its middle sample counts once too.
    EXPECT_DOUBLE_EQ(prefixOncePerTierUs({{0, 3, 111, 1, 100},
                                          {0, 3, 111, 1, 100}}),
                     111);
}

TEST(MetricNames, CharacterRules)
{
    EXPECT_TRUE(validMetricName("ops_per_s"));
    EXPECT_TRUE(validMetricName("9a.b-c_d"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_x"));
    EXPECT_FALSE(validMetricName("a b"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("ms per op"));
    EXPECT_FALSE(validUnit(std::string(17, 'm')));
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** (name, unit) pairs of a BENCHMARK.json metric list. */
std::vector<std::pair<std::string, std::string>>
listed(const hcc::obs::json::Value &doc, const char *key)
{
    std::vector<std::pair<std::string, std::string>> out;
    const auto *list = doc.find(key);
    if (list == nullptr || !list->isArray())
        return out;
    for (const auto &m : list->array) {
        const auto *name = m.find("name");
        const auto *unit = m.find("unit");
        out.push_back({name ? name->string : "", unit ? unit->string : ""});
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
specs(const std::vector<MetricSpec> &metrics)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &m : metrics)
        out.push_back({m.name, m.unit});
    return out;
}

TEST(MetricNames, MatchBenchmarkJson)
{
    hcc::obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(hcc::obs::json::parse(
        slurp(PERFBENCH_ROOT "/BENCHMARK.json"), doc, error))
        << error;
    EXPECT_EQ(listed(doc, "end_to_end"), specs(endToEndMetrics()));
    EXPECT_EQ(listed(doc, "per_layer"), specs(perLayerMetrics()));

    std::vector<std::string> workloads;
    for (const auto &w : doc.find("workloads")->array)
        workloads.push_back(w.find("name")->string);
    EXPECT_EQ(workloads, workloadNames());

    std::set<std::string> seen;
    for (const auto &list : {specs(endToEndMetrics()),
                             specs(perLayerMetrics())}) {
        for (const auto &[name, unit] : list) {
            EXPECT_TRUE(validMetricName(name)) << name;
            EXPECT_TRUE(validUnit(unit)) << name << " " << unit;
            EXPECT_TRUE(seen.insert(name).second) << name;
        }
    }
}

RunConfig
smokeConfig(const std::string &workload)
{
    RunConfig cfg;
    cfg.workload = workload;
    cfg.root = PERFBENCH_ROOT;
    cfg.out_dir = std::filesystem::current_path() / "perfbench-test-out"
        / workload;
    cfg.max_ops = 1;
    return cfg;
}

double
metric(const RunResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "no metric " << name;
    return 0;
}

class Smoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Smoke, OneOpPassesItsChecks)
{
    const RunResult r = runBenchmark(smokeConfig(GetParam()));
    EXPECT_TRUE(r.correct) << r.report;
    EXPECT_EQ(r.failed, 0u);
    // Warm-up, one timed op, and the reference runs.
    EXPECT_GE(r.attempted, 3u);
    ASSERT_EQ(r.metrics.size(), endToEndMetrics().size());
    EXPECT_GT(metric(r, "ops_per_s"), 0);
    EXPECT_GT(metric(r, "setup_s"), 0);
    EXPECT_GT(metric(r, "peak_rss_mib"), 0);
}

TEST_P(Smoke, CorruptedOutputFailsTheOp)
{
    RunConfig cfg = smokeConfig(GetParam());
    cfg.corrupt_op = 0; // checked against the warm-up op
    const RunResult r = runBenchmark(cfg);
    EXPECT_FALSE(r.correct);
    EXPECT_EQ(r.failed, 1u) << r.report;
}

TEST_P(Smoke, TracedOpReportsEveryLayer)
{
    RunConfig cfg = smokeConfig(GetParam());
    cfg.trace = true;
    cfg.max_ops = 2; // one untraced, one traced
    const RunResult r = runBenchmark(cfg);
    EXPECT_TRUE(r.correct) << r.report;
    ASSERT_EQ(r.metrics.size(), perLayerMetrics().size());
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        EXPECT_EQ(r.metrics[i].name, perLayerMetrics()[i].name);
    EXPECT_GT(metric(r, "bench.traced_ops_per_s"), 0);
    EXPECT_TRUE(std::filesystem::exists(cfg.out_dir / ("spans-" + GetParam()
                                                       + ".json")));
    if (GetParam() == "serve_curve") {
        EXPECT_GT(metric(r, "serve.cell_cc_ms"), 0);
        EXPECT_GT(metric(r, "serve.prefills"), 0);
        // The figure cell's layers, traced after the timed phase:
        // decompose is the largest share of its op.
        const double decompose = metric(r, "perfmodel.decompose_ms");
        for (const char *other :
             {"runtime.context_ms", "workloads.run_ms",
              "trace.critical_ms"})
            EXPECT_GT(decompose, metric(r, other)) << other;
        EXPECT_GT(metric(r, "trace.events"), 0);
    } else {
        EXPECT_EQ(metric(r, "fault.cells"), 1368);
        EXPECT_EQ(metric(r, "snap.hits"), 1368);
        EXPECT_GT(metric(r, "snap.prefix_ms"), 0);
        EXPECT_GT(metric(r, "fault.suffix_ms"), 0);
        EXPECT_GT(metric(r, "snap.bytes"), 0);
        EXPECT_EQ(metric(r, "perfmodel.decompose_ms"), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workloadNames()));

} // namespace
} // namespace perfbench
