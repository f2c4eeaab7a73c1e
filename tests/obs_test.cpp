/**
 * @file
 * Tests for hcc::obs: registry semantics, deterministic stat dumps,
 * the JSON parser, and the stats-diff regression gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/stats_io.hpp"
#include "workloads/workload.hpp"

namespace hcc::obs {
namespace {

// -------------------------------------------------------- registry

TEST(Registry, CounterHandlesAreStableAndShared)
{
    Registry reg;
    Counter &a = reg.counter("x.calls");
    a.add();
    a.add(41);
    Counter &b = reg.counter("x.calls");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 42u);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.contains("x.calls"));
    EXPECT_FALSE(reg.contains("x.other"));
}

TEST(Registry, CounterValueReadsWithoutCreating)
{
    Registry reg;
    reg.counter("x.calls").bump(3);
    reg.gauge("x.level").set(9);
    EXPECT_EQ(reg.counterValue("x.calls"), 3u);
    EXPECT_EQ(reg.counterValue("x.level"), 0u) << "not a counter";
    EXPECT_EQ(reg.counterValue("x.missing"), 0u);
    EXPECT_FALSE(reg.contains("x.missing"));
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, NamesIterateInStringByteOrder)
{
    // '.' < digits < upper case < '_' < lower case in ASCII; the
    // table must order every name as std::string comparison does,
    // prefixes first, whatever order they were created in.
    std::vector<std::string> names;
    for (const char *stem : {"gpu", "gpu.", "gpu.x"})
        for (const char *tail : {"", ".a", "_a", "0a", "9", "Aa", "Z",
                                 "a", "a.b", "a_b", "a0"})
            names.push_back(std::string(stem) + tail);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    for (unsigned seed = 1; seed <= 5; ++seed) {
        std::vector<std::string> order = names;
        std::shuffle(order.begin(), order.end(), std::mt19937(seed));
        Registry reg;
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (i % 3 == 0)
                reg.counter(order[i]).bump(i);
            else if (i % 3 == 1)
                reg.gauge(order[i]).set(static_cast<std::int64_t>(i));
            else
                reg.distribution(order[i]).add(static_cast<double>(i));
        }
        std::vector<std::string> seen;
        for (const auto &[name, entry] : reg.entries())
            seen.emplace_back(name);
        EXPECT_EQ(seen, names) << "seed " << seed;

        // The dump prints them in the same order.
        const std::string dump = statsJson(reg);
        std::size_t at = 0;
        for (const auto &name : names) {
            const std::size_t pos = dump.find("\"" + name + "\": ", at);
            ASSERT_NE(pos, std::string::npos) << name;
            at = pos + 1;
        }
    }
}

TEST(Registry, ParallelRegistriesShareTheNamePool)
{
    // Registries on different threads create stats at once; the name
    // pool is the only state they share.
    std::vector<std::string> names;
    for (int i = 0; i < 500; ++i)
        names.push_back("pool.stat_" + std::to_string(i * 7919 % 1000)
                        + (i % 2 ? ".busy_ps" : ".count"));
    std::vector<std::string> dumps(4);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < dumps.size(); ++t) {
        threads.emplace_back([&, t] {
            std::vector<std::string> order = names;
            std::shuffle(order.begin(), order.end(),
                         std::mt19937(t + 1));
            Registry reg;
            for (const auto &name : order)
                reg.counter(name).bump(name.size());
            dumps[t] = statsJson(reg);
        });
    }
    for (auto &th : threads)
        th.join();
    for (const auto &dump : dumps)
        EXPECT_EQ(dump, dumps[0]);
    EXPECT_NE(dumps[0].find("pool.stat_0.count"), std::string::npos);
}

TEST(Registry, KindConflictIsFatal)
{
    Registry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), hcc::FatalError);
    EXPECT_THROW(reg.distribution("x"), hcc::FatalError);
}

TEST(Registry, GaugeTracksWatermarksAndSamples)
{
    Registry reg;
    Gauge &g = reg.gauge("pool.occupancy");
    g.set(2, 100);
    g.adjust(3, 200);
    g.set(1, 300);
    EXPECT_EQ(g.value(), 1);
    EXPECT_EQ(g.min(), 1);
    EXPECT_EQ(g.max(), 5);
    ASSERT_EQ(g.samples().size(), 3u);
    EXPECT_EQ(g.samples()[1].ts, 200);
    EXPECT_EQ(g.samples()[1].value, 5);
}

TEST(Registry, GaugeCoalescesEqualLevelsAndUntimedUpdates)
{
    Registry reg;
    Gauge &g = reg.gauge("g");
    g.set(7, 10);
    g.set(7, 20);   // same level: coalesced away
    g.set(9);       // no timestamp: no sample
    EXPECT_EQ(g.samples().size(), 1u);
    EXPECT_EQ(g.value(), 9);
}

TEST(Registry, GaugeKeepsEveryChangeBelowCap)
{
    Registry reg;
    Gauge &g = reg.gauge("g");
    for (std::size_t i = 0; i < Gauge::kMaxSamples - 1; ++i)
        g.set(static_cast<std::int64_t>(i % 2),
              static_cast<SimTime>(i));
    EXPECT_EQ(g.samples().size(), Gauge::kMaxSamples - 1);
    EXPECT_EQ(g.droppedSamples(), 0u);
    EXPECT_EQ(g.sampleStride(), 1u);
}

TEST(Registry, GaugeDownsamplesAtCapWithDoublingStride)
{
    Registry reg;
    Gauge &g = reg.gauge("g");
    const std::size_t total = Gauge::kMaxSamples * 3;
    for (std::size_t i = 0; i < total; ++i)
        g.set(static_cast<std::int64_t>(i % 2),
              static_cast<SimTime>(i));
    // Bounded retention, coverage of the whole series.
    EXPECT_LT(g.samples().size(), Gauge::kMaxSamples);
    EXPECT_GE(g.samples().size(), Gauge::kMaxSamples / 4);
    EXPECT_EQ(g.samples().size() + g.droppedSamples(), total);
    EXPECT_GE(g.sampleStride(), 4u);
    // Retained samples stay in time order and start at the origin.
    EXPECT_EQ(g.samples().front().ts, 0);
    for (std::size_t i = 1; i < g.samples().size(); ++i)
        EXPECT_LT(g.samples()[i - 1].ts, g.samples()[i].ts);
    EXPECT_GT(g.samples().back().ts,
              static_cast<SimTime>(total / 2));
}

TEST(Registry, GaugeDownsamplingIsDeterministic)
{
    Registry reg;
    Gauge &a = reg.gauge("a");
    Gauge &b = reg.gauge("b");
    for (std::size_t i = 0; i < Gauge::kMaxSamples + 777; ++i) {
        const auto v = static_cast<std::int64_t>((i * 7) % 5);
        a.set(v, static_cast<SimTime>(i));
        b.set(v, static_cast<SimTime>(i));
    }
    ASSERT_EQ(a.samples().size(), b.samples().size());
    for (std::size_t i = 0; i < a.samples().size(); ++i) {
        EXPECT_EQ(a.samples()[i].ts, b.samples()[i].ts);
        EXPECT_EQ(a.samples()[i].value, b.samples()[i].value);
    }
}

TEST(Registry, ProfileScopeRecordsUnderHostPrefix)
{
    Registry reg;
    {
        ProfileScope scope(&reg, "unit");
    }
    ASSERT_TRUE(reg.contains("host.profile.unit_us"));
    EXPECT_EQ(reg.distribution("host.profile.unit_us").count(), 1u);
}

TEST(Registry, ProfileScopeToleratesNullRegistry)
{
    ProfileScope scope(nullptr, "ignored");  // must not crash
}

// ------------------------------------------------------ stats dump

Registry &
sampleRegistry(Registry &reg)
{
    reg.counter("tee.bounce.acquires").add(3);
    reg.gauge("tee.bounce.occupancy").set(2, 100);
    reg.distribution("x.latency").add(1.5);
    reg.distribution("x.latency").add(2.5);
    reg.distribution("host.profile.run_us").add(123.0);
    return reg;
}

TEST(StatsIo, DumpExcludesHostStatsByDefault)
{
    Registry reg;
    const auto text = statsJson(sampleRegistry(reg));
    EXPECT_EQ(text.find("host.profile"), std::string::npos);
    EXPECT_NE(statsJson(reg, true).find("host.profile"),
              std::string::npos);
}

TEST(StatsIo, DumpEscapesControlCharactersInNames)
{
    Registry reg;
    reg.counter("odd\tname\x01").add(1);
    const auto text = statsJson(reg);
    EXPECT_NE(text.find("\"odd\\tname\\u0001\""), std::string::npos)
        << text;
}

TEST(StatsIo, BufferedWriterEscapesPrefixAndName)
{
    // The section prefix is escaped once and the name on its own;
    // the two must read as one escaped key.
    Registry reg;
    reg.counter("n\"a\\m\ne\x01").add(5);
    reg.gauge("plain").set(-2, 10);
    std::ostringstream os;
    writeStatsJson(os, {{"p\"r\\e\nf\x01.", &reg}});
    EXPECT_EQ(os.str(),
              "{\n  \"hccsim_stats_version\": 1,\n  \"stats\": {\n"
              "    \"p\\\"r\\\\e\\nf\\u0001.n\\\"a\\\\m\\ne\\u0001\": "
              "{\"type\": \"counter\", \"value\": 5},\n"
              "    \"p\\\"r\\\\e\\nf\\u0001.plain\": {\"type\": \"gauge\", "
              "\"value\": -2, \"min\": -2, \"max\": -2, \"samples\": 1}"
              "\n  }\n}\n");
}

TEST(StatsIo, BufferedWriterFlushesEveryBlock)
{
    // ~300 KiB of stat lines: several buffer flushes, no byte lost
    // or repeated at a block boundary.
    Registry reg;
    std::string want = "{\n  \"hccsim_stats_version\": 1,\n"
                       "  \"stats\": {";
    for (int i = 0; i < 5000; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "sec.c%05d", i);
        reg.counter(name).add(static_cast<std::uint64_t>(i) * 977);
        want += i == 0 ? "\n" : ",\n";
        want += "    \"cell0.x." + std::string(name)
            + "\": {\"type\": \"counter\", \"value\": "
            + std::to_string(static_cast<std::uint64_t>(i) * 977)
            + "}";
    }
    want += "\n  }\n}\n";
    std::ostringstream os;
    writeStatsJson(os, {{"cell0.x.", &reg}});
    EXPECT_GT(want.size(), std::size_t{300} << 10);
    EXPECT_EQ(os.str(), want);
}

TEST(StatsIo, DumpParsesBackWithMatchingFields)
{
    Registry reg;
    const auto map =
        parseStatsJson(statsJson(sampleRegistry(reg))).take();
    ASSERT_EQ(map.count("tee.bounce.acquires"), 1u);
    EXPECT_EQ(map.at("tee.bounce.acquires").type, "counter");
    EXPECT_EQ(map.at("tee.bounce.acquires").fields.at("value"), 3.0);
    EXPECT_EQ(map.at("tee.bounce.occupancy").type, "gauge");
    EXPECT_EQ(map.at("tee.bounce.occupancy").fields.at("max"), 2.0);
    EXPECT_EQ(map.at("x.latency").type, "distribution");
    EXPECT_EQ(map.at("x.latency").fields.at("mean"), 2.0);
    EXPECT_EQ(map.count("host.profile.run_us"), 0u);
}

workloads::WorkloadResult
runSeeded(bool cc)
{
    rt::SystemConfig sys;
    sys.cc = cc;
    sys.seed = 7;
    workloads::WorkloadParams params;
    params.seed = 7;
    return workloads::runWorkload("atax", sys, params);
}

TEST(StatsIo, SameSeedRunsDumpByteIdentically)
{
    const auto a = runSeeded(true);
    const auto b = runSeeded(true);
    ASSERT_TRUE(a.stats && b.stats);
    EXPECT_EQ(statsJson(*a.stats), statsJson(*b.stats));
}

TEST(StatsIo, CcRunCoversManyComponents)
{
    const auto res = runSeeded(true);
    const auto map = parseStatsJson(statsJson(*res.stats)).take();
    std::set<std::string> components;
    for (const auto &[name, snap] : map)
        components.insert(name.substr(0, name.find('.')));
    EXPECT_GE(map.size(), 20u);
    EXPECT_GE(components.size(), 5u) << statsJson(*res.stats);
    EXPECT_TRUE(components.count("tee"));
    EXPECT_TRUE(components.count("crypto"));
}

// ------------------------------------------------------------ json

TEST(Json, ParsesScalarsArraysAndObjects)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        R"({"a": [1, -2.5e1, true, null], "b": "q\"uo\\te"})", v,
        err)) << err;
    ASSERT_TRUE(v.isObject());
    const json::Value *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->array.size(), 4u);
    EXPECT_EQ(a->array[0].number, 1.0);
    EXPECT_EQ(a->array[1].number, -25.0);
    EXPECT_TRUE(a->array[2].boolean);
    EXPECT_TRUE(a->array[3].isNull());
    ASSERT_TRUE(v.find("b"));
    EXPECT_EQ(v.find("b")->string, "q\"uo\\te");
}

TEST(Json, RejectsMalformedInput)
{
    json::Value v;
    std::string err;
    for (const char *bad : {"", "{", "[1,]", "{\"a\" 1}", "nul", "1 2",
                            "\"\\x\"", "1e999", "-1e999"}) {
        EXPECT_FALSE(json::parse(bad, v, err)) << bad;
        EXPECT_FALSE(err.empty());
    }
}

// ------------------------------------------------------ stats-diff

StatsMap
mapOf(Registry &reg)
{
    return parseStatsJson(statsJson(reg)).take();
}

TEST(StatsDiff, IdenticalDumpsPass)
{
    Registry a, b;
    const auto diff =
        diffStats(mapOf(sampleRegistry(a)), mapOf(sampleRegistry(b)));
    EXPECT_TRUE(diff.pass());
    EXPECT_GT(diff.compared, 0u);
    EXPECT_NE(diff.report().find("no drift"), std::string::npos);
}

TEST(StatsDiff, ValueDriftFailsAndToleranceForgives)
{
    Registry a, b;
    sampleRegistry(a);
    sampleRegistry(b);
    b.counter("tee.bounce.acquires").add(1);  // 3 -> 4
    const auto strict = diffStats(mapOf(a), mapOf(b));
    ASSERT_FALSE(strict.pass());
    EXPECT_EQ(strict.drifts.front().stat, "tee.bounce.acquires");
    EXPECT_NE(strict.report().find("tee.bounce.acquires"),
              std::string::npos);
    EXPECT_TRUE(diffStats(mapOf(a), mapOf(b), 0.5).pass());
}

TEST(StatsDiff, OutOfRangeNumberIsAParseErrorNotAPass)
{
    // 1e999 would parse as inf, and inf/inf drift is NaN, which no
    // tolerance comparison ever reports.
    const auto doc = [](const char *value) {
        return std::string("{\"stats\": {\"a\": {\"type\": ")
            + "\"counter\", \"value\": " + value + "}}}";
    };
    ASSERT_TRUE(parseStatsJson(doc("5")).ok());
    for (const char *value : {"1e999", "-1e999"}) {
        const auto parsed = parseStatsJson(doc(value));
        ASSERT_FALSE(parsed.ok()) << value;
        EXPECT_EQ(parsed.status().code(), ErrorCode::ParseError);
        EXPECT_NE(parsed.status().message().find("out of range"),
                  std::string::npos)
            << parsed.status().message();
    }
}

TEST(StatsDiff, MissingAddedAndRetypedStatsAlwaysFail)
{
    Registry a, b;
    sampleRegistry(a);
    sampleRegistry(b);
    b.counter("x.new");
    auto diff = diffStats(mapOf(a), mapOf(b), 1e9);
    ASSERT_EQ(diff.drifts.size(), 1u);
    EXPECT_EQ(diff.drifts.front().what, "added");

    diff = diffStats(mapOf(b), mapOf(a), 1e9);
    EXPECT_EQ(diff.drifts.front().what, "missing");

    Registry c;
    sampleRegistry(c);
    c.gauge("x.new");
    diff = diffStats(mapOf(b), mapOf(c), 1e9);
    ASSERT_FALSE(diff.pass());
    EXPECT_EQ(diff.drifts.front().what, "type");
}

} // namespace
} // namespace hcc::obs
