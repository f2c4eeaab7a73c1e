/**
 * @file
 * Tests for the trace exporters (Chrome trace JSON, CSV).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "trace/compare.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace hcc::trace {
namespace {

Tracer
sampleTrace()
{
    Tracer t;
    TraceEvent launch;
    launch.kind = EventKind::Launch;
    launch.start = time::us(10.0);
    launch.end = time::us(18.0);
    launch.stream = 0;
    launch.queue_wait = time::us(2.0);
    const auto corr = t.record(launch, "my_kernel");

    TraceEvent kernel;
    kernel.kind = EventKind::Kernel;
    kernel.start = time::us(20.0);
    kernel.end = time::us(120.0);
    kernel.stream = 0;
    kernel.correlation = corr;
    kernel.queue_wait = time::us(3.0);
    t.record(kernel, "my_kernel");

    TraceEvent copy;
    copy.kind = EventKind::MemcpyH2D;
    copy.start = time::us(130.0);
    copy.end = time::us(200.0);
    copy.bytes = 4096;
    copy.encrypted_paging = true;
    t.record(copy, "memcpy");
    return t;
}

TEST(ChromeExport, ProducesValidLookingJson)
{
    const auto json = chromeTraceJson(sampleTrace());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');
    EXPECT_NE(json.find("\"name\": \"my_kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"Kernel\""), std::string::npos);
    EXPECT_NE(json.find("\"encrypted_paging\": true"),
              std::string::npos);
    // Balanced braces.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(ChromeExport, HostAndDeviceTracksSeparated)
{
    const auto json = chromeTraceJson(sampleTrace());
    // Launch on pid 1 (host), kernel/copy on pid 2 (device).
    EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
}

TEST(ChromeExport, EscapesSpecialCharacters)
{
    Tracer t;
    TraceEvent e;
    e.kind = EventKind::Kernel;
    e.start = 0;
    e.end = 1;
    t.record(e, "weird\"name\\with\nstuff\tand\x01");
    const auto json = chromeTraceJson(t);
    EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff\\tand\\u0001"),
              std::string::npos);
}

TEST(ChromeExport, EmptyTraceIsEmptyArray)
{
    Tracer t;
    const auto json = chromeTraceJson(t);
    EXPECT_NE(json.find('['), std::string::npos);
    EXPECT_EQ(json.find('{'), std::string::npos);
}

TEST(ChromeExport, CounterTracksFromRegistry)
{
    obs::Registry reg;
    obs::Gauge &g = reg.gauge("tee.bounce.occupancy");
    // Recorded out of simulated-time order (as a bounce release can
    // be): the exporter must sort before emitting.
    g.set(2, time::us(50.0));
    g.set(1, time::us(10.0));
    reg.counter("not.a.gauge").add(7);
    const auto json = chromeTraceJson(sampleTrace(), &reg);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"tee.bounce.occupancy\""),
              std::string::npos);
    EXPECT_EQ(json.find("not.a.gauge"), std::string::npos);
    const auto first = json.find("\"ph\": \"C\"");
    EXPECT_NE(json.find("\"ts\": 10", first), std::string::npos);
    EXPECT_LT(json.find("\"ts\": 10", first), json.find("\"ts\": 50"));
}

TEST(ChromeExport, OutputIsParseableJson)
{
    obs::Registry reg;
    reg.gauge("runtime.launch_queue.depth").set(3, time::us(1.0));
    const auto text = chromeTraceJson(sampleTrace(), &reg);
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(text, v, err)) << err;
    ASSERT_TRUE(v.isArray());
    int counters = 0;
    for (const auto &e : v.array) {
        const auto *ph = e.find("ph");
        ASSERT_TRUE(ph);
        if (ph->string == "C") {
            ++counters;
            EXPECT_EQ(e.find("pid")->number, 3.0);
            ASSERT_TRUE(e.find("args"));
            EXPECT_TRUE(e.find("args")->find("value"));
        }
    }
    EXPECT_EQ(counters, 1);
    EXPECT_EQ(v.array.size(), 4u);  // 3 "X" events + 1 "C" sample
}

TEST(ChromeExport, QueueWaitArgsPerEvent)
{
    const auto json = chromeTraceJson(sampleTrace());
    // Exact-ps queue wait on every event, plus the kind-specific
    // LQT/KQT aliases the paper's figures are built from.
    EXPECT_NE(json.find("\"queue_wait_ps\": 2000000"),
              std::string::npos);
    EXPECT_NE(json.find("\"lqt_ps\": 2000000"), std::string::npos);
    EXPECT_NE(json.find("\"kqt_ps\": 3000000"), std::string::npos);
    EXPECT_NE(json.find("\"correlation\": "), std::string::npos);
    // The plain copy gets neither alias.
    EXPECT_EQ(json.find("\"kqt_ps\": 0"), std::string::npos);
}

TEST(ChromeExport, CriticalPathArgsAndFlowEvents)
{
    const auto t = sampleTrace();
    const auto crit = analyzeCritical(t).path;
    const auto json = chromeTraceJson(t, nullptr, &crit);
    EXPECT_NE(json.find("\"on_critical_path\": true"),
              std::string::npos);
    EXPECT_NE(json.find("\"slack_ps\": "), std::string::npos);
    // Flow arrows between consecutive on-path spans.
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"critpath\""), std::string::npos);
    // Still parseable JSON with balanced pairs per flow id.
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(json, v, err)) << err;
    int starts = 0, finishes = 0;
    for (const auto &e : v.array) {
        const auto *ph = e.find("ph");
        if (ph && ph->string == "s")
            ++starts;
        if (ph && ph->string == "f")
            ++finishes;
    }
    EXPECT_EQ(starts, finishes);
    EXPECT_EQ(starts,
              static_cast<int>(crit.segments.size()) - 1);
}

TEST(ChromeExport, OffPathEventMarkedFalse)
{
    Tracer t;
    TraceEvent long_k;
    long_k.kind = EventKind::Kernel;
    long_k.start = time::us(10);
    long_k.end = time::us(110);
    long_k.stream = 0;
    t.record(long_k, "gating");
    TraceEvent idle;
    idle.kind = EventKind::Kernel;
    idle.start = time::us(20);
    idle.end = time::us(50);
    idle.stream = 1;
    t.record(idle, "idle");
    const auto crit = analyzeCritical(t).path;
    const auto json = chromeTraceJson(t, nullptr, &crit);
    EXPECT_NE(json.find("\"on_critical_path\": false"),
              std::string::npos);
}

TEST(CsvExport, HeaderAndRows)
{
    std::ostringstream oss;
    exportCsv(sampleTrace(), oss);
    const std::string csv = oss.str();
    EXPECT_EQ(csv.find("kind,name,start_us"), 0u);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
    EXPECT_NE(csv.find("MemcpyH2D,memcpy"), std::string::npos);
    EXPECT_NE(csv.find(",4096,"), std::string::npos);
}

TEST(CsvExport, QuotesNamesWithCommasAndQuotes)
{
    Tracer t;
    TraceEvent e;
    e.kind = EventKind::Kernel;
    e.start = 0;
    e.end = 1;
    t.record(e, "gemm<float, 32>(\"tiled\")");
    std::ostringstream oss;
    exportCsv(t, oss);
    // RFC 4180: the whole field quoted, embedded quotes doubled.
    EXPECT_NE(oss.str().find("\"gemm<float, 32>(\"\"tiled\"\")\""),
              std::string::npos);
}

// --------------------------------------------------------- compare

Tracer
mkTrace(SimTime launch_dur, SimTime kernel_dur, int n)
{
    Tracer t;
    SimTime cursor = 0;
    for (int i = 0; i < n; ++i) {
        TraceEvent l;
        l.kind = EventKind::Launch;
        l.start = cursor;
        l.end = cursor + launch_dur;
        t.record(l, "k");
        TraceEvent k;
        k.kind = EventKind::Kernel;
        k.start = l.end;
        k.end = l.end + kernel_dur;
        t.record(k, "k");
        cursor = k.end;
    }
    return t;
}

TEST(Compare, AggregatesPerKind)
{
    const auto a = mkTrace(time::us(6), time::us(100), 10);
    const auto b = mkTrace(time::us(9), time::us(100), 10);
    const auto d = compareTraces(a, b);
    ASSERT_EQ(d.kinds.size(), 2u);
    const auto &launch = d.kinds[0];
    EXPECT_EQ(launch.kind, EventKind::Launch);
    EXPECT_EQ(launch.count_a, 10u);
    EXPECT_EQ(launch.delta(), time::us(30));
    EXPECT_NEAR(launch.ratio(), 1.5, 1e-9);
    const auto &kernel = d.kinds[1];
    EXPECT_EQ(kernel.delta(), 0);
    EXPECT_EQ(d.unaligned, 0u);
}

TEST(Compare, TopEventsAreWorstRegressions)
{
    auto a = mkTrace(time::us(5), time::us(50), 5);
    auto b = mkTrace(time::us(5), time::us(50), 5);
    // Inject one big regression into b.
    TraceEvent big;
    big.kind = EventKind::Launch;
    big.start = time::ms(1);
    big.end = time::ms(3);
    b.record(big, "spike");
    TraceEvent small;
    small.kind = EventKind::Launch;
    small.start = time::ms(1);
    small.end = time::ms(1) + time::us(5);
    a.record(small, "spike");
    const auto d = compareTraces(a, b, 3);
    ASSERT_FALSE(d.top_events.empty());
    EXPECT_EQ(d.top_events.front().name, "spike");
    EXPECT_NEAR(static_cast<double>(d.top_events.front().delta()),
                static_cast<double>(time::ms(2) - time::us(5)),
                1e3);
}

TEST(Compare, ToleratesCountMismatch)
{
    const auto a = mkTrace(time::us(5), time::us(50), 3);
    const auto b = mkTrace(time::us(5), time::us(50), 5);
    const auto d = compareTraces(a, b);
    EXPECT_EQ(d.unaligned, 4u);  // 2 launches + 2 kernels extra
}

TEST(Compare, ImprovementsExcludedFromTopList)
{
    const auto a = mkTrace(time::us(50), time::us(50), 3);
    const auto b = mkTrace(time::us(5), time::us(50), 3);  // faster!
    const auto d = compareTraces(a, b);
    EXPECT_TRUE(d.top_events.empty());
}

TEST(Compare, ReportMentionsKindsAndSpans)
{
    const auto a = mkTrace(time::us(5), time::us(50), 2);
    const auto b = mkTrace(time::us(9), time::us(50), 2);
    const auto r = compareTraces(a, b).report();
    EXPECT_NE(r.find("end-to-end"), std::string::npos);
    EXPECT_NE(r.find("Launch"), std::string::npos);
    EXPECT_NE(r.find("Kernel"), std::string::npos);
}

} // namespace
} // namespace hcc::trace
