/**
 * @file
 * Tests for the snapshot/fork layer: the archive primitives, each
 * subsystem's snapState round-trip (RNG stream position, trace
 * intern table, stats registry erase-after-capture), the snapshot
 * file format (deterministic bytes, no padding in archived types),
 * and the headline property — a forked cell is indistinguishable
 * from a cold run — exercised over every registered workload under
 * base, CC and UVM.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fault/campaign.hpp"
#include "obs/registry.hpp"
#include "obs/stats_io.hpp"
#include "snap/archive.hpp"
#include "snap/fork.hpp"
#include "snap/snap.hpp"
#include "sweep/sweep.hpp"
#include "trace/critpath.hpp"
#include "trace/tracer.hpp"
#include "workloads/workload.hpp"

namespace hcc::snap {
namespace {

// -------------------------------------------------- fork-point spec

TEST(ForkPoint, ParsesTheThreeSpellings)
{
    auto none = parseForkPoint("none");
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none->mode, ForkPoint::Mode::None);

    auto aut = parseForkPoint("auto");
    ASSERT_TRUE(aut.ok());
    EXPECT_EQ(aut->mode, ForkPoint::Mode::Auto);

    auto frac = parseForkPoint("0.25");
    ASSERT_TRUE(frac.ok());
    EXPECT_EQ(frac->mode, ForkPoint::Mode::Fraction);
    EXPECT_DOUBLE_EQ(frac->fraction, 0.25);
    EXPECT_EQ(frac->str(), "0.25");
}

TEST(ForkPoint, RejectsGarbageAndOutOfRange)
{
    EXPECT_FALSE(parseForkPoint("").ok());
    EXPECT_FALSE(parseForkPoint("half").ok());
    EXPECT_FALSE(parseForkPoint("0.5x").ok());
    EXPECT_FALSE(parseForkPoint("-0.1").ok());
    EXPECT_FALSE(parseForkPoint("1.5").ok());
}

TEST(ForkPoint, NoneNeverResolves)
{
    const auto &w = workloads::WorkloadRegistry::instance().get("2mm");
    ForkPoint fp{ForkPoint::Mode::None, 0.0, {}};
    EXPECT_LT(fp.resolve(w), 0.0);
    EXPECT_TRUE(fp.resolvePath(w).empty());
}

TEST(ForkPoint, ParsesChainedPaths)
{
    auto p = parseForkPoint("auto/0.95");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->mode, ForkPoint::Mode::Auto);
    EXPECT_EQ(p->chain, (std::vector<double>{0.95}));
    EXPECT_EQ(p->str(), "auto/0.95");

    auto q = parseForkPoint("0.5/0.8/0.9");
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->mode, ForkPoint::Mode::Fraction);
    EXPECT_DOUBLE_EQ(q->fraction, 0.5);
    EXPECT_EQ(q->chain, (std::vector<double>{0.8, 0.9}));
    EXPECT_EQ(q->str(), "0.5/0.8/0.9");
}

TEST(ForkPoint, RejectsBadPathsWithoutClamping)
{
    // Every bad path is a hard parse error — never silently clamped
    // or reordered into something runnable.
    EXPECT_FALSE(parseForkPoint("none/0.5").ok());
    EXPECT_FALSE(parseForkPoint("0.5/").ok());
    EXPECT_FALSE(parseForkPoint("0.5/x").ok());
    EXPECT_FALSE(parseForkPoint("0.5/1.5").ok());
    EXPECT_FALSE(parseForkPoint("0.5/0.5").ok());
    const auto decreasing = parseForkPoint("0.5/0.4");
    ASSERT_FALSE(decreasing.ok());
    EXPECT_NE(decreasing.status().message().find("strictly"),
              std::string::npos);
    const auto chained_none = parseForkPoint("none/0.5");
    EXPECT_NE(chained_none.status().message().find("cannot chain"),
              std::string::npos);
}

TEST(ForkPoint, ResolvePathOrdersAutoCutPerWorkload)
{
    const auto &w = workloads::WorkloadRegistry::instance().get("2mm");
    ForkPoint fp{ForkPoint::Mode::Auto, 0.0, {0.95}};
    const auto cuts = fp.resolvePath(w);
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_DOUBLE_EQ(cuts[0], w.defaultForkPoint());
    EXPECT_DOUBLE_EQ(cuts[1], 0.95);

    // An auto head can only be ordered against the chain once the
    // workload is known; a non-increasing resolved path is fatal.
    ForkPoint bad{ForkPoint::Mode::Auto, 0.0, {0.1}};
    EXPECT_THROW(bad.resolvePath(w), FatalError);
}

// ------------------------------------------------ RNG stream position

TEST(SnapRng, RestoreReplaysTheExactDrawSequence)
{
    Rng rng(1234, 7);
    for (int i = 0; i < 17; ++i)
        (void)rng.uniform();

    Saver saver;
    rng.snapState(saver);
    const auto bytes = saver.take();

    std::vector<double> expected;
    for (int i = 0; i < 32; ++i)
        expected.push_back(rng.uniform());

    Loader loader(bytes);
    rng.snapState(loader);
    EXPECT_TRUE(loader.exhausted());
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(rng.uniform(), expected[i]) << "draw " << i;
}

TEST(SnapRng, RestoreCarriesTheBoxMullerSpare)
{
    Rng rng(99);
    (void)rng.normal(); // generates a pair, caches the spare

    Saver saver;
    rng.snapState(saver);
    const auto bytes = saver.take();

    const double expected_spare = rng.normal();
    const double expected_next = rng.normal();

    Loader loader(bytes);
    rng.snapState(loader);
    EXPECT_EQ(rng.normal(), expected_spare);
    EXPECT_EQ(rng.normal(), expected_next);
}

// -------------------------------------------------- trace intern table

TEST(SnapTracer, RestoreTruncatesInternTableAndKeepsOldIds)
{
    trace::Tracer tracer;
    const auto a = tracer.intern("kernel_a");
    const auto b = tracer.intern("kernel_b");

    Saver saver;
    tracer.snapState(saver);
    const auto bytes = saver.take();

    const auto c = tracer.intern("kernel_c");
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);

    Loader loader(bytes);
    tracer.snapState(loader);

    // Pre-capture ids still resolve; the post-capture label is gone
    // and a deterministic replay re-interning the same string gets
    // the same id it got the first time.
    EXPECT_EQ(tracer.labelName(a), "kernel_a");
    EXPECT_EQ(tracer.labelName(b), "kernel_b");
    EXPECT_EQ(tracer.intern("kernel_c"), c);
    EXPECT_EQ(tracer.intern("kernel_a"), a);
}

TEST(SnapTracer, RestoreRewindsEventsIntoAFreshReplay)
{
    trace::Tracer tracer;
    trace::TraceEvent ev;
    ev.start = 10;
    ev.end = 20;
    tracer.record(ev, "warmup");

    Saver saver;
    tracer.snapState(saver);
    const auto bytes = saver.take();

    for (int i = 0; i < 100; ++i) {
        ev.start = 100 + i;
        ev.end = 101 + i;
        tracer.record(ev, "suffix");
    }
    EXPECT_EQ(tracer.size(), 101u);

    Loader loader(bytes);
    tracer.snapState(loader);
    EXPECT_EQ(tracer.size(), 1u);
    EXPECT_EQ(tracer.lastEnd(), 20);
}

// --------------------------------------------------- stats registry

TEST(SnapRegistry, RestorePutsValuesBackAndKeepsHandlesValid)
{
    obs::Registry reg;
    auto &ctr = reg.counter("a.count");
    auto &gauge = reg.gauge("b.level");
    ctr.bump(5);
    gauge.set(3, 0);

    Saver saver;
    reg.snapState(saver);
    const auto bytes = saver.take();

    ctr.bump(100);
    gauge.set(42, 1);

    Loader loader(bytes);
    reg.snapState(loader);
    EXPECT_EQ(ctr.value(), 5);
    EXPECT_EQ(gauge.value(), 3);

    // The pre-capture handle still points at the live entry.
    ctr.bump(1);
    EXPECT_EQ(reg.counter("a.count").value(), 6);
}

TEST(SnapRegistry, RestoreErasesEntriesCreatedAfterCapture)
{
    obs::Registry reg;
    reg.counter("early").bump(1);

    Saver saver;
    reg.snapState(saver);
    const auto bytes = saver.take();

    reg.counter("fault.late.injected").bump(9);
    EXPECT_TRUE(reg.contains("fault.late.injected"));

    Loader loader(bytes);
    reg.snapState(loader);
    EXPECT_FALSE(reg.contains("fault.late.injected"));
    EXPECT_TRUE(reg.contains("early"));
    EXPECT_EQ(reg.size(), 1u);
}

TEST(SnapRegistry, RestoreMergesInterleavedNamesInPlace)
{
    // Archive-only names before, between and after the live ones
    // (a, d, h), live-only names in the same positions (b, e, g, z),
    // and names both hold (c, f), across all three kinds.
    obs::Registry captured;
    captured.counter("a.counter").bump(1);
    captured.counter("c.counter").bump(30);
    captured.gauge("d.gauge").set(-4, 7);
    captured.distribution("f.dist").add(2.5);
    captured.distribution("h.dist").add(8.0);
    Saver saver;
    captured.snapState(saver);
    const auto bytes = saver.take();

    obs::Registry live;
    live.counter("b.counter").bump(2);
    obs::Counter &c = live.counter("c.counter");
    c.bump(99);
    obs::Gauge &e = live.gauge("e.gauge");
    e.set(5, 1);
    e.set(6, 2);
    obs::Distribution &f = live.distribution("f.dist");
    f.add(100.0);
    f.add(200.0);
    live.counter("g.counter").bump(3);
    live.gauge("z.gauge").set(4, 3);

    Loader loader(bytes);
    live.snapState(loader);
    EXPECT_TRUE(loader.exhausted());
    EXPECT_EQ(obs::statsJson(live), obs::statsJson(captured));
    EXPECT_EQ(live.size(), 5u);
    for (const char *gone :
         {"b.counter", "e.gauge", "g.counter", "z.gauge"})
        EXPECT_FALSE(live.contains(gone)) << gone;

    // Surviving stats are the same objects, holding captured values.
    EXPECT_EQ(&live.counter("c.counter"), &c);
    EXPECT_EQ(c.value(), 30u);
    EXPECT_EQ(&live.distribution("f.dist"), &f);
    EXPECT_EQ(f.count(), 1u);
    EXPECT_EQ(f.sum(), 2.5);
    EXPECT_EQ(live.gauge("d.gauge").samples().size(), 1u);

    // An erased stat created again starts from zero, whichever freed
    // slot it lands in.
    EXPECT_EQ(live.counter("b.counter").value(), 0u);
    const obs::Gauge &again = live.gauge("e.gauge");
    EXPECT_EQ(again.value(), 0);
    EXPECT_EQ(again.sampleCount(), 0u);
    EXPECT_EQ(again.droppedSamples(), 0u);
    EXPECT_EQ(live.counter("g.counter").value(), 0u);
    EXPECT_EQ(live.gauge("z.gauge").sampleCount(), 0u);
    EXPECT_EQ(live.gauge("z.gauge").max(), 0);

    // Restoring again erases them once more and keeps the handles.
    Loader again_loader(bytes);
    live.snapState(again_loader);
    EXPECT_EQ(obs::statsJson(live), obs::statsJson(captured));
    EXPECT_EQ(&live.counter("c.counter"), &c);
}

TEST(SnapRegistry, RestoreIntoAnEmptyRegistryRebuildsIt)
{
    obs::Registry captured;
    captured.gauge("x.level").set(3, 1);
    captured.counter("y.count").bump(4);
    Saver saver;
    captured.snapState(saver);
    const auto bytes = saver.take();

    obs::Registry empty;
    Loader loader(bytes);
    empty.snapState(loader);
    EXPECT_EQ(obs::statsJson(empty), obs::statsJson(captured));
    EXPECT_EQ(empty.gauge("x.level").samples().size(), 1u);

    // The saved bytes do not depend on which registry holds the
    // stats: a rebuilt registry saves what the original saved.
    Saver resaver;
    empty.snapState(resaver);
    EXPECT_EQ(resaver.bytes(), bytes);
}

TEST(SnapRegistry, CloneOfACloneOutlivesItsSources)
{
    auto source = std::make_unique<obs::Registry>();
    source->counter("a.count").bump(11);
    source->gauge("b.level").set(-2, 5);
    source->distribution("c.lat").add(0.75);
    const std::string dump = obs::statsJson(*source);

    auto first = source->clone();
    auto second = first->clone();
    source.reset();
    first.reset();
    EXPECT_EQ(obs::statsJson(*second), dump);
    EXPECT_EQ(second->gauge("b.level").sampleCount(), 1u);

    // The survivor is a working registry of its own.
    second->counter("a.count").bump(1);
    second->counter("d.new").bump(2);
    EXPECT_EQ(second->counter("a.count").value(), 12u);
    EXPECT_EQ(second->size(), 4u);
}

TEST(SnapRegistry, CloneIsADeepValueCopy)
{
    obs::Registry reg;
    reg.counter("x").bump(7);
    auto clone = reg.clone();
    reg.counter("x").bump(100);
    EXPECT_EQ(clone->counter("x").value(), 7);
    EXPECT_EQ(reg.counter("x").value(), 107);
}

TEST(SnapRegistry, CloneKeepsGaugeCountsNotSeries)
{
    // Past kMaxSamples the gauge has decimated: the clone must carry
    // the retained count, the dropped count and the stride, so every
    // dump field matches, but none of the series.
    obs::Registry reg;
    obs::Gauge &g = reg.gauge("runtime.launch_queue.depth");
    const std::size_t total = obs::Gauge::kMaxSamples + 1234;
    for (std::size_t i = 0; i < total; ++i)
        g.set(static_cast<std::int64_t>(i % 7) - 3,
              static_cast<SimTime>(i));
    reg.distribution("x.latency").add(2.5);
    ASSERT_GT(g.sampleStride(), 1u);

    const auto clone = reg.clone();
    const obs::Gauge &c = clone->gauge("runtime.launch_queue.depth");
    EXPECT_TRUE(c.samples().empty());
    EXPECT_EQ(c.sampleCount(), g.samples().size());
    EXPECT_EQ(c.droppedSamples(), g.droppedSamples());
    EXPECT_EQ(c.sampleStride(), g.sampleStride());
    EXPECT_EQ(c.value(), g.value());
    EXPECT_EQ(c.min(), -3);
    EXPECT_EQ(c.max(), 3);
    EXPECT_EQ(obs::statsJson(*clone), obs::statsJson(reg));
}

// ------------------------------------------- archived type layout

// Padding bytes are never initialized, so a type with padding would
// leak garbage into snapshot files; the archives reject it.
struct PaddedAfterWord
{
    std::uint32_t word;
    std::uint64_t wide;
};
static_assert(!kIsSnapPod<PaddedAfterWord>);
static_assert(!kIsSnapPod<std::pair<SimTime, int>>);
static_assert(kIsSnapPod<std::pair<SimTime, std::int64_t>>);
static_assert(kIsSnapPod<std::array<double, 3>>);
static_assert(kIsSnapPod<double[3]>);
static_assert(kIsSnapPod<trace::TraceEvent>);

// ------------------------------------------------ snapshot file I/O

TEST(SnapshotFile, WriteReadRoundTrip)
{
    Snapshot snap;
    snap.meta.cc = true;
    snap.meta.uvm = false;
    snap.meta.seed = 77;
    snap.meta.sim_time = 123456;
    snap.meta.app = "gaussian";
    snap.meta.fork_point = "auto";
    snap.add("runtime") = {1, 2, 3};
    snap.add("trace") = {9, 8, 7, 6};

    const std::string path =
        testing::TempDir() + "snap_roundtrip.hccsnap";
    ASSERT_TRUE(writeSnapshotFile(path, snap).ok());

    auto loaded = readSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded->meta.cc, true);
    EXPECT_EQ(loaded->meta.seed, 77u);
    EXPECT_EQ(loaded->meta.sim_time, 123456);
    EXPECT_EQ(loaded->meta.app, "gaussian");
    EXPECT_EQ(loaded->meta.fork_point, "auto");
    ASSERT_EQ(loaded->sections.size(), 2u);
    EXPECT_EQ(loaded->sections[0].name, "runtime");
    EXPECT_EQ(loaded->sections[0].bytes, snap.sections[0].bytes);
    EXPECT_EQ(loaded->sections[1].bytes, snap.sections[1].bytes);

    std::ostringstream os;
    printSnapshot(os, *loaded);
    EXPECT_NE(os.str().find("gaussian"), std::string::npos);
    EXPECT_NE(os.str().find("trace"), std::string::npos);

    std::remove(path.c_str());
}

TEST(SnapshotFile, RejectsAForeignFile)
{
    const std::string path = testing::TempDir() + "not_a_snapshot";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("definitely not a snapshot", f);
        std::fclose(f);
    }
    EXPECT_FALSE(readSnapshotFile(path).ok());
    std::remove(path.c_str());
}

TEST(SnapshotFile, EveryTruncationIsAParseError)
{
    Snapshot snap;
    snap.meta.cc = true;
    snap.meta.seed = 42;
    snap.meta.app = "atax";
    snap.meta.fork_point = "auto/0.5";
    snap.meta.parent = "auto";
    snap.add("runtime") = {1, 2, 3};
    snap.add("trace") = {9, 8, 7, 6};
    const std::string path =
        testing::TempDir() + "snap_whole.hccsnap";
    ASSERT_TRUE(writeSnapshotFile(path, snap).ok());
    std::vector<char> bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        int c = 0;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
    }
    ASSERT_TRUE(readSnapshotFile(path).ok());

    // Every cut, including inside the meta strings, the section
    // table and the last payload byte, must be reported, not abort.
    const std::string cut = testing::TempDir() + "snap_cut.hccsnap";
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::FILE *f = std::fopen(cut.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, len, f), len);
        std::fclose(f);
        const auto loaded = readSnapshotFile(cut);
        ASSERT_FALSE(loaded.ok()) << "cut at " << len;
        EXPECT_EQ(loaded.status().code(), ErrorCode::ParseError)
            << "cut at " << len;
        EXPECT_NE(loaded.status().message().find(cut),
                  std::string::npos)
            << loaded.status().message();
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(SnapshotFile, FlagByteOtherThanZeroOrOneIsAParseError)
{
    Snapshot snap;
    snap.meta.app = "atax";
    const std::string path = testing::TempDir() + "snap_flag.hccsnap";
    ASSERT_TRUE(writeSnapshotFile(path, snap).ok());
    {
        // meta.cc is the byte after the 8-byte magic and the 4-byte
        // version.
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 12, SEEK_SET), 0);
        ASSERT_EQ(std::fputc(2, f), 2);
        std::fclose(f);
    }
    const auto loaded = readSnapshotFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::ParseError);
    std::remove(path.c_str());
}

TEST(SnapshotFile, EveryFlippedByteIsAParseError)
{
    Snapshot snap;
    snap.meta.cc = true;
    snap.meta.seed = 42;
    snap.meta.sim_time = 9876;
    snap.meta.app = "atax";
    snap.meta.fork_point = "auto/0.5";
    snap.meta.parent = "auto";
    snap.add("runtime") = {1, 2, 3};
    snap.add("trace") = {9, 8, 7, 6};
    const std::string path =
        testing::TempDir() + "snap_whole.hccsnap";
    ASSERT_TRUE(writeSnapshotFile(path, snap).ok());
    std::vector<char> bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        int c = 0;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
    }

    // Magic, version, meta, section table, header digest and every
    // payload byte: each corruption must be reported, not loaded.
    const std::string flip = testing::TempDir() + "snap_flip.hccsnap";
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<char> bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0xff);
        std::FILE *f = std::fopen(flip.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), f),
                  bad.size());
        std::fclose(f);
        const auto loaded = readSnapshotFile(flip);
        ASSERT_FALSE(loaded.ok()) << "flipped byte " << i;
        EXPECT_EQ(loaded.status().code(), ErrorCode::ParseError)
            << "flipped byte " << i;
        EXPECT_NE(loaded.status().message().find(flip),
                  std::string::npos)
            << loaded.status().message();
        if (i + 1 == bytes.size()) {
            // The last byte is the "trace" payload's.
            EXPECT_NE(loaded.status().message().find("'trace'"),
                      std::string::npos)
                << loaded.status().message();
        }
    }
    std::remove(path.c_str());
    std::remove(flip.c_str());
}

std::vector<char>
readFile(const std::string &path)
{
    std::vector<char> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    int c = 0;
    while ((c = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<char>(c));
    std::fclose(f);
    return bytes;
}

TEST(SnapshotFile, OlderVersionIsAParseErrorNamingIt)
{
    Snapshot snap;
    snap.meta.app = "atax";
    const std::string path = testing::TempDir() + "snap_v3.hccsnap";
    ASSERT_TRUE(writeSnapshotFile(path, snap).ok());
    {
        // The little-endian version word follows the 8-byte magic.
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
        const std::uint8_t v3[4] = {3, 0, 0, 0};
        ASSERT_EQ(std::fwrite(v3, 1, sizeof(v3), f), sizeof(v3));
        std::fclose(f);
    }
    const auto loaded = readSnapshotFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::ParseError);
    EXPECT_NE(loaded.status().message().find("version 3"),
              std::string::npos)
        << loaded.status().message();
    std::remove(path.c_str());
}

TEST(SnapshotFile, TheSameRunWritesTheSameBytes)
{
    // Two runs of one configuration, each captured at its auto cut
    // and written out: the files must be equal byte for byte, trace
    // section and digests included.
    const auto capture = [](const std::string &app,
                            const std::string &path) {
        const auto &w = workloads::WorkloadRegistry::instance().get(app);
        rt::SystemConfig sys;
        sys.cc = true;
        workloads::WorkloadParams params;
        rt::Context ctx(sys);
        const auto cuts =
            ForkPoint{ForkPoint::Mode::Auto, 0.0, {}}.resolvePath(w);
        w.runPrefix(ctx, params, cuts[0]);
        Snapshot snap;
        ctx.captureSnapshot(snap);
        snap.meta.app = app;
        EXPECT_TRUE(writeSnapshotFile(path, snap).ok());
        return readFile(path);
    };
    for (const std::string app : {"atax", "llm"}) {
        const std::string a = testing::TempDir() + "snap_det_a.hccsnap";
        const std::string b = testing::TempDir() + "snap_det_b.hccsnap";
        const auto first = capture(app, a);
        const auto second = capture(app, b);
        ASSERT_FALSE(first.empty()) << app;
        EXPECT_TRUE(first == second) << app;
        std::remove(a.c_str());
        std::remove(b.c_str());
    }
}

// ------------------------------------- the fork/replay property

/** Deterministic fingerprint of one run: the full stats dump (host.*
 *  excluded) plus the headline metric and critical-path facts.
 *  Split-mode results are light (no retained trace), so the metric
 *  accumulators and the critpath counters carry the comparison. */
std::string
fingerprint(const workloads::WorkloadResult &r)
{
    std::ostringstream os;
    os << "end_to_end=" << r.end_to_end
       << " launches=" << r.metrics.launches
       << " kernels=" << r.metrics.kernels
       << " klo_sum=" << r.metrics.sumKlo()
       << " kqt_sum=" << r.metrics.sumKqt()
       << " copy=" << r.metrics.copyTotal()
       << " sync=" << r.metrics.sync_time
       << " fault=" << r.metrics.fault_time
       << " on_path_ps=" << r.critical.on_path_ps
       << " on_path_events=" << r.critical.on_path_events
       << " bottleneck="
       << trace::bottleneckName(r.critical.bottleneck) << '\n';
    os << obs::statsJson(*r.stats, /*include_host=*/false);
    return os.str();
}

/**
 * The hard bar of the fork engine: a cell replayed from a snapshot
 * is indistinguishable from the same cell simulated from a cold
 * start.  Runs every registered workload under base and CC (and UVM
 * where supported), forks two identical cells from one prefix (the
 * second takes the first's result) and a third under another seed
 * (it restores over the first's replay), and requires each to match
 * the cold-split control exactly.
 */
TEST(ForkReplay, ForkedCellsMatchColdStartForEveryWorkload)
{
    const auto all = workloads::WorkloadRegistry::instance().all();
    ASSERT_FALSE(all.empty());
    std::size_t forked_workloads = 0;

    for (const auto *w : all) {
        ++forked_workloads;
        for (const bool cc : {false, true}) {
            for (const bool uvm : {false, true}) {
                if (uvm && !w->supportsUvm())
                    continue;

                ForkGroupSpec group;
                group.app = w->name();
                group.sys.cc = cc;
                group.sys.seed = 42;
                group.params.uvm = uvm;
                group.params.seed = 42;
                group.cells.resize(3); // fault-free cells
                group.cells[2].seed = 43;

                const ForkPoint auto_fp{ForkPoint::Mode::Auto, 0.0, {}};
                const auto cold = runForkGroup(group, auto_fp,
                                               /*no_snapshot=*/true);
                const auto fork = runForkGroup(group, auto_fp,
                                               /*no_snapshot=*/false);

                ASSERT_EQ(cold.cells.size(), 3u);
                ASSERT_EQ(fork.cells.size(), 3u);
                EXPECT_EQ(cold.snapshot_hits, 0u);
                EXPECT_EQ(fork.snapshot_hits, 3u);
                EXPECT_EQ(fork.reused_cells, 1u);

                const std::string tag = w->name()
                    + (cc ? "/cc" : "/base") + (uvm ? "/uvm" : "");
                for (std::size_t i = 0; i < 3; ++i) {
                    ASSERT_TRUE(cold.cells[i].ok)
                        << tag << ": " << cold.cells[i].error;
                    ASSERT_TRUE(fork.cells[i].ok)
                        << tag << ": " << fork.cells[i].error;
                    EXPECT_EQ(fingerprint(fork.cells[i].result),
                              fingerprint(cold.cells[i].result))
                        << tag << " cell " << i;
                }
                EXPECT_EQ(fingerprint(cold.cells[1].result),
                          fingerprint(cold.cells[0].result))
                    << tag;
            }
        }
    }
    // The suite must actually exercise the property.
    EXPECT_GT(forked_workloads, 0u);
}

/** Fractional fork points place the cut elsewhere but must preserve
 *  the identical-sequence contract. */
TEST(ForkReplay, FractionCutsProduceTheSameRun)
{
    ForkGroupSpec group;
    group.app = "gaussian";
    group.sys.cc = true;
    group.cells.resize(2);

    const auto base = runForkGroup(
        group, ForkPoint{ForkPoint::Mode::Auto, 0.0, {}}, true);
    ASSERT_TRUE(base.cells[0].ok) << base.cells[0].error;
    const std::string want = fingerprint(base.cells[0].result);

    for (const double f : {0.0, 0.3, 1.0}) {
        const auto got = runForkGroup(
            group, ForkPoint{ForkPoint::Mode::Fraction, f, {}}, false);
        ASSERT_TRUE(got.cells[0].ok)
            << "f=" << f << ": " << got.cells[0].error;
        EXPECT_EQ(fingerprint(got.cells[0].result), want)
            << "f=" << f;
    }
}

TEST(ForkReplay, FaultedSuffixDoesNotLeakIntoTheNextCell)
{
    ForkGroupSpec group;
    group.app = "gaussian";
    group.sys.cc = true;
    group.cells.resize(3);
    // Middle cell injects heavily; its neighbours run fault-free and
    // must be identical to each other.
    group.cells[1].faults.set(fault::Site::PcieReplay, 0.9);

    const auto out = runForkGroup(
        group, ForkPoint{ForkPoint::Mode::Auto, 0.0, {}}, false);
    ASSERT_TRUE(out.cells[0].ok);
    ASSERT_TRUE(out.cells[1].ok);
    ASSERT_TRUE(out.cells[2].ok);
    EXPECT_EQ(fingerprint(out.cells[0].result),
              fingerprint(out.cells[2].result));
    EXPECT_NE(fingerprint(out.cells[0].result),
              fingerprint(out.cells[1].result));
}

// ---------------------------------------- cross-seed prefix sharing

/** The reseed-at-fork contract, stated on the Context itself: after
 *  reseedAtFork(s) every seed-derived stream sits exactly where a
 *  Context freshly constructed with s would start, so the two
 *  snapshots agree byte for byte, section by section. */
TEST(ReseedAtFork, MatchesFreshConstructionByteForByte)
{
    rt::SystemConfig fresh_sys;
    fresh_sys.seed = 111;
    rt::Context fresh(fresh_sys);
    Snapshot want;
    fresh.captureSnapshot(want);

    rt::SystemConfig other_sys;
    other_sys.seed = 222;
    rt::Context reseeded(other_sys);
    reseeded.reseedAtFork(111);
    Snapshot got;
    reseeded.captureSnapshot(got);

    ASSERT_EQ(got.sections.size(), want.sections.size());
    for (std::size_t i = 0; i < want.sections.size(); ++i) {
        EXPECT_EQ(got.sections[i].name, want.sections[i].name);
        EXPECT_TRUE(got.sections[i].bytes == want.sections[i].bytes)
            << "section " << want.sections[i].name << " diverged";
    }
}

TEST(ReseedAtFork, DistinctSeedsStillDiverge)
{
    rt::SystemConfig sys;
    sys.seed = 111;
    rt::Context a(sys), b(sys);
    a.reseedAtFork(5);
    b.reseedAtFork(6);
    Snapshot sa, sb;
    a.captureSnapshot(sa);
    b.captureSnapshot(sb);
    ASSERT_EQ(sa.sections.size(), sb.sections.size());
    bool all_equal = true;
    for (std::size_t i = 0; i < sa.sections.size(); ++i)
        all_equal = all_equal
            && sa.sections[i].bytes == sb.sections[i].bytes;
    EXPECT_FALSE(all_equal)
        << "reseeding to different seeds must derive different streams";
}

/** Regression: armFaults() mutates the Context's config, and
 *  reseedAtFork() re-arms the injector from it.  A restore must
 *  rewind that mutable config slice too, or a reseed after the
 *  restore re-arms the previously armed rates into state that a
 *  fresh construction would never hold. */
TEST(ReseedAtFork, RestoreRewindsArmedFaultConfig)
{
    rt::SystemConfig sys;
    sys.seed = 111;
    rt::Context fresh(sys);
    fresh.reseedAtFork(77);
    Snapshot want;
    fresh.captureSnapshot(want);

    rt::Context ctx(sys);
    Snapshot unarmed;
    ctx.captureSnapshot(unarmed);
    fault::FaultConfig armed;
    armed.set(fault::Site::SpecMiss, 0.6);
    ctx.armFaults(armed);
    ctx.restoreSnapshot(unarmed);
    ctx.reseedAtFork(77);
    Snapshot got;
    ctx.captureSnapshot(got);

    ASSERT_EQ(got.sections.size(), want.sections.size());
    for (std::size_t i = 0; i < want.sections.size(); ++i) {
        EXPECT_EQ(got.sections[i].name, want.sections[i].name);
        EXPECT_TRUE(got.sections[i].bytes == want.sections[i].bytes)
            << "section " << want.sections[i].name
            << " kept the stale armed rates across the restore";
    }
}

/** Whether @p a and @p b hold the same sections, byte for byte. */
bool
sameSections(const Snapshot &a, const Snapshot &b)
{
    if (a.sections.size() != b.sections.size())
        return false;
    for (std::size_t i = 0; i < a.sections.size(); ++i)
        if (a.sections[i].name != b.sections[i].name
            || a.sections[i].bytes != b.sections[i].bytes)
            return false;
    return true;
}

/** The FatalError text of restoring @p snap on @p ctx ("" if none). */
std::string
restoreError(rt::Context &ctx, const Snapshot &snap)
{
    try {
        ctx.restoreSnapshot(snap);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** A capture without its trace section restores only where the trace
 *  rewinds by truncation.  Anywhere else the restore names the
 *  missing section and leaves the Context as it was. */
TEST(TraceLessCapture, RestoresOnlyByTruncation)
{
    const auto &w = workloads::WorkloadRegistry::instance().get("gaussian");
    rt::SystemConfig sys;
    sys.cc = true;
    const workloads::WorkloadParams params;
    rt::Context ctx(sys);
    const auto resume = w.runPrefix(ctx, params, 0.5);
    Snapshot bare, full;
    ctx.captureSnapshot(bare, /*with_trace=*/false);
    ctx.captureSnapshot(full);
    EXPECT_EQ(bare.find("trace"), nullptr);
    ASSERT_NE(full.find("trace"), nullptr);
    EXPECT_EQ(bare.totalBytes() + full.find("trace")->bytes.size(),
              full.totalBytes());

    // On the capturing Context it rewinds a replayed suffix.
    w.runSuffix(ctx, params, *resume);
    ctx.restoreSnapshot(bare);
    Snapshot again;
    ctx.captureSnapshot(again);
    EXPECT_TRUE(sameSections(again, full));

    // A fresh Context has no mark to truncate to.
    rt::Context fresh(sys);
    Snapshot fresh_before, fresh_after;
    fresh.captureSnapshot(fresh_before);
    EXPECT_NE(restoreError(fresh, bare).find("'trace'"),
              std::string::npos);
    fresh.captureSnapshot(fresh_after);
    EXPECT_TRUE(sameSections(fresh_after, fresh_before));

    // Loading another Context's trace bytes drops every mark.
    rt::Context twin(sys);
    w.runPrefix(twin, params, 0.5);
    Snapshot twin_full;
    twin.captureSnapshot(twin_full);
    EXPECT_EQ(restoreError(ctx, twin_full), "");
    Snapshot before, after;
    ctx.captureSnapshot(before);
    EXPECT_TRUE(sameSections(before, full));
    EXPECT_NE(restoreError(ctx, bare).find("'trace'"),
              std::string::npos);
    ctx.captureSnapshot(after);
    EXPECT_TRUE(sameSections(after, before));
}

TEST(IdentitySeed, IgnoresSeedsButNotIdentity)
{
    ForkGroupSpec g;
    g.app = "gaussian";
    g.sys.cc = true;
    g.sys.seed = 1;
    g.params.seed = 1;
    const auto a = identitySeed(g.app, g.sys, g.params);
    g.sys.seed = 99;
    g.params.seed = 99;
    EXPECT_EQ(identitySeed(g.app, g.sys, g.params), a)
        << "per-cell seeds must not reach the identity hash";
    g.params.scale = 2.0;
    EXPECT_NE(identitySeed(g.app, g.sys, g.params), a);
    g.params.scale = 1.0;
    g.app = "atax";
    EXPECT_NE(identitySeed(g.app, g.sys, g.params), a);
}

/** Cross-seed sharing: one identity-seeded prefix serves cells with
 *  different seeds, and the cold control replaying the same
 *  derivation matches byte for byte. */
TEST(ForkReplay, CrossSeedGroupMatchesColdControl)
{
    ForkGroupSpec group;
    group.app = "gaussian";
    group.sys.cc = true;
    const std::uint64_t ident =
        identitySeed(group.app, group.sys, group.params);
    group.sys.seed = ident;
    group.params.seed = ident;
    group.cells.resize(3);
    group.cells[0].seed = 7;
    group.cells[1].seed = 9;
    group.cells[2].seed = 7;

    const ForkPoint fp{ForkPoint::Mode::Auto, 0.0, {}};
    const auto cold = runForkGroup(group, fp, /*no_snapshot=*/true);
    const auto fork = runForkGroup(group, fp, /*no_snapshot=*/false);
    ASSERT_EQ(cold.cells.size(), 3u);
    ASSERT_EQ(fork.cells.size(), 3u);
    EXPECT_EQ(fork.snapshot_hits, 3u)
        << "distinct seeds share one prefix now";
    EXPECT_GT(fork.peak_resident_bytes, 0u);
    EXPECT_EQ(cold.peak_resident_bytes, 0u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(cold.cells[i].ok) << cold.cells[i].error;
        ASSERT_TRUE(fork.cells[i].ok) << fork.cells[i].error;
        EXPECT_EQ(fingerprint(fork.cells[i].result),
                  fingerprint(cold.cells[i].result))
            << "cell " << i;
    }
    // Equal seeds agree; different seeds are a genuinely different
    // run — the reseed must not collapse the seed axis.
    EXPECT_EQ(fingerprint(fork.cells[0].result),
              fingerprint(fork.cells[2].result));
    EXPECT_NE(fingerprint(fork.cells[0].result),
              fingerprint(fork.cells[1].result));
}

/** Regression: a faulted cell runs before the next seed's segments,
 *  on the one shared Context.  The later seed's segments must not
 *  inherit the cell's armed rates through the reseed (speculative
 *  tier: a stale spec.miss rate injects misses into the shared
 *  segment and shifts every cell of that seed). */
TEST(ForkReplay, FaultedLeafDoesNotLeakIntoSiblingSeedNode)
{
    ForkGroupSpec group;
    group.app = "llm";
    group.sys.cc = true;
    group.sys.channel.overlap = tee::OverlapMode::Speculative;
    const std::uint64_t ident =
        identitySeed(group.app, group.sys, group.params);
    group.sys.seed = ident;
    group.params.seed = ident;
    group.cells.resize(3);
    // Seed 12's cell arms spec.miss; seed 13's segment runs right
    // after it on the same Context, and is long enough to seal so
    // many chunks that a leaked rate is certain to inject.
    group.cells[0].seed = 12;
    group.cells[0].faults.set(fault::Site::SpecMiss, 0.24);
    group.cells[1].seed = 13;
    group.cells[2].seed = 13;
    group.cells[2].faults.set(fault::Site::PcieReplay, 0.5);

    const ForkPoint chained{ForkPoint::Mode::Auto, 0.0, {0.99}};
    const auto cold = runForkGroup(group, chained, true);
    const auto fork = runForkGroup(group, chained, false);
    ASSERT_EQ(fork.cells.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(cold.cells[i].ok) << cold.cells[i].error;
        ASSERT_TRUE(fork.cells[i].ok) << fork.cells[i].error;
        EXPECT_EQ(fingerprint(fork.cells[i].result),
                  fingerprint(cold.cells[i].result))
            << "cell " << i;
    }
}

/** Forked-from-forked equals cold.  Chained fork points build a
 *  two-level snapshot tree (prefix -> per-seed capture -> cell);
 *  every workload under CC (and UVM where supported), every overlap
 *  tier and both a two- and a three-cut path must replay from it
 *  byte-identically to the cold-split control. */
TEST(ForkReplay, ChainedForksMatchColdForEveryWorkloadAndTier)
{
    const auto all = workloads::WorkloadRegistry::instance().all();
    ASSERT_FALSE(all.empty());
    const ForkPoint paths[] = {
        {ForkPoint::Mode::Auto, 0.0, {0.95}},
        {ForkPoint::Mode::Fraction, 0.5, {0.8, 0.9}},
    };
    std::size_t exercised = 0;

    for (const auto *w : all) {
        for (const ForkPoint &chained : paths) {
            for (const tee::OverlapMode tier :
                 {tee::OverlapMode::None, tee::OverlapMode::DoubleBuffer,
                  tee::OverlapMode::Speculative}) {
                for (const bool uvm : {false, true}) {
                    if (uvm && !w->supportsUvm())
                        continue;
                    ForkGroupSpec group;
                    group.app = w->name();
                    group.sys.cc = true;
                    group.sys.channel.overlap = tier;
                    group.params.uvm = uvm;
                    const std::uint64_t ident = identitySeed(
                        group.app, group.sys, group.params);
                    group.sys.seed = ident;
                    group.params.seed = ident;
                    group.cells.resize(2);
                    group.cells[0].seed = 5;
                    group.cells[1].seed = 6;

                    const auto cold =
                        runForkGroup(group, chained, true);
                    const auto fork =
                        runForkGroup(group, chained, false);
                    const std::string tag = w->name() + "/"
                        + chained.str() + "/"
                        + tee::overlapModeName(tier)
                        + (uvm ? "/uvm" : "");
                    ASSERT_EQ(fork.cells.size(), 2u) << tag;
                    EXPECT_EQ(fork.snapshot_hits, 2u) << tag;
                    for (std::size_t i = 0; i < 2; ++i) {
                        ASSERT_TRUE(cold.cells[i].ok)
                            << tag << ": " << cold.cells[i].error;
                        ASSERT_TRUE(fork.cells[i].ok)
                            << tag << ": " << fork.cells[i].error;
                        EXPECT_EQ(fingerprint(fork.cells[i].result),
                                  fingerprint(cold.cells[i].result))
                            << tag << " cell " << i;
                    }
                    ++exercised;
                }
            }
        }
    }
    EXPECT_GT(exercised, 0u);
}

/** A cut between the first and the last adds no capture: each seed
 *  runs its segments straight through to the last cut, so
 *  "0.5/0.8/0.9" replays the same cells from the same two captures
 *  as "0.5/0.9", and matches the cold-split control. */
TEST(ForkReplay, IntermediateCutsAddNoCapture)
{
    ForkGroupSpec group;
    group.app = "gaussian";
    group.sys.cc = true;
    const std::uint64_t ident =
        identitySeed(group.app, group.sys, group.params);
    group.sys.seed = ident;
    group.params.seed = ident;
    group.cells.resize(3);
    group.cells[0].seed = 3;
    group.cells[1].seed = 3;
    group.cells[1].faults.set(fault::Site::PcieReplay, 0.5);
    group.cells[2].seed = 4;

    const ForkPoint two{ForkPoint::Mode::Fraction, 0.5, {0.9}};
    const ForkPoint three{ForkPoint::Mode::Fraction, 0.5, {0.8, 0.9}};
    const auto a = runForkGroup(group, two, false);
    const auto b = runForkGroup(group, three, false);
    const auto cold = runForkGroup(group, three, true);
    ASSERT_EQ(b.cells.size(), 3u);
    EXPECT_EQ(b.snapshot_hits, 3u);
    EXPECT_GT(a.peak_resident_bytes, 0u);
    EXPECT_EQ(b.peak_resident_bytes, a.peak_resident_bytes);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(a.cells[i].ok) << a.cells[i].error;
        ASSERT_TRUE(b.cells[i].ok) << b.cells[i].error;
        ASSERT_TRUE(cold.cells[i].ok) << cold.cells[i].error;
        EXPECT_EQ(fingerprint(b.cells[i].result),
                  fingerprint(a.cells[i].result))
            << "cell " << i;
        EXPECT_EQ(fingerprint(b.cells[i].result),
                  fingerprint(cold.cells[i].result))
            << "cell " << i;
    }
}

// ----------------------------------------- campaign + sweep wiring

TEST(ForkCampaign, ForkAndColdCampaignsAreIdentical)
{
    fault::CampaignSpec spec;
    spec.app = "gaussian";
    spec.sites = {fault::Site::PcieReplay,
                  fault::Site::ChannelTagMismatch};
    spec.rates = {0.5};
    spec.seeds = {1, 2};
    spec.fork_point = {ForkPoint::Mode::Auto, 0.0, {}};

    spec.no_snapshot = false;
    const auto fork = fault::runFaultCampaign(spec, 1);
    spec.no_snapshot = true;
    const auto cold = fault::runFaultCampaign(spec, 2);

    ASSERT_EQ(fork.cells.size(), cold.cells.size());
    EXPECT_GT(fork.snapshot_hits, 0u);
    EXPECT_EQ(cold.snapshot_hits, 0u);
    for (std::size_t i = 0; i < fork.cells.size(); ++i) {
        ASSERT_TRUE(fork.cells[i].ok) << fork.cells[i].error;
        ASSERT_TRUE(cold.cells[i].ok) << cold.cells[i].error;
        EXPECT_EQ(fingerprint(fork.cells[i].result),
                  fingerprint(cold.cells[i].result))
            << "cell " << i;
    }
}

/** Regression: two pcie.replay cells in one fork group.  The first
 *  cell lazily creates pcie.link.replay_bytes_* and the next cell's
 *  restore erases that post-capture entry — the link (and likewise
 *  the channel's pipeline counters) must drop its cached handle at
 *  restore instead of writing through it on the next replay. */
TEST(ForkCampaign, LazyReplayCountersSurviveRepeatedRestores)
{
    fault::CampaignSpec spec;
    spec.app = "gaussian";
    spec.sites = {fault::Site::PcieReplay};
    spec.rates = {0.25, 0.5, 0.9};
    spec.seeds = {41};
    spec.fork_point = {ForkPoint::Mode::Auto, 0.0, {}};

    spec.no_snapshot = false;
    const auto fork = fault::runFaultCampaign(spec, 1);
    spec.no_snapshot = true;
    const auto cold = fault::runFaultCampaign(spec, 1);
    ASSERT_EQ(fork.cells.size(), 4u); // baseline + three rates
    EXPECT_GT(fork.snapshot_hits, 0u);
    for (std::size_t i = 0; i < fork.cells.size(); ++i) {
        ASSERT_TRUE(fork.cells[i].ok) << fork.cells[i].error;
        ASSERT_TRUE(cold.cells[i].ok) << cold.cells[i].error;
        EXPECT_EQ(fingerprint(fork.cells[i].result),
                  fingerprint(cold.cells[i].result))
            << "cell " << i;
    }
}

TEST(ForkCampaign, DefaultForkPointKeepsLegacyArming)
{
    // spdm.handshake fires during Context construction — before any
    // fork point — so only construction-time arming (the default)
    // can make it fail a cell.  This pins the legacy default.
    fault::CampaignSpec spec;
    spec.app = "gaussian";
    spec.sites = {fault::Site::SpdmHandshake};
    spec.rates = {1.0};
    spec.seeds = {42};
    const auto out = fault::runFaultCampaign(spec, 1);
    ASSERT_EQ(out.cells.size(), 2u); // baseline + faulted
    EXPECT_EQ(out.snapshot_hits, 0u);
    EXPECT_TRUE(out.cells[0].ok);
    EXPECT_FALSE(out.cells[1].ok);
}

/** Legacy cells return the light result of the split modes: their
 *  trace is analyzed in place and not kept. */
TEST(ForkCampaign, LegacyCellsKeepNoTrace)
{
    fault::CampaignSpec spec;
    spec.app = "gaussian";
    spec.sites = {fault::Site::PcieReplay};
    spec.rates = {0.5};
    spec.seeds = {42};
    ASSERT_EQ(spec.fork_point.mode, ForkPoint::Mode::None);
    const auto out = fault::runFaultCampaign(spec, 1);
    ASSERT_EQ(out.cells.size(), 2u); // baseline + faulted
    for (const auto &cell : out.cells) {
        ASSERT_TRUE(cell.ok) << cell.error;
        EXPECT_TRUE(cell.result.trace.empty()) << cell.cell.index;
        EXPECT_GT(cell.result.end_to_end, 0);
    }
}

/** The overlap axis joins the byte-identity contract: a grid that
 *  spins all three pipeline tiers must merge to the same bytes
 *  whether cells replay from snapshots or cold-start. */
TEST(ForkSweep, OverlapAxisForkMatchesColdStart)
{
    sweep::GridSpec grid;
    grid.apps = {"gaussian"};
    grid.cc_modes = {true};
    grid.overlaps = {tee::OverlapMode::None,
                     tee::OverlapMode::DoubleBuffer,
                     tee::OverlapMode::Speculative};

    auto merged = [](const sweep::SweepResult &r) {
        std::ostringstream oss;
        sweep::writeMergedStats(r, oss);
        return oss.str();
    };

    grid.no_snapshot = true;
    const auto cold = sweep::runSweep(grid, 1);
    grid.no_snapshot = false;
    const auto fork = sweep::runSweep(grid, 4);
    ASSERT_EQ(cold.cells.size(), 3u);
    ASSERT_EQ(fork.cells.size(), 3u);
    for (const auto &cell : cold.cells)
        ASSERT_TRUE(cell.ok) << cell.error;
    for (const auto &cell : fork.cells)
        ASSERT_TRUE(cell.ok) << cell.error;
    EXPECT_EQ(merged(cold), merged(fork));
    // The tiers really differ: a shared snapshot must not collapse
    // the pipeline timing into one answer.
    const auto e2e = [](const sweep::SweepResult &r, std::size_t i) {
        return r.cells[i].result.end_to_end;
    };
    EXPECT_LT(e2e(fork, 2), e2e(fork, 0))
        << "speculative beats serial even under fork/replay";
    EXPECT_EQ(e2e(fork, 0), e2e(cold, 0));
    EXPECT_EQ(e2e(fork, 2), e2e(cold, 2));
}

TEST(ForkSweep, DuplicateCellsReplayFromOneSnapshot)
{
    sweep::GridSpec grid;
    grid.apps = {"gaussian"};
    grid.cc_modes = {true};
    grid.seeds = {7, 7, 7};

    const auto result = sweep::runSweep(grid, 1);
    ASSERT_EQ(result.cells.size(), 3u);
    EXPECT_EQ(result.snapshot_hits, 3u);
    for (const auto &cell : result.cells)
        ASSERT_TRUE(cell.ok) << cell.error;
    const std::string want = fingerprint(result.cells[0].result);
    EXPECT_EQ(fingerprint(result.cells[1].result), want);
    EXPECT_EQ(fingerprint(result.cells[2].result), want);

    // The unique-cell grid takes the cold path: no hits, same rows.
    grid.seeds = {7};
    const auto solo = sweep::runSweep(grid, 1);
    EXPECT_EQ(solo.snapshot_hits, 0u);
    ASSERT_TRUE(solo.cells[0].ok);
    EXPECT_EQ(fingerprint(solo.cells[0].result), want);
}

// ------------------------------------- reuse of the unfaulted result

/** Injections a cell's registry counted, over every site. */
std::uint64_t
injectedCount(const obs::Registry &reg)
{
    std::uint64_t n = 0;
    for (const fault::Site site : fault::allSites())
        n += reg.counterValue(std::string("fault.") + fault::siteName(site)
                              + ".injected");
    return n;
}

/** A cell armed with @p site at @p rate, under @p seed. */
ForkCell
armedCell(std::uint64_t seed, fault::Site site, double rate)
{
    ForkCell cell;
    cell.seed = seed;
    cell.faults.set(site, rate);
    return cell;
}

/**
 * Reuse is exact: in a group that mixes unfaulted cells, cells whose
 * faults never fire and cells whose faults do, ahead of and behind
 * their seed's unfaulted cell, fork mode matches the cold-split
 * control cell for cell, single-cut and chained.  A faulted cell
 * shares its unfaulted sibling's registry exactly when its cold
 * replay injects nothing.
 */
TEST(ForkReuse, MixedGroupMatchesColdAndSharesTheSiblingRegistry)
{
    using fault::Site;
    ForkGroupSpec group;
    group.app = "gaussian";
    group.sys.cc = true;
    group.sys.channel.overlap = tee::OverlapMode::Speculative;
    const std::uint64_t ident =
        identitySeed(group.app, group.sys, group.params);
    group.sys.seed = ident;
    group.params.seed = ident;
    ForkCell base3, base4;
    base3.seed = 3;
    base4.seed = 4;
    group.cells = {
        armedCell(3, Site::PcieReplay, 1.0),
        base3,
        armedCell(4, Site::SpdmHandshake, 1.0), // no suffix trial
        armedCell(3, Site::ChannelTagMismatch, 0.5),
        armedCell(3, Site::UvmThrash, 1.0),     // not a UVM run
        base4,
        armedCell(4, Site::SpecMiss, 0.5),
        base3,
        armedCell(4, Site::TdxEptStorm, 0.001),
    };
    const std::size_t base_of[] = {1, 1, 5, 1, 1, 5, 5, 1, 5};

    const ForkPoint paths[] = {
        {ForkPoint::Mode::Auto, 0.0, {}},
        {ForkPoint::Mode::Fraction, 0.5, {0.9}},
    };
    for (const ForkPoint &fp : paths) {
        const auto cold = runForkGroup(group, fp, /*no_snapshot=*/true);
        const auto fork = runForkGroup(group, fp, /*no_snapshot=*/false);
        EXPECT_EQ(cold.reused_cells, 0u);
        std::size_t shared = 0, replayed_faulted = 0;
        for (std::size_t i = 0; i < group.cells.size(); ++i) {
            const std::string tag = fp.str() + " cell " + std::to_string(i);
            ASSERT_TRUE(cold.cells[i].ok)
                << tag << ": " << cold.cells[i].error;
            ASSERT_TRUE(fork.cells[i].ok)
                << tag << ": " << fork.cells[i].error;
            EXPECT_EQ(fingerprint(fork.cells[i].result),
                      fingerprint(cold.cells[i].result))
                << tag;
            if (i == base_of[i])
                continue;
            const bool shares = fork.cells[i].result.stats
                == fork.cells[base_of[i]].result.stats;
            shared += shares;
            const bool faulted = group.cells[i].faults.any();
            if (faulted) {
                EXPECT_EQ(shares,
                          injectedCount(*cold.cells[i].result.stats) == 0)
                    << tag;
                replayed_faulted += !shares;
            } else {
                EXPECT_TRUE(shares) << tag;
            }
        }
        EXPECT_EQ(shared, fork.reused_cells) << fp.str();
        EXPECT_GE(fork.reused_cells, 1u) << fp.str();
        EXPECT_GE(replayed_faulted, 1u) << fp.str();
        EXPECT_EQ(fork.snapshot_hits, group.cells.size())
            << "reused cells still count as snapshot hits";
    }
}

/** Fork captures carry no trace section.  On llm's `auto/0.99` path,
 *  the group's two resident captures together stay below the trace
 *  section alone of a default capture at the 0.99 cut, and each cell,
 *  firing or reused, still equals its cold-split run. */
TEST(ForkReuse, ChainedCapturesHoldNoTrace)
{
    using fault::Site;
    ForkGroupSpec group;
    group.app = "llm";
    group.sys.cc = true;
    const std::uint64_t ident =
        identitySeed(group.app, group.sys, group.params);
    group.sys.seed = ident;
    group.params.seed = ident;
    ForkCell base7, base8;
    base7.seed = 7;
    base8.seed = 8;
    // At 0.99 llm's suffix makes EPT-storm trials but no SPDM
    // handshake: the first armed cell fires, the second is reused.
    group.cells = {base7, armedCell(7, Site::TdxEptStorm, 1.0), base8,
                   armedCell(8, Site::SpdmHandshake, 1.0)};

    const ForkPoint fp{ForkPoint::Mode::Auto, 0.0, {0.99}};
    const auto cold = runForkGroup(group, fp, /*no_snapshot=*/true);
    const auto fork = runForkGroup(group, fp, /*no_snapshot=*/false);
    EXPECT_EQ(fork.reused_cells, 1u);
    for (std::size_t i = 0; i < group.cells.size(); ++i) {
        ASSERT_TRUE(cold.cells[i].ok) << cold.cells[i].error;
        ASSERT_TRUE(fork.cells[i].ok) << fork.cells[i].error;
        EXPECT_EQ(fingerprint(fork.cells[i].result),
                  fingerprint(cold.cells[i].result))
            << "cell " << i;
    }
    EXPECT_GT(injectedCount(*fork.cells[1].result.stats), 0u);
    EXPECT_EQ(fork.cells[3].result.stats, fork.cells[2].result.stats);

    const auto &w = workloads::WorkloadRegistry::instance().get("llm");
    rt::Context ctx(group.sys);
    w.runPrefix(ctx, group.params, 0.99);
    Snapshot full;
    ctx.captureSnapshot(full);
    ASSERT_NE(full.find("trace"), nullptr);
    EXPECT_GT(fork.peak_resident_bytes, 0u);
    EXPECT_LT(fork.peak_resident_bytes, full.find("trace")->bytes.size());
}

/**
 * gaussian, except that an unfaulted suffix under kSeed throws: the
 * one way to fail a seed's unfaulted cell while its faulted siblings
 * run.  Under any other seed it is gaussian.
 */
class UnfaultedSuffixFails final : public workloads::Workload
{
  public:
    static constexpr std::uint64_t kSeed = 0xfa11;

    explicit UnfaultedSuffixFails(const workloads::Workload &base)
        : base_(base)
    {}

    std::string name() const override { return "gaussian.unfaulted_fails"; }
    std::string suite() const override { return base_.suite(); }
    bool supportsUvm() const override { return base_.supportsUvm(); }
    double
    defaultForkPoint() const override
    {
        return base_.defaultForkPoint();
    }

    std::unique_ptr<Resume>
    runPrefix(rt::Context &ctx, const workloads::WorkloadParams &params,
              double fraction) const override
    {
        return base_.runPrefix(ctx, params, fraction);
    }

    void
    runSuffix(rt::Context &ctx, const workloads::WorkloadParams &params,
              const Resume &resume) const override
    {
        if (params.seed == kSeed && !ctx.faultInjector().config().any())
            fatal("unfaulted suffix refused");
        base_.runSuffix(ctx, params, resume);
    }

    std::unique_ptr<Resume>
    runSegment(rt::Context &ctx, const workloads::WorkloadParams &params,
               const Resume &from, double to_fraction) const override
    {
        return base_.runSegment(ctx, params, from, to_fraction);
    }

    std::unique_ptr<Resume>
    reseedResume(const Resume &resume,
                 const workloads::WorkloadParams &params) const override
    {
        return base_.reseedResume(resume, params);
    }

  private:
    const workloads::Workload &base_;
};

/** Register UnfaultedSuffixFails once; @return its app name. */
const std::string &
unfaultedFailsApp()
{
    static const std::string name = [] {
        auto &registry = workloads::WorkloadRegistry::instance();
        auto w = std::make_unique<UnfaultedSuffixFails>(
            registry.get("gaussian"));
        std::string n = w->name();
        registry.add(std::move(w));
        return n;
    }();
    return name;
}

/** Without a successful unfaulted cell there are no trial counts to
 *  judge by, so every cell of the seed replays. */
TEST(ForkReuse, SeedsWithoutAGoodUnfaultedCellReplayEveryCell)
{
    using fault::Site;
    const ForkPoint fp{ForkPoint::Mode::Auto, 0.0, {}};

    // No unfaulted cell: two cells that would never fire.
    ForkGroupSpec none;
    none.app = "gaussian";
    none.sys.cc = true;
    none.cells.resize(2);
    none.cells[0].faults.set(Site::SpdmHandshake, 1.0);
    none.cells[1].faults.set(Site::UvmThrash, 1.0);
    const auto cold = runForkGroup(none, fp, /*no_snapshot=*/true);
    const auto fork = runForkGroup(none, fp, /*no_snapshot=*/false);
    EXPECT_EQ(fork.reused_cells, 0u);
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(fork.cells[i].ok) << fork.cells[i].error;
        EXPECT_EQ(fingerprint(fork.cells[i].result),
                  fingerprint(cold.cells[i].result))
            << "cell " << i;
    }
    EXPECT_NE(fork.cells[0].result.stats, fork.cells[1].result.stats);

    // The unfaulted cell fails: its siblings replay and succeed
    // rather than take its failure.
    ForkGroupSpec failing;
    failing.app = unfaultedFailsApp();
    failing.sys.cc = true;
    failing.sys.seed = UnfaultedSuffixFails::kSeed;
    failing.params.seed = UnfaultedSuffixFails::kSeed;
    failing.cells.resize(3);
    failing.cells[1].faults.set(Site::SpdmHandshake, 1.0);
    failing.cells[2].faults.set(Site::UvmThrash, 1.0);
    const auto cold_f = runForkGroup(failing, fp, /*no_snapshot=*/true);
    const auto fork_f = runForkGroup(failing, fp, /*no_snapshot=*/false);
    EXPECT_EQ(fork_f.reused_cells, 0u);
    EXPECT_FALSE(fork_f.cells[0].ok);
    EXPECT_EQ(fork_f.cells[0].error, cold_f.cells[0].error);
    EXPECT_NE(fork_f.cells[0].error.find("unfaulted suffix refused"),
              std::string::npos);
    for (std::size_t i = 1; i < 3; ++i) {
        ASSERT_TRUE(fork_f.cells[i].ok) << fork_f.cells[i].error;
        ASSERT_TRUE(cold_f.cells[i].ok) << cold_f.cells[i].error;
        EXPECT_EQ(fingerprint(fork_f.cells[i].result),
                  fingerprint(cold_f.cells[i].result))
            << "cell " << i;
    }
}

} // namespace
} // namespace hcc::snap
