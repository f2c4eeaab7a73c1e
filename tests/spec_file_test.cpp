/**
 * @file
 * Tests for the user workload spec-file format: literal parsing,
 * full-document parsing, error reporting, and end-to-end execution
 * of a parsed spec.
 */

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "workloads/spec_file.hpp"
#include "workloads/workload.hpp"

namespace hcc::workloads {
namespace {

// -------------------------------------------------------- literals

TEST(SpecLiterals, Sizes)
{
    EXPECT_EQ(parseSize("0"), 0u);
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize("512B"), 512u);
    EXPECT_EQ(parseSize("4KiB"), 4096u);
    EXPECT_EQ(parseSize("2MiB"), size::mib(2));
    EXPECT_EQ(parseSize("1GiB"), size::gib(1));
    EXPECT_EQ(parseSize("1.5MiB"), size::mib(1.5));
    EXPECT_EQ(parseSize("8M"), size::mib(8));
}

TEST(SpecLiterals, SizeErrors)
{
    EXPECT_THROW(parseSize("abc"), FatalError);
    EXPECT_THROW(parseSize("12XB"), FatalError);
    EXPECT_THROW(parseSize("-4KiB"), FatalError);
}

TEST(SpecLiterals, Durations)
{
    EXPECT_EQ(parseDuration("5ns"), time::ns(5));
    EXPECT_EQ(parseDuration("45us"), time::us(45));
    EXPECT_EQ(parseDuration("2ms"), time::ms(2));
    EXPECT_EQ(parseDuration("1.5s"), time::sec(1.5));
}

TEST(SpecLiterals, DurationErrors)
{
    EXPECT_THROW(parseDuration("45"), FatalError)
        << "unit is mandatory";
    EXPECT_THROW(parseDuration("45min"), FatalError);
    EXPECT_THROW(parseDuration("fast"), FatalError);
}

// -------------------------------------------------------- documents

const char *kGood = R"(
# a complete example
name test_app
suite my_suite
pinned_host yes
input 64MiB
input 256KiB
output 8MiB
d2d 4MiB
scratch 16MiB
uvm_touch 64MiB
phase stencil_k 120 45us 0.1
phase reduce_k 12 8us 0.15 4KiB
phase final_k 1 2ms 0.05 0 6MiB
)";

TEST(SpecParse, FullDocument)
{
    const auto spec = parseSpecText(kGood).take();
    EXPECT_EQ(spec.name, "test_app");
    EXPECT_EQ(spec.suite, "my_suite");
    EXPECT_TRUE(spec.pinned_host);
    ASSERT_EQ(spec.inputs.size(), 2u);
    EXPECT_EQ(spec.inputs[0], size::mib(64));
    EXPECT_EQ(spec.inputs[1], size::kib(256));
    ASSERT_EQ(spec.outputs.size(), 1u);
    ASSERT_EQ(spec.d2d_copies.size(), 1u);
    EXPECT_EQ(spec.scratch, size::mib(16));
    EXPECT_EQ(spec.uvm_touch_override, size::mib(64));
    ASSERT_EQ(spec.phases.size(), 3u);
    EXPECT_EQ(spec.phases[0].kernel, "stencil_k");
    EXPECT_EQ(spec.phases[0].launches, 120);
    EXPECT_EQ(spec.phases[0].ket, time::us(45));
    EXPECT_DOUBLE_EQ(spec.phases[0].jitter_sigma, 0.1);
    EXPECT_EQ(spec.phases[1].d2h_per_iter, size::kib(4));
    EXPECT_EQ(spec.phases[2].module_bytes, size::mib(6));
}

TEST(SpecParse, CommentsAndBlanksIgnored)
{
    const auto spec = parseSpecText(
        "# header\n\nname x\n  # indented comment\n"
        "phase k 1 1us  # trailing comment\n").take();
    EXPECT_EQ(spec.name, "x");
    ASSERT_EQ(spec.phases.size(), 1u);
}

TEST(SpecParse, DefaultsApplied)
{
    const auto spec =
        parseSpecText("name d\nphase k 2 5us\n").take();
    EXPECT_EQ(spec.suite, "custom");
    EXPECT_FALSE(spec.pinned_host);
    EXPECT_TRUE(spec.uvm_capable);
    EXPECT_DOUBLE_EQ(spec.phases[0].jitter_sigma, 0.08);
    EXPECT_EQ(spec.phases[0].module_bytes, 0u);
}

TEST(SpecParse, Errors)
{
    const auto bad = parseSpecText("");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::ParseError);
    EXPECT_FALSE(parseSpecText("phase k 1 1us\n").ok())
        << "missing name";
    EXPECT_FALSE(parseSpecText("name x\n").ok())
        << "missing phases";
    const auto unknown =
        parseSpecText("name x\nbogus 1\nphase k 1 1us\n");
    EXPECT_FALSE(unknown.ok()) << "unknown key";
    EXPECT_NE(unknown.status().message().find("bogus"),
              std::string::npos)
        << "error message names the offending key";
    EXPECT_FALSE(parseSpecText("name x\nphase k 0 1us\n").ok())
        << "zero launches";
    EXPECT_FALSE(parseSpecText("name x\nphase k\n").ok())
        << "truncated phase";
    EXPECT_FALSE(parseSpecText("name x\npinned_host maybe\n"
                               "phase k 1 1us\n").ok());
}

TEST(SpecParse, NonFiniteNumbersAreParseErrors)
{
    // A NaN passes a `< 0.0` range check; each one must be a typed
    // error, never a thrown std::invalid_argument or a NaN phase.
    for (const char *text : {
             "name x\nphase k 1 1us nan\n",
             "name x\nphase k 1 1us inf\n",
             "name x\nphase k 1 1us lots\n",
             "name r\nrphase k 1 nan 1MiB\n",
             "name r\nrphase k 1 -inf 1MiB\n",
             "name r\nrphase k 1 1e999 1MiB\n",
             "name x\ninput 1.2.3MiB\nphase k 1 1us\n",
         }) {
        const auto spec = parseSpecText(text);
        ASSERT_FALSE(spec.ok()) << text;
        EXPECT_EQ(spec.status().code(), ErrorCode::ParseError);
    }
}

TEST(SpecParse, MissingFileIsIoError)
{
    const auto spec = loadSpecFile("/nonexistent/path.spec");
    EXPECT_FALSE(spec.ok());
    EXPECT_EQ(spec.status().code(), ErrorCode::IoError);
}

TEST(SpecParse, RooflinePhases)
{
    const auto spec = parseSpecText(
        "name r\n"
        "rphase gemm_k 4 1200 256MiB\n"
        "rphase stream_k 2 0.5 1GiB 1048576\n").take();
    ASSERT_EQ(spec.phases.size(), 2u);
    EXPECT_EQ(spec.phases[0].ket, 0);
    EXPECT_DOUBLE_EQ(spec.phases[0].gflops, 1200.0);
    EXPECT_EQ(spec.phases[0].mem_bytes, size::mib(256));
    EXPECT_EQ(spec.phases[1].threads, 1048576);
    EXPECT_FALSE(parseSpecText("name r\nrphase k 0 1 1MiB\n").ok());
    EXPECT_FALSE(parseSpecText("name r\nrphase k 1\n").ok());
}

TEST(SpecRun, RooflinePhaseGetsDeviceDerivedKet)
{
    const auto spec = parseSpecText(
        "name roofline_app\n"
        "input 1MiB\n"
        "rphase stream_k 1 0 1GiB\n").take();
    const SpecWorkload workload(spec);
    rt::SystemConfig cfg;
    const auto res = runWorkload(workload, cfg);
    // 1 GiB through HBM at ~3350 GB/s is ~320 us.
    EXPECT_NEAR(res.metrics.ket.sum(),
                static_cast<double>(
                    transferTime(size::gib(1), 3350.0)),
                static_cast<double>(time::us(30.0)));
}

// -------------------------------------------------------- execution

TEST(SpecRun, ParsedSpecRunsEndToEnd)
{
    const auto spec = parseSpecText(kGood).take();
    const SpecWorkload workload(spec);
    rt::SystemConfig base, cc;
    cc.cc = true;
    const auto rb = runWorkload(workload, base);
    const auto rc = runWorkload(workload, cc);
    EXPECT_EQ(rb.metrics.launches, 133);
    EXPECT_GT(rc.end_to_end, rb.end_to_end);
    // The 6 MiB final_k module makes its first CC launch spike.
    double max_klo = 0.0;
    for (const auto &e :
         rc.trace.ofKind(trace::EventKind::Launch)) {
        if (rc.trace.labelName(e.label) == "final_k")
            max_klo = std::max(max_klo,
                               static_cast<double>(e.duration()));
    }
    EXPECT_GT(max_klo, static_cast<double>(time::ms(1.0)));
}

TEST(SpecRun, UvmVariantOfParsedSpec)
{
    const auto spec = parseSpecText(kGood).take();
    const SpecWorkload workload(spec);
    rt::SystemConfig cfg;
    WorkloadParams p;
    p.uvm = true;
    const auto res = runWorkload(workload, cfg, p);
    EXPECT_EQ(res.metrics.copyTotal(), 0);
    EXPECT_GT(res.metrics.alloc_managed, 0);
}

} // namespace
} // namespace hcc::workloads
