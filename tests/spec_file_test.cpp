/**
 * @file
 * Tests for the user workload spec-file format: literal parsing,
 * full-document parsing, error reporting, and end-to-end execution
 * of a parsed spec.
 */

#include <gtest/gtest.h>

#include "common/calibration.hpp"
#include "workloads/spec_file.hpp"
#include "workloads/workload.hpp"

namespace hcc::workloads {
namespace {

// -------------------------------------------------------- literals

TEST(SpecLiterals, Sizes)
{
    EXPECT_EQ(parseSize("0").value(), 0u);
    EXPECT_EQ(parseSize("512").value(), 512u);
    EXPECT_EQ(parseSize("512B").value(), 512u);
    EXPECT_EQ(parseSize("4KiB").value(), 4096u);
    EXPECT_EQ(parseSize("2MiB").value(), size::mib(2));
    EXPECT_EQ(parseSize("1GiB").value(), size::gib(1));
    EXPECT_EQ(parseSize("1.5MiB").value(), size::mib(1.5));
    EXPECT_EQ(parseSize("8M").value(), size::mib(8));
}

TEST(SpecLiterals, SizeErrors)
{
    EXPECT_FALSE(parseSize("abc").ok());
    EXPECT_FALSE(parseSize("12XB").ok());
    EXPECT_FALSE(parseSize("-4KiB").ok());
    // 2^64 bytes does not fit a Bytes; converting it would be UB.
    EXPECT_FALSE(parseSize("17179869184GiB").ok());
    EXPECT_FALSE(parseSize("99999999999999999999999GiB").ok());
    EXPECT_EQ(parseSize("17179869183GiB").value(),
              ~Bytes{0} - size::gib(1) + 1);
}

TEST(SpecLiterals, Durations)
{
    EXPECT_EQ(parseDuration("5ns").value(), time::ns(5));
    EXPECT_EQ(parseDuration("45us").value(), time::us(45));
    EXPECT_EQ(parseDuration("2ms").value(), time::ms(2));
    EXPECT_EQ(parseDuration("1.5s").value(), time::sec(1.5));
}

TEST(SpecLiterals, DurationErrors)
{
    EXPECT_FALSE(parseDuration("45").ok()) << "unit is mandatory";
    EXPECT_FALSE(parseDuration("45min").ok());
    EXPECT_FALSE(parseDuration("fast").ok());
    EXPECT_FALSE(parseDuration("9999999999999s").ok())
        << "2^63 ps does not fit a SimTime";
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
    // Integer fields read whole tokens: std::stoi ran "3abc" as 3.
    for (const char *text : {
             "name x\nphase k 3abc 1us\n",
             "name x\nphase k 1e3 1us\n",
             "name r\nrphase k 2x 1 1MiB\n",
             "name r\nrphase k 1 1 1MiB 4x\n",
             "name r\nrphase k 1 1 1MiB -256\n",
             "name r\nrphase k 1 1 1MiB 999999999999999\n",
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

TEST(SpecParse, FieldErrorsNameTheirLineAndKey)
{
    // Size, duration and boolean fields, a missing field, a token
    // after a line's last field and a device buffer past the HBM: each
    // is a ParseError naming its line and its key.
    const struct
    {
        const char *text;
        const char *where;
    } cases[] = {
        {"name x\ninput abc\nphase k 1 1us\n",
         "line 2: bad size for 'input'"},
        {"name x\nphase k 1 1us\nscratch 12XB\n",
         "line 3: bad size for 'scratch'"},
        {"name x\nphase k 3 1parsec\n",
         "line 2: bad kernel time for 'phase'"},
        {"name x\npinned_host maybe\nphase k 1 1us\n",
         "line 2: bad boolean for 'pinned_host'"},
        {"name x\nuvm_capable perhaps\nphase k 1 1us\n",
         "line 2: bad boolean for 'uvm_capable'"},
        {"name x\nphase k 1\n",
         "line 2: missing kernel time for 'phase'"},
        {"name x\ninput 4MiB junk\nphase k 1 1us\n",
         "line 2: unexpected 'junk' after the 'input' fields"},
        {"name x\nphase k 3 1us 0.1 0 0 extra tokens\n",
         "line 2: unexpected 'extra' after the 'phase' fields"},
        {"name r\nrphase k 1 1 1MiB 256 more\n",
         "line 2: unexpected 'more' after the 'rphase' fields"},
        {"name two words\nphase k 1 1us\n",
         "line 1: unexpected 'words' after the 'name' fields"},
        // A device buffer larger than the HBM: copying 16e9 GiB in
        // 4 MiB chunks would never finish.
        {"name x\ninput 16000000000GiB\nphase k 1 1us\n",
         "line 2: bad size for 'input': '16000000000GiB' exceeds the "
         "device's 94.00 GiB of HBM"},
        {"name x\nphase k 1 1us\noutput 95GiB\n",
         "line 3: bad size for 'output': '95GiB' exceeds"},
        {"name x\nd2d 94.01GiB\nphase k 1 1us\n",
         "line 2: bad size for 'd2d': '94.01GiB' exceeds"},
        {"name x\nscratch 100000MiB\nphase k 1 1us\n",
         "line 2: bad size for 'scratch': '100000MiB' exceeds"},
        {"name x\nphase k 3 1us 0.1 95GiB\n",
         "line 2: bad d2h size for 'phase': '95GiB' exceeds"},
        // The line whose launches push the spec's total past the
        // budget: a 2e9-launch phase would run for half an hour.
        {"name x\nphase a 16000000 1us\nrphase b 1000000 1 1MiB\n",
         "line 3: bad launch count for 'rphase': '1000000' brings the "
         "spec's launches past 16777216"},
        {"name x\nphase a 2000000000 1us\n",
         "line 2: bad launch count for 'phase': '2000000000' brings the "
         "spec's launches past 16777216"},
    };
    for (const auto &c : cases) {
        const auto spec = parseSpecText(c.text);
        ASSERT_FALSE(spec.ok()) << c.text;
        EXPECT_EQ(spec.status().code(), ErrorCode::ParseError);
        EXPECT_EQ(spec.status().message().find(c.where), 0u)
            << spec.status().message();
    }
    // Launch totals up to the budget stay legal.
    EXPECT_EQ(parseSpecText("name x\nphase a 16777216 1us\n")
                  ->totalLaunches(),
              kSpecLaunchBudget);
    EXPECT_EQ(parseSpecText("name x\nphase a 16777215 1us\n"
                            "phase b 1 1us\n")
                  ->totalLaunches(),
              kSpecLaunchBudget);
}

TEST(SpecParse, DeviceBuffersMayFillTheHbm)
{
    // The capacity itself fits; managed oversubscription, module
    // images and roofline HBM traffic are not device buffers.
    const auto spec = parseSpecText(
        "name x\n"
        "input 94GiB\n"
        "uvm_touch 200GiB\n"
        "phase k 1 1us 0.1 94GiB 200GiB\n"
        "rphase r 1 1 1000GiB\n").take();
    EXPECT_EQ(spec.inputs.at(0), calib::kHbmCapacity);
    EXPECT_EQ(spec.phases.at(0).d2h_per_iter, calib::kHbmCapacity);
    EXPECT_EQ(spec.uvm_touch_override, size::gib(200));
    EXPECT_EQ(spec.phases.at(0).module_bytes, size::gib(200));
    EXPECT_EQ(spec.phases.at(1).mem_bytes, size::gib(1000));
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
