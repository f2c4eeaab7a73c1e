/**
 * @file
 * Sweep test: every registered workload (including the extra Rodinia
 * apps not in the paper's figure list) must run cleanly under base
 * and CC, satisfy the global invariants, and record the same run
 * whether it runs whole or split at a prefix cut.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "obs/stats_io.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"
#include "workloads/workload.hpp"

namespace hcc::workloads {
namespace {

class AllWorkloads : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllWorkloads, RunsUnderBaseAndCc)
{
    const auto &name = GetParam();
    WorkloadParams params;
    params.scale = 0.5;  // keep the sweep fast

    rt::SystemConfig base, cc;
    cc.cc = true;
    const auto rb = runWorkload(name, base, params);
    const auto rc = runWorkload(name, cc, params);

    EXPECT_GT(rb.end_to_end, 0);
    EXPECT_GT(rc.end_to_end, rb.end_to_end)
        << "CC must never be free";
    EXPECT_GT(rb.metrics.launches, 0);
    EXPECT_EQ(rb.metrics.launches, rc.metrics.launches)
        << "launch counts are structural, not mode-dependent";
    EXPECT_EQ(rb.metrics.kernels, rb.metrics.launches);

    // TDX accounting only under CC.
    EXPECT_EQ(rb.tdx.hypercalls, 0u);
    EXPECT_GT(rc.tdx.hypercalls, 0u);

    // Trace sanity.
    for (const auto &e : rc.trace.events()) {
        EXPECT_GE(e.duration(), 0);
        EXPECT_GE(e.queue_wait, 0);
    }
}

TEST_P(AllWorkloads, UvmVariantRunsWhereSupported)
{
    const auto &name = GetParam();
    const auto &w = WorkloadRegistry::instance().get(name);
    if (!w.supportsUvm())
        GTEST_SKIP() << name << " has no UVM variant";

    WorkloadParams params;
    params.uvm = true;
    params.scale = 0.5;
    rt::SystemConfig base, cc;
    cc.cc = true;
    const auto rb = runWorkload(name, base, params);
    const auto rc = runWorkload(name, cc, params);
    EXPECT_EQ(rb.metrics.copyTotal(), 0)
        << "UVM variants use no explicit copies";
    EXPECT_GE(rc.metrics.ket.sum(), rb.metrics.ket.sum())
        << "encrypted paging cannot make kernels faster";
}

/** Everything one simulation recorded: the trace with its gauge
 *  tracks, and the stats (wall-clock host.* entries excluded). */
std::string
recording(const rt::Context &ctx)
{
    return trace::chromeTraceJson(ctx.tracer(), &ctx.obs())
        + obs::statsJson(ctx.obs(), /*include_host=*/false);
}

TEST_P(AllWorkloads, RunMatchesPrefixPlusSuffixAtEveryCut)
{
    // run() and a prefix/suffix split at any cut issue the same API
    // calls, so they must record the same simulation.
    const auto &w = WorkloadRegistry::instance().get(GetParam());
    for (const bool uvm : {false, true}) {
        if (uvm && !w.supportsUvm())
            continue;
        for (const bool cc : {false, true}) {
            WorkloadParams params;
            params.scale = 0.5;
            params.uvm = uvm;
            rt::SystemConfig sys;
            sys.cc = cc;
            rt::Context whole(sys);
            w.run(whole, params);
            const std::string expected = recording(whole);
            for (const double cut : {0.3, 1.0}) {
                rt::Context split(sys);
                w.runSuffix(split, params,
                            *w.runPrefix(split, params, cut));
                EXPECT_TRUE(recording(split) == expected)
                    << "uvm=" << uvm << " cc=" << cc << " cut=" << cut;
            }
        }
    }
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const auto *w : WorkloadRegistry::instance().all())
        names.push_back(w->name());
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllWorkloads, ::testing::ValuesIn(allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace hcc::workloads
