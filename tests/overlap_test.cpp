/**
 * @file
 * Tests for the staged CC copy pipeline (docs/OVERLAP.md): tier
 * parsing, per-stage occupancy identities, byte-identity of the
 * `none` tier, tier ordering, spec.miss fault economics, and the
 * speculative tier's recovery of the bounce-buffer tax on the
 * transfer-dominated bigxfer app.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "fault/fault.hpp"
#include "obs/registry.hpp"
#include "pcie/link.hpp"
#include "runtime/context.hpp"
#include "tee/secure_channel.hpp"
#include "tee/spdm.hpp"
#include "tee/tdx.hpp"
#include "workloads/workload.hpp"

namespace hcc::tee {
namespace {

// ------------------------------------------------------------ parsing

TEST(OverlapMode, NamesRoundTrip)
{
    for (const OverlapMode m :
         {OverlapMode::None, OverlapMode::DoubleBuffer,
          OverlapMode::Speculative}) {
        const auto parsed = parseOverlapMode(overlapModeName(m));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, m);
    }
    EXPECT_FALSE(parseOverlapMode("bogus").has_value());
    EXPECT_FALSE(parseOverlapMode("").has_value());
}

// --------------------------------------------------- pipeline timing

class OverlapChannelTest : public ::testing::Test
{
  protected:
    SimTime
    transferTime(OverlapMode mode, Bytes bytes,
                 obs::Registry *reg = nullptr,
                 fault::Injector *inj = nullptr,
                 pcie::Direction dir = pcie::Direction::HostToDevice)
    {
        ChannelConfig cfg;
        cfg.overlap = mode;
        SecureChannel ch(cfg, session_, reg, inj);
        pcie::PcieLink link(pcie::LinkConfig{}, reg);
        TdxModule tdx{true};
        return ch.scheduleTransfer(0, bytes, dir, link, tdx)
            .total.duration();
    }

    SpdmSession session_ = SpdmSession::establish(7);
};

TEST_F(OverlapChannelTest, StageOccupancyIdentities)
{
    // Every pipeline counter mirrors the busy time of the timeline
    // that stage reserves on — the pipeline invents no time of its
    // own.
    obs::Registry reg;
    transferTime(OverlapMode::Speculative, size::mib(64), &reg);
    EXPECT_EQ(reg.counterValue("tee.channel.pipeline.seal_busy_ps"),
              reg.counterValue("sim.timeline.cc_crypto.busy_ps"));
    EXPECT_EQ(reg.counterValue("tee.channel.pipeline.stage_busy_ps"),
              reg.counterValue("sim.timeline.cc_stage.busy_ps"));
    EXPECT_EQ(reg.counterValue("tee.channel.pipeline.open_busy_ps"),
              reg.counterValue("sim.timeline.cc_gpu_crypto.busy_ps"));
    EXPECT_EQ(reg.counterValue("tee.channel.pipeline.dma_busy_ps"),
              reg.counterValue("pcie.link.busy_ps_h2d"));
    // 64 MiB in 4 MiB chunks: every chunk is a speculative attempt.
    EXPECT_EQ(reg.counterValue("tee.channel.pipeline.spec_hits"), 16u);
    EXPECT_EQ(reg.counterValue("tee.channel.pipeline.spec_misses"), 0u);
    EXPECT_LE(reg.counterValue("tee.channel.pipeline.hidden_crypto_ps"),
              reg.counterValue("tee.channel.pipeline.seal_busy_ps"));
    EXPECT_GT(reg.counterValue("tee.channel.pipeline.hidden_crypto_ps"),
              0u);
}

TEST_F(OverlapChannelTest, NoneModeCreatesNoPipelineCounters)
{
    // The serial tier must leave the registry byte-identical to the
    // pre-overlap engine: no pipeline counters, no stage timeline.
    obs::Registry reg;
    transferTime(OverlapMode::None, size::mib(64), &reg);
    for (const auto &[name, entry] : reg.entries()) {
        EXPECT_EQ(name.find("tee.channel.pipeline."),
                  std::string::npos)
            << name;
        EXPECT_EQ(name.find("sim.timeline.cc_stage"),
                  std::string::npos)
            << name;
    }
}

TEST_F(OverlapChannelTest, TiersAreOrderedAtOneWorker)
{
    const Bytes b = size::mib(64);
    const SimTime none = transferTime(OverlapMode::None, b);
    const SimTime db = transferTime(OverlapMode::DoubleBuffer, b);
    const SimTime spec = transferTime(OverlapMode::Speculative, b);
    EXPECT_LT(db, none) << "double-buffer hides the bounce copy";
    EXPECT_LT(spec, db) << "speculation overlaps seals of "
                           "consecutive chunks";
}

TEST_F(OverlapChannelTest, SteadyStateMatchesTierModel)
{
    SpdmSession s = SpdmSession::establish(7);
    pcie::PcieLink link;
    const auto rate = [&](OverlapMode mode) {
        ChannelConfig cfg;
        cfg.overlap = mode;
        SecureChannel ch(cfg, s);
        return ch.steadyStateGbps(link);
    };
    EXPECT_NEAR(rate(OverlapMode::None), 3.02, 0.1);
    EXPECT_NEAR(rate(OverlapMode::DoubleBuffer),
                calib::kEmrAesGcm128GBs, 0.1);
    EXPECT_NEAR(rate(OverlapMode::Speculative),
                4 * calib::kEmrAesGcm128GBs, 0.2)
        << "depth-4 speculation quadruples the seal front-end";
}

// ------------------------------------------------- spec.miss faults

TEST_F(OverlapChannelTest, SpecMissesReSealAndSlowTheTransfer)
{
    obs::Registry reg;
    fault::FaultConfig fc;
    fc.set(fault::Site::SpecMiss, 0.5);
    fault::Injector inj(fc, 3, &reg);
    const Bytes b = size::mib(64);
    const SimTime faulted =
        transferTime(OverlapMode::Speculative, b, &reg, &inj);
    const SimTime clean = transferTime(OverlapMode::Speculative, b);
    const auto misses =
        reg.counterValue("tee.channel.pipeline.spec_misses");
    EXPECT_GT(misses, 0u);
    EXPECT_EQ(misses, reg.counterValue("fault.spec.miss.injected"));
    EXPECT_EQ(misses, reg.counterValue("fault.spec.miss.recovered"))
        << "every miss re-seals and completes";
    EXPECT_EQ(reg.counterValue("tee.channel.pipeline.spec_hits")
                  + misses,
              16u)
        << "every chunk's first attempt is a hit or a miss";
    EXPECT_GT(reg.counterValue("fault.spec.miss.retry_time_ps"), 0u);
    EXPECT_GT(faulted, clean) << "re-seals cost pipeline time";
}

TEST_F(OverlapChannelTest, SpecMissNeverFiresOutsideSpeculative)
{
    obs::Registry reg;
    fault::FaultConfig fc;
    fc.set(fault::Site::SpecMiss, 1.0);
    fault::Injector inj(fc, 3, &reg);
    transferTime(OverlapMode::DoubleBuffer, size::mib(64), &reg,
                 &inj);
    EXPECT_EQ(reg.entries().count("fault.spec.miss.injected"), 0u)
        << "only speculative seals consult the spec.miss site";
}

// ------------------------------------------- end-to-end (bigxfer)

TEST(OverlapAblation, SpeculativeRecoversMostOfTheBounceTax)
{
    const auto e2e = [](bool cc, OverlapMode mode) {
        rt::SystemConfig sys;
        sys.cc = cc;
        sys.channel.overlap = mode;
        workloads::WorkloadParams params;
        return workloads::runWorkload("bigxfer", sys, params)
            .end_to_end;
    };
    const double base =
        static_cast<double>(e2e(false, OverlapMode::None));
    const double none =
        static_cast<double>(e2e(true, OverlapMode::None));
    const double db =
        static_cast<double>(e2e(true, OverlapMode::DoubleBuffer));
    const double spec =
        static_cast<double>(e2e(true, OverlapMode::Speculative));
    EXPECT_LT(spec, db);
    EXPECT_LT(db, none);
    EXPECT_GT(none, base);
    const double recovery = (none - spec) / (none - base);
    EXPECT_GE(recovery, 0.6)
        << "speculation must win back most of the CC "
           "large-transfer overhead (got " << recovery << ")";
}

} // namespace
} // namespace hcc::tee
