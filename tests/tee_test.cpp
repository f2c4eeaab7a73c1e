/**
 * @file
 * Tests for the TEE subsystem: TDX transition costs, bounce-buffer
 * pool back-pressure, SPDM sessions, and the secure channel's timing
 * and integrity guarantees.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "pcie/link.hpp"
#include "tee/bounce_buffer.hpp"
#include "tee/secure_channel.hpp"
#include "tee/spdm.hpp"
#include "tee/tdx.hpp"

namespace hcc::tee {
namespace {

// ----------------------------------------------------------------- tdx

TEST(Tdx, HypercallCostsExceedVmcallsByPaperRatio)
{
    TdxModule td(true), vm(false);
    const SimTime cc = td.guestHostRoundTrips(1);
    const SimTime base = vm.guestHostRoundTrips(1);
    // [16]: tdx_hypercall latency increases by over 470%.
    EXPECT_GT(static_cast<double>(cc) / static_cast<double>(base), 4.7);
}

TEST(Tdx, CountersTrackTransitions)
{
    TdxModule td(true);
    td.guestHostRoundTrips(3);
    td.seamcalls(2);
    td.mmioDoorbell();
    EXPECT_EQ(td.stats().hypercalls, 4u);  // 3 + doorbell
    EXPECT_EQ(td.stats().seamcalls, 2u);
    EXPECT_GT(td.stats().totalTime(), 0);
    td.resetStats();
    EXPECT_EQ(td.stats().hypercalls, 0u);
}

TEST(Tdx, NonCcChargesVmexitsNotHypercalls)
{
    TdxModule vm(false);
    vm.guestHostRoundTrips(5);
    EXPECT_EQ(vm.stats().vmexits, 5u);
    EXPECT_EQ(vm.stats().hypercalls, 0u);
}

TEST(Tdx, PageConversionOnlyUnderCc)
{
    TdxModule td(true), vm(false);
    EXPECT_GT(td.convertPages(size::mib(1)), 0);
    EXPECT_EQ(vm.convertPages(size::mib(1)), 0);
    EXPECT_EQ(td.stats().pages_converted, 256u);  // 1 MiB / 4 KiB
}

TEST(Tdx, SeamcallsFreeOutsideCc)
{
    TdxModule vm(false);
    EXPECT_EQ(vm.seamcalls(10), 0);
}

TEST(Tdx, DmaAllocIncludesConversion)
{
    TdxModule td(true);
    const SimTime t = td.dmaAlloc(size::mib(4));
    EXPECT_GT(t, calib::kDmaAllocFixed);
    EXPECT_EQ(td.stats().dma_allocs, 1u);
    EXPECT_GT(td.stats().pages_converted, 0u);
}

TEST(Tdx, DoorbellMoreExpensiveInTd)
{
    TdxModule td(true), vm(false);
    EXPECT_GT(td.mmioDoorbell(), vm.mmioDoorbell());
}

// -------------------------------------------------------------- bounce

TEST(BounceBuffer, AcquireReleaseCycle)
{
    BounceBufferPool pool(4096, 2);
    EXPECT_EQ(pool.freeSlots(), 2);
    auto a = pool.acquire(10);
    EXPECT_EQ(a.acquired_at, 10);
    EXPECT_EQ(pool.freeSlots(), 1);
    pool.release(a, 50);
    auto b = pool.acquire(20);
    EXPECT_GE(b.acquired_at, 20);
}

TEST(BounceBuffer, ExhaustionCreatesBackPressure)
{
    BounceBufferPool pool(4096, 2);
    auto a = pool.acquire(0);
    auto b = pool.acquire(0);
    pool.release(a, 100);
    pool.release(b, 200);
    const auto c = pool.acquire(0);
    EXPECT_EQ(c.acquired_at, 100) << "must wait for earliest release";
    const auto d = pool.acquire(0);
    EXPECT_EQ(d.acquired_at, 200);
    EXPECT_EQ(pool.contentionEvents(), 2u);
    EXPECT_EQ(pool.contentionTime(), 300);
}

TEST(BounceBuffer, NoContentionWhenReadyAfterRelease)
{
    BounceBufferPool pool(4096, 1);
    auto a = pool.acquire(0);
    pool.release(a, 100);
    const auto b = pool.acquire(150);
    EXPECT_EQ(b.acquired_at, 150);
    EXPECT_EQ(pool.contentionEvents(), 0u);
}

TEST(BounceBuffer, StorageIsSlotSized)
{
    BounceBufferPool pool(1024, 1);
    auto a = pool.acquire(0);
    EXPECT_EQ(pool.storage(a).size(), 1024u);
}

TEST(BounceBuffer, RejectsDegenerateConfig)
{
    EXPECT_THROW(BounceBufferPool(0, 4), FatalError);
    EXPECT_THROW(BounceBufferPool(64, 0), FatalError);
}

TEST(BounceBuffer, AllSlotsHeldAcquiresWithoutRelease)
{
    // Regression: taking more holds than slots before any release
    // used to trip the pending-release assert.  Oversubscription
    // must reuse the oldest hold instead.
    BounceBufferPool pool(4096, 2);
    auto a = pool.acquire(0);
    auto b = pool.acquire(0);
    EXPECT_EQ(pool.heldSlots(), 2u);
    const auto c = pool.acquire(10);
    EXPECT_EQ(pool.heldSlots(), 3u);
    EXPECT_EQ(c.acquired_at, 10) << "no release watermark yet";
    pool.release(a, 100);
    pool.release(b, 200);
    // a's slot is still held through c, so only b's is free-able.
    const auto d = pool.acquire(0);
    EXPECT_EQ(d.acquired_at, 200);
}

TEST(BounceBuffer, OversubscribedHoldWaitsForReleaseWatermark)
{
    BounceBufferPool pool(4096, 1);
    auto a = pool.acquire(0);
    pool.release(a, 500);
    auto b = pool.acquire(0);
    EXPECT_EQ(b.acquired_at, 500) << "waits for the pending release";
    const auto c = pool.acquire(0);
    EXPECT_EQ(c.acquired_at, 500)
        << "held path starts no earlier than the latest release";
    EXPECT_EQ(pool.heldSlots(), 2u);
    EXPECT_EQ(pool.slotCount(), 1u);
}

// ---------------------------------------------------------------- spdm

TEST(Spdm, DeterministicForSeed)
{
    const auto a = SpdmSession::establish(42);
    const auto b = SpdmSession::establish(42);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.sessionId(), b.sessionId());
}

TEST(Spdm, DifferentSeedsDifferentKeys)
{
    const auto a = SpdmSession::establish(1);
    const auto b = SpdmSession::establish(2);
    EXPECT_NE(a.key(), b.key());
}

// ------------------------------------------------------ secure channel

class SecureChannelTest : public ::testing::Test
{
  protected:
    ChannelConfig cfg_;
    SpdmSession session_ = SpdmSession::establish(7);
    pcie::PcieLink link_;
    TdxModule tdx_{true};
};

TEST_F(SecureChannelTest, SteadyStateMatchesPaperCcPeak)
{
    SecureChannel ch(cfg_, session_);
    // The paper measures 3.03 GB/s peak under CC.
    EXPECT_NEAR(ch.steadyStateGbps(link_), 3.03, 0.15);
}

TEST_F(SecureChannelTest, LargeTransferHitsSteadyState)
{
    // One chunk loop, one bottleneck formula: a 1 GiB transfer fills
    // the pipeline, so its scheduled rate sits just under
    // steadyStateGbps in every tier, worker count and direction.
    const Bytes b = size::gib(1);
    for (const OverlapMode mode :
         {OverlapMode::None, OverlapMode::DoubleBuffer,
          OverlapMode::Speculative}) {
        for (const int workers : {1, 3, 8}) {
            for (const pcie::Direction dir :
                 {pcie::Direction::HostToDevice,
                  pcie::Direction::DeviceToHost}) {
                cfg_.overlap = mode;
                cfg_.crypto_workers = workers;
                SecureChannel ch(cfg_, session_);
                pcie::PcieLink link;
                TdxModule tdx(true);
                const auto t = ch.scheduleTransfer(0, b, dir, link, tdx);
                const double gbps = bandwidthGBs(b, t.total.duration());
                const double ratio = gbps / ch.steadyStateGbps(link, dir);
                const std::string where =
                    std::string(overlapModeName(mode)) + " x"
                    + std::to_string(workers)
                    + (dir == pcie::Direction::HostToDevice ? " h2d"
                                                            : " d2h");
                EXPECT_GE(ratio, 0.95) << where;
                EXPECT_LE(ratio, 1.0) << where;
                EXPECT_GT(t.chunks, 200) << where;
                if (mode == OverlapMode::None && workers == 1
                    && dir == pcie::Direction::HostToDevice) {
                    EXPECT_NEAR(gbps, 3.03, 0.2);
                }
            }
        }
    }
}

TEST_F(SecureChannelTest, SmallTransferDominatedByFixedCosts)
{
    SecureChannel ch(cfg_, session_);
    const auto t = ch.scheduleTransfer(
        0, 64, pcie::Direction::HostToDevice, link_, tdx_);
    EXPECT_GT(t.fixed_overhead, time::us(10.0));
    EXPECT_LT(bandwidthGBs(64, t.total.duration()), 0.01);
}

TEST_F(SecureChannelTest, MoreWorkersRaiseThroughputTowardLink)
{
    cfg_.crypto_workers = 8;
    SecureChannel ch(cfg_, session_);
    const double gbps = ch.steadyStateGbps(link_);
    EXPECT_GT(gbps, 3.03 * 4);
    EXPECT_LE(gbps, link_.config().effective_gbps);
}

TEST_F(SecureChannelTest, TeeIoBypassesSoftwareCrypto)
{
    cfg_.tee_io = true;
    SecureChannel ch(cfg_, session_);
    EXPECT_NEAR(ch.steadyStateGbps(link_),
                link_.config().effective_gbps * calib::kTeeIoEfficiency,
                0.01);
    const Bytes b = size::mib(256);
    const auto t = ch.scheduleTransfer(
        0, b, pcie::Direction::HostToDevice, link_, tdx_);
    EXPECT_EQ(t.encrypt_busy, 0);
    EXPECT_GT(bandwidthGBs(b, t.total.duration()), 15.0);
}

TEST_F(SecureChannelTest, ChargesHypercallsToTdx)
{
    SecureChannel ch(cfg_, session_);
    const auto before = tdx_.stats().hypercalls;
    ch.scheduleTransfer(0, size::mib(1),
                        pcie::Direction::HostToDevice, link_, tdx_);
    EXPECT_GT(tdx_.stats().hypercalls, before);
}

TEST_F(SecureChannelTest, ZeroByteTransferOnlyFixedCost)
{
    SecureChannel ch(cfg_, session_);
    const auto t = ch.scheduleTransfer(
        0, 0, pcie::Direction::HostToDevice, link_, tdx_);
    EXPECT_EQ(t.chunks, 0);
    EXPECT_EQ(t.total.duration(), t.fixed_overhead);
}

TEST_F(SecureChannelTest, FunctionalRoundTrip)
{
    SecureChannel ch(cfg_, session_);
    Rng rng(3);
    std::vector<std::uint8_t> src(10 * 1024 * 1024);
    for (auto &b : src)
        b = static_cast<std::uint8_t>(rng.next32());
    std::vector<std::uint8_t> dst(src.size());
    EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
    EXPECT_EQ(src, dst);
}

TEST_F(SecureChannelTest, BounceBufferCarriesOnlyCiphertext)
{
    // A recognizable plaintext pattern must never appear in the
    // staged (hypervisor-visible) buffer.  The injector's stage hook
    // is the hypervisor's observation point.
    fault::Injector inj;
    bool saw_plaintext = false;
    inj.setStageHook([&](std::vector<std::uint8_t> &stage) {
        std::size_t run = 0;
        for (auto b : stage) {
            run = (b == 0x5a) ? run + 1 : 0;
            if (run >= 32)
                saw_plaintext = true;
        }
    });
    SecureChannel ch(cfg_, session_, nullptr, &inj);
    std::vector<std::uint8_t> src(4096, 0x5a);
    std::vector<std::uint8_t> dst(src.size());
    EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
    EXPECT_FALSE(saw_plaintext);
    EXPECT_EQ(src, dst);
}

TEST_F(SecureChannelTest, RetriesKeepIvStreamAlignedAcrossWorkers)
{
    // Regression: a retried chunk used to advance the IV sequence on
    // the sequential path but not the parallel one, so later wire
    // bytes diverged between crypto_workers settings.  One sequence
    // draw per chunk (retries derive their IV from the attempt
    // ordinal) keeps both paths aligned.
    const std::size_t n = 10 * 1024 * 1024;  // three 4 MiB chunks
    Rng rng(11);
    std::vector<std::uint8_t> src(n);
    for (auto &b : src)
        b = static_cast<std::uint8_t>(rng.next32());
    const auto wireAfterRetry = [&](int workers) {
        ChannelConfig cfg = cfg_;
        cfg.crypto_workers = workers;
        fault::Injector inj;
        int seen = 0;
        inj.setStageHook([&](std::vector<std::uint8_t> &stage) {
            // Tamper the second staged chunk once: both paths must
            // re-seal it under the attempt-derived IV.
            if (++seen == 2)
                stage[0] ^= 0x80;
        });
        SecureChannel ch(cfg, session_, nullptr, &inj);
        std::vector<std::uint8_t> dst(n);
        EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
        EXPECT_EQ(src, dst);
        // The next transfer's wire bytes depend only on the IV
        // stream position, so both worker counts must emit
        // byte-identical ciphertext.
        std::vector<std::uint8_t> wire;
        inj.setStageHook([&](std::vector<std::uint8_t> &stage) {
            wire.insert(wire.end(), stage.begin(), stage.end());
        });
        EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
        return wire;
    };
    EXPECT_EQ(wireAfterRetry(1), wireAfterRetry(4));
}

TEST_F(SecureChannelTest, ArmedFaultsRecoverOnBothFunctionalPaths)
{
    Rng rng(5);
    std::vector<std::uint8_t> src(12 * 1024 * 1024);
    for (auto &b : src)
        b = static_cast<std::uint8_t>(rng.next32());
    for (int workers : {1, 4}) {
        ChannelConfig cfg = cfg_;
        cfg.crypto_workers = workers;
        fault::FaultConfig fc;
        fc.set(fault::Site::ChannelTagMismatch, 0.2);
        fault::Injector inj(fc, 1);
        SecureChannel ch(cfg, session_, nullptr, &inj);
        std::vector<std::uint8_t> dst(src.size());
        ASSERT_TRUE(ch.transferFunctional(src, dst).ok());
        EXPECT_EQ(src, dst) << "workers=" << workers;
    }
}

TEST_F(SecureChannelTest, HypervisorTamperingIsDetected)
{
    fault::Injector inj;
    inj.setStageHook([](std::vector<std::uint8_t> &stage) {
        stage[100] ^= 0x01;  // malicious single-bit flip
    });
    SecureChannel ch(cfg_, session_, nullptr, &inj);
    std::vector<std::uint8_t> src(8192, 0x33);
    std::vector<std::uint8_t> dst(src.size());
    const Status st = ch.transferFunctional(src, dst);
    EXPECT_FALSE(st.ok()) << "integrity violation must be detected";
    EXPECT_EQ(st.code(), ErrorCode::IntegrityError);
}

TEST_F(SecureChannelTest, RejectsBadConfig)
{
    cfg_.crypto_workers = 0;
    EXPECT_THROW(SecureChannel(cfg_, session_), FatalError);
    cfg_.crypto_workers = 1;
    cfg_.chunk_bytes = 0;
    EXPECT_THROW(SecureChannel(cfg_, session_), FatalError);
}

// Parameterized: the functional path must round-trip any size,
// including chunk-boundary straddles.
class ChannelSizeSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ChannelSizeSweep, FunctionalRoundTrip)
{
    ChannelConfig cfg;
    cfg.chunk_bytes = 4096;  // small chunks to exercise boundaries
    cfg.bounce_slots = 4;
    const auto session = SpdmSession::establish(11);
    SecureChannel ch(cfg, session);

    Rng rng(GetParam());
    std::vector<std::uint8_t> src(GetParam());
    for (auto &b : src)
        b = static_cast<std::uint8_t>(rng.next32());
    std::vector<std::uint8_t> dst(src.size());
    EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
    EXPECT_EQ(src, dst);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChannelSizeSweep,
                         ::testing::Values(1, 100, 4095, 4096, 4097,
                                           8192, 12345, 65536));

TEST_F(SecureChannelTest, EveryCorruptedByteIsDetected)
{
    // Exhaustive tamper sweep: flip each byte of the staged
    // ciphertext-plus-tag in turn; every single position must fail
    // authentication and bump the auth-failure counter.  GCM's tag
    // covers the whole chunk, so there is no "slack" byte whose
    // corruption could slip through.  The stage hook re-corrupts
    // every retry, so each transfer burns the full attempt budget
    // and counts one auth failure per attempt.
    obs::Registry reg;
    fault::Injector inj;
    cfg_.chunk_bytes = 64;  // small chunk: sweep stays fast
    SecureChannel ch(cfg_, session_, &reg, &inj);
    std::vector<std::uint8_t> src(48);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7 + 1);
    std::vector<std::uint8_t> dst(src.size());

    // Untampered baseline: works, no failures.
    ASSERT_TRUE(ch.transferFunctional(src, dst).ok());
    ASSERT_EQ(reg.counter("crypto.aes_gcm.auth_failures").value(), 0u);

    const auto attempts =
        static_cast<std::uint64_t>(fault::kMaxTransferAttempts);
    const std::size_t staged = src.size() + crypto::kGcmTagLen;
    for (std::size_t pos = 0; pos < staged; ++pos) {
        const auto before =
            reg.counter("crypto.aes_gcm.auth_failures").value();
        inj.setStageHook([pos](std::vector<std::uint8_t> &stage) {
            ASSERT_GT(stage.size(), pos);
            stage[pos] ^= 0x80;
        });
        const Status st = ch.transferFunctional(src, dst);
        EXPECT_FALSE(st.ok()) << "corruption at byte " << pos
                              << " went undetected";
        EXPECT_EQ(st.code(), ErrorCode::IntegrityError);
        EXPECT_EQ(
            reg.counter("crypto.aes_gcm.auth_failures").value(),
            before + attempts)
            << "auth failure at byte " << pos << " not counted";
    }
}

TEST_F(SecureChannelTest, ParallelWorkersRoundTrip)
{
    // crypto_workers > 1 with several chunks takes the threaded
    // seal/open path; results must be byte-identical to the
    // sequential path (same IV assignment, same chunking).
    cfg_.crypto_workers = 4;
    cfg_.chunk_bytes = 4096;
    SecureChannel ch(cfg_, session_, nullptr);
    Rng rng(17);
    std::vector<std::uint8_t> src(10 * 4096 + 123);
    for (auto &b : src)
        b = static_cast<std::uint8_t>(rng.next32());
    std::vector<std::uint8_t> dst(src.size());
    EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
    EXPECT_EQ(src, dst);

    ChannelConfig seq = cfg_;
    seq.crypto_workers = 1;
    SecureChannel ref(seq, session_);
    std::vector<std::uint8_t> dst2(src.size());
    EXPECT_TRUE(ref.transferFunctional(src, dst2).ok());
    EXPECT_EQ(dst, dst2);
}

TEST_F(SecureChannelTest, ParallelWorkersDetectTampering)
{
    obs::Registry reg;
    fault::Injector inj;
    inj.setStageHook([](std::vector<std::uint8_t> &stage) {
        stage[stage.size() / 2] ^= 0x01;
    });
    cfg_.crypto_workers = 4;
    cfg_.chunk_bytes = 4096;
    SecureChannel ch(cfg_, session_, &reg, &inj);
    std::vector<std::uint8_t> src(8 * 4096, 0x66);
    std::vector<std::uint8_t> dst(src.size());
    EXPECT_FALSE(ch.transferFunctional(src, dst).ok());
    EXPECT_GE(reg.counter("crypto.aes_gcm.auth_failures").value(), 1u);
}

TEST_F(SecureChannelTest, ParallelWorkersHideNoPlaintext)
{
    fault::Injector inj;
    bool saw_plaintext = false;
    inj.setStageHook([&](std::vector<std::uint8_t> &stage) {
        std::size_t run = 0;
        for (auto b : stage) {
            run = (b == 0x5a) ? run + 1 : 0;
            if (run >= 32)
                saw_plaintext = true;
        }
    });
    cfg_.crypto_workers = 4;
    cfg_.chunk_bytes = 4096;
    SecureChannel ch(cfg_, session_, nullptr, &inj);
    std::vector<std::uint8_t> src(6 * 4096, 0x5a);
    std::vector<std::uint8_t> dst(src.size());
    EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
    EXPECT_FALSE(saw_plaintext);
    EXPECT_EQ(src, dst);
}

} // namespace
} // namespace hcc::tee
