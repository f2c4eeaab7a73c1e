/**
 * @file
 * Tests for the hcc::fault subsystem and the Status/Result error
 * API: typed error round-trips, fault-spec parsing, injector
 * determinism and site independence, the unarmed byte-identity
 * contract, modeled recovery latencies against hand-computed
 * schedules, and campaign determinism across worker counts.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "common/status.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "obs/registry.hpp"
#include "obs/stats_io.hpp"
#include "pcie/link.hpp"
#include "snap/archive.hpp"
#include "tee/secure_channel.hpp"
#include "tee/spdm.hpp"
#include "tee/tdx.hpp"

namespace hcc {
namespace {

using fault::FaultConfig;
using fault::Injector;
using fault::Site;

// ---------------------------------------------------- Status/Result

TEST(Status, DefaultIsOk)
{
    const Status st;
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::Ok);
    EXPECT_EQ(st.toString(), "ok");
}

TEST(Status, ErrorfFormatsCodeAndMessage)
{
    const Status st =
        errorf(ErrorCode::ParseError, "line %d: %s", 3, "bad key");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::ParseError);
    EXPECT_EQ(st.message(), "line 3: bad key");
    EXPECT_EQ(st.toString(), "parse-error: line 3: bad key");
}

TEST(Status, EveryCodeHasAName)
{
    for (const auto code :
         {ErrorCode::Ok, ErrorCode::InvalidArgument,
          ErrorCode::ParseError, ErrorCode::IoError,
          ErrorCode::NotFound, ErrorCode::IntegrityError,
          ErrorCode::HandshakeError, ErrorCode::ResourceExhausted,
          ErrorCode::RetriesExhausted, ErrorCode::Internal}) {
        EXPECT_STRNE(errorCodeName(code), "?");
    }
}

TEST(Result, ValueRoundTrip)
{
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(r.take(), 42);
}

TEST(Result, ErrorPropagatesStatus)
{
    const Result<int> r(errorf(ErrorCode::NotFound, "no app '%s'",
                               "nope"));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);
    EXPECT_NE(r.status().message().find("nope"), std::string::npos);
}

// -------------------------------------------------- site names/spec

TEST(FaultSpec, SiteNamesRoundTrip)
{
    for (const Site site : fault::allSites()) {
        const auto parsed = fault::parseSite(fault::siteName(site));
        ASSERT_TRUE(parsed.has_value()) << fault::siteName(site);
        EXPECT_EQ(*parsed, site);
    }
    EXPECT_FALSE(fault::parseSite("bogus.site").has_value());
}

TEST(FaultSpec, EmptySpecIsAllZero)
{
    const auto cfg = fault::parseFaultSpec("");
    ASSERT_TRUE(cfg.ok());
    EXPECT_FALSE(cfg.value().any());
}

TEST(FaultSpec, ParsesSiteRatePairs)
{
    const auto cfg = fault::parseFaultSpec(
        "channel.tag_mismatch=0.05,pcie.replay=0.01");
    ASSERT_TRUE(cfg.ok());
    EXPECT_DOUBLE_EQ(cfg.value().rate(Site::ChannelTagMismatch),
                     0.05);
    EXPECT_DOUBLE_EQ(cfg.value().rate(Site::PcieReplay), 0.01);
    EXPECT_DOUBLE_EQ(cfg.value().rate(Site::SpdmHandshake), 0.0);
    EXPECT_TRUE(cfg.value().any());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"bogus.site=0.1", "channel.tag_mismatch=abc",
          "channel.tag_mismatch", "=0.5"}) {
        const auto cfg = fault::parseFaultSpec(bad);
        EXPECT_FALSE(cfg.ok()) << bad;
        EXPECT_EQ(cfg.status().code(), ErrorCode::ParseError) << bad;
    }
    // In-grammar but out-of-range rates are a different code.
    for (const char *bad :
         {"channel.tag_mismatch=1.5", "channel.tag_mismatch=-0.1"}) {
        const auto cfg = fault::parseFaultSpec(bad);
        EXPECT_FALSE(cfg.ok()) << bad;
        EXPECT_EQ(cfg.status().code(), ErrorCode::InvalidArgument)
            << bad;
    }
}

// ---------------------------------------------------- injector core

TEST(Injector, UnarmedSiteNeverDrawsAndCreatesNoStats)
{
    obs::Registry reg;
    Injector inj(FaultConfig{}, 7, &reg);
    for (int i = 0; i < 100; ++i)
        for (const Site site : fault::allSites())
            EXPECT_FALSE(inj.shouldInject(site));
    // The byte-identity contract: an unarmed run's stats dump is
    // indistinguishable from a build without the subsystem.
    EXPECT_TRUE(reg.entries().empty());
    for (const Site site : fault::allSites()) {
        EXPECT_FALSE(inj.armed(site));
        EXPECT_EQ(inj.injected(site), 0u);
    }
}

TEST(Injector, RateOneAlwaysInjectsAndCountsLazily)
{
    obs::Registry reg;
    FaultConfig fc;
    fc.set(Site::ChannelTagMismatch, 1.0);
    Injector inj(fc, 7, &reg);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(inj.shouldInject(Site::ChannelTagMismatch));
    EXPECT_EQ(inj.injected(Site::ChannelTagMismatch), 5u);
    const auto &entries = reg.entries();
    const auto it =
        entries.find("fault.channel.tag_mismatch.injected");
    ASSERT_NE(it, entries.end());
    EXPECT_EQ(it->second.counter->value(), 5u);
    // Only the armed site's counters exist.
    EXPECT_EQ(entries.count("fault.pcie.replay.injected"), 0u);
}

TEST(Injector, DrawsAreDeterministicAcrossInstances)
{
    FaultConfig fc;
    fc.set(Site::ChannelTagMismatch, 0.5);
    Injector a(fc, 11), b(fc, 11), c(fc, 12);
    std::vector<bool> sa, sb, sc;
    for (int i = 0; i < 200; ++i) {
        sa.push_back(a.shouldInject(Site::ChannelTagMismatch));
        sb.push_back(b.shouldInject(Site::ChannelTagMismatch));
        sc.push_back(c.shouldInject(Site::ChannelTagMismatch));
    }
    EXPECT_EQ(sa, sb) << "same seed must draw the same sequence";
    EXPECT_NE(sa, sc) << "different seeds must diverge";
}

TEST(Injector, ArmingOneSiteDoesNotPerturbAnother)
{
    FaultConfig only_tag;
    only_tag.set(Site::ChannelTagMismatch, 0.5);
    FaultConfig both = only_tag;
    both.set(Site::PcieReplay, 0.5);
    Injector a(only_tag, 11), b(both, 11);
    std::vector<bool> sa, sb;
    for (int i = 0; i < 200; ++i) {
        sa.push_back(a.shouldInject(Site::ChannelTagMismatch));
        sb.push_back(b.shouldInject(Site::ChannelTagMismatch));
        // Interleaved draws on the second site must not shift the
        // first site's forked stream.
        b.shouldInject(Site::PcieReplay);
    }
    EXPECT_EQ(sa, sb);
}

TEST(Injector, RecoveryAccountingReachesCountersAndAccessors)
{
    obs::Registry reg;
    FaultConfig fc;
    fc.set(Site::PcieReplay, 1.0);
    Injector inj(fc, 7, &reg);
    EXPECT_TRUE(inj.shouldInject(Site::PcieReplay));
    inj.recordRecovery(Site::PcieReplay, time::us(10));
    inj.recordRecovery(Site::PcieReplay, time::us(5));
    EXPECT_EQ(inj.recovered(Site::PcieReplay), 2u);
    EXPECT_EQ(inj.retryTime(Site::PcieReplay), time::us(15));
    const auto &entries = reg.entries();
    const auto it = entries.find("fault.pcie.replay.retry_time_ps");
    ASSERT_NE(it, entries.end());
    EXPECT_EQ(it->second.counter->value(),
              static_cast<std::uint64_t>(time::us(15)));
}

TEST(Injector, CorruptFlipsExactlyOneByteDeterministically)
{
    FaultConfig fc;
    fc.set(Site::ChannelTagMismatch, 1.0);
    Injector a(fc, 7), b(fc, 7);
    std::vector<std::uint8_t> da(4096, 0x00), db(4096, 0x00);
    a.corrupt(da);
    b.corrupt(db);
    int flipped = 0;
    for (const std::uint8_t v : da)
        flipped += v != 0x00;
    EXPECT_EQ(flipped, 1);
    EXPECT_EQ(da, db) << "corruption position/value is seed-driven";
}

/** The injector's archived state, as bytes. */
std::vector<std::uint8_t>
archived(Injector &inj)
{
    snap::Saver saver;
    inj.snapState(saver);
    return saver.take();
}

/** Trial counting: unarmed sites count their trials but never draw,
 *  arm() resets the counts, and a cell armed after N unarmed trials
 *  draws exactly the stream of one armed from the start. */
TEST(Injector, UnarmedSitesCountTrialsWithoutDrawing)
{
    Injector inj(FaultConfig{}, 11);
    const auto before = archived(inj);
    for (int i = 0; i < 40; ++i) {
        EXPECT_FALSE(inj.shouldInject(Site::PcieReplay));
        if (i % 2 == 0) {
            EXPECT_FALSE(inj.shouldInject(Site::SpecMiss));
        }
    }
    const auto idx = [](Site s) { return static_cast<std::size_t>(s); };
    EXPECT_EQ(inj.trials()[idx(Site::PcieReplay)], 40u);
    EXPECT_EQ(inj.trials()[idx(Site::SpecMiss)], 20u);
    EXPECT_EQ(inj.trials()[idx(Site::TdxEptStorm)], 0u);
    EXPECT_EQ(archived(inj), before)
        << "an unarmed trial must not draw, and counts are not archived";

    FaultConfig fc;
    fc.set(Site::PcieReplay, 0.5);
    inj.arm(fc, 11);
    for (const std::uint64_t t : inj.trials())
        EXPECT_EQ(t, 0u) << "arm() resets the trial counts";
    Injector fresh(fc, 11);
    EXPECT_EQ(archived(inj), archived(fresh));
    std::vector<bool> late, early;
    for (int i = 0; i < 200; ++i) {
        late.push_back(inj.shouldInject(Site::PcieReplay));
        early.push_back(fresh.shouldInject(Site::PcieReplay));
    }
    EXPECT_EQ(late, early);
    EXPECT_EQ(inj.trials()[idx(Site::PcieReplay)], 200u)
        << "armed trials count too";
}

TEST(Injector, WouldInjectReplaysTheArmedDraws)
{
    FaultConfig fc;
    fc.set(Site::ChannelTagMismatch, 0.05);
    Injector inj(fc, 23);
    // The first trial that injects, drawn by a real injector.
    std::uint64_t first = 0;
    while (!inj.shouldInject(Site::ChannelTagMismatch))
        ++first;
    fault::TrialCounts trials{};
    trials[static_cast<std::size_t>(Site::ChannelTagMismatch)] = first;
    EXPECT_FALSE(fault::wouldInject(fc, 23, trials));
    trials[static_cast<std::size_t>(Site::ChannelTagMismatch)] = first + 1;
    EXPECT_TRUE(fault::wouldInject(fc, 23, trials));
    // Unarmed sites never fire, whatever their trial counts.
    fault::TrialCounts all{};
    all.fill(1000);
    EXPECT_FALSE(fault::wouldInject(FaultConfig{}, 23, all));
    FaultConfig sure;
    sure.set(Site::UvmThrash, 1.0);
    EXPECT_FALSE(fault::wouldInject(sure, 23, fault::TrialCounts{}));
}

TEST(Injector, BackoffDoublesPerAttempt)
{
    EXPECT_EQ(fault::retryBackoff(1), fault::kRetryBackoffBase);
    EXPECT_EQ(fault::retryBackoff(2), 2 * fault::kRetryBackoffBase);
    EXPECT_EQ(fault::retryBackoff(3), 4 * fault::kRetryBackoffBase);
}

// --------------------------------------------- wired recovery paths

TEST(FaultChannel, InjectedTagMismatchExhaustsFunctionalRetries)
{
    obs::Registry reg;
    FaultConfig fc;
    fc.set(Site::ChannelTagMismatch, 1.0);
    Injector inj(fc, 7, &reg);
    tee::ChannelConfig cfg;
    tee::SecureChannel ch(cfg, tee::SpdmSession::establish(5), &reg,
                          &inj);
    std::vector<std::uint8_t> src(4096, 0x5a), dst(4096);
    const Status st = ch.transferFunctional(src, dst);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::IntegrityError);
    // Every attempt re-seals, gets corrupted and fails to open.
    const auto &entries = reg.entries();
    const auto it = entries.find("crypto.aes_gcm.auth_failures");
    ASSERT_NE(it, entries.end());
    EXPECT_EQ(it->second.counter->value(),
              static_cast<std::uint64_t>(fault::kMaxTransferAttempts));
    EXPECT_EQ(inj.injected(Site::ChannelTagMismatch),
              static_cast<std::uint64_t>(fault::kMaxTransferAttempts));
}

TEST(FaultChannel, SingleTamperedAttemptRecoversOnRetry)
{
    obs::Registry reg;
    Injector inj;
    tee::ChannelConfig cfg;
    tee::SecureChannel ch(cfg, tee::SpdmSession::establish(5), &reg,
                          &inj);
    int calls = 0;
    inj.setStageHook([&](std::vector<std::uint8_t> &stage) {
        if (calls++ == 0)
            stage[11] ^= 0x40;  // tamper the first attempt only
    });
    std::vector<std::uint8_t> src(4096, 0x5a), dst(4096);
    EXPECT_TRUE(ch.transferFunctional(src, dst).ok());
    EXPECT_EQ(src, dst);
    const auto it = reg.entries().find("crypto.aes_gcm.auth_failures");
    ASSERT_NE(it, reg.entries().end());
    EXPECT_EQ(it->second.counter->value(), 1u);
}

TEST(FaultTiming, TagMismatchRetryMatchesHandComputedSchedule)
{
    FaultConfig fc;
    fc.set(Site::ChannelTagMismatch, 1.0);
    Injector inj(fc, 9);
    tee::ChannelConfig cfg;
    tee::SecureChannel ch(cfg, tee::SpdmSession::establish(9),
                          nullptr, &inj);
    pcie::PcieLink link;
    tee::TdxModule tdx(true);
    const Bytes bytes = size::mib(1);
    const auto timing = ch.scheduleTransfer(
        0, bytes, pcie::Direction::HostToDevice, link, tdx);
    // Rate 1.0 fails every attempt: the chunk burns the full attempt
    // budget (each attempt re-occupies all three pipeline stages),
    // waits out the exponential backoffs, and finally tears the
    // session down for a re-attestation.
    const SimTime attempt = ch.transferDuration(bytes, link);
    const SimTime expected = timing.fixed_overhead
        + fault::kMaxTransferAttempts * attempt
        + fault::retryBackoff(1) + fault::retryBackoff(2)
        + tee::SpdmSession::kHandshakeCost;
    EXPECT_EQ(timing.total.duration(), expected);
    EXPECT_EQ(inj.injected(Site::ChannelTagMismatch),
              static_cast<std::uint64_t>(fault::kMaxTransferAttempts));
    EXPECT_EQ(inj.recovered(Site::ChannelTagMismatch), 1u);
}

TEST(FaultTiming, PcieReplayResendsPayloadPlusFixedPenalty)
{
    FaultConfig fc;
    fc.set(Site::PcieReplay, 1.0);
    Injector inj(fc, 3);
    pcie::PcieLink link(pcie::LinkConfig{}, nullptr, &inj);
    const Bytes bytes = size::mib(1);
    const auto iv =
        link.dma(0, bytes, pcie::Direction::HostToDevice);
    EXPECT_EQ(iv.duration(), 2 * link.dmaDuration(bytes)
                                 + fault::kPcieReplayLatency);
    EXPECT_EQ(inj.injected(Site::PcieReplay), 1u);
    EXPECT_EQ(inj.recovered(Site::PcieReplay), 1u);
    EXPECT_EQ(inj.retryTime(Site::PcieReplay),
              link.dmaDuration(bytes) + fault::kPcieReplayLatency);
}

TEST(FaultTiming, EptStormChargesExtraRoundTrips)
{
    FaultConfig fc;
    fc.set(Site::TdxEptStorm, 1.0);
    Injector inj(fc, 3);
    tee::TdxModule tdx(true, nullptr, &inj);
    const SimTime t = tdx.guestHostRoundTrips(1);
    EXPECT_EQ(t, calib::kTdxHypercallLatency
                     * (1 + fault::kEptStormExits));
    EXPECT_EQ(inj.recovered(Site::TdxEptStorm), 1u);
}

TEST(FaultSpdm, InjectedHandshakeFailsWithTypedStatus)
{
    FaultConfig fc;
    fc.set(Site::SpdmHandshake, 1.0);
    Injector inj(fc, 3);
    const auto session = tee::SpdmSession::establish(7, &inj);
    EXPECT_FALSE(session.ok());
    EXPECT_EQ(session.status().code(), ErrorCode::HandshakeError);
}

TEST(FaultSpdm, UnarmedFallibleHandshakeMatchesInfallible)
{
    Injector inj;
    auto session = tee::SpdmSession::establish(7, &inj);
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(session.value().key(),
              tee::SpdmSession::establish(7).key());
    EXPECT_EQ(session.value().sessionId(),
              tee::SpdmSession::establish(7).sessionId());
}

// ------------------------------------------- reuse predicate, exact

/** Injections a cell's registry counted, over every site. */
std::uint64_t
injectedCount(const obs::Registry &reg)
{
    std::uint64_t n = 0;
    for (const Site site : fault::allSites())
        n += reg.counterValue(std::string("fault.") + fault::siteName(site)
                              + ".injected");
    return n;
}

/** Trial counts of @p group's unfaulted cell under @p seed, by the
 *  cold-split derivation: the prefix under the group's identity seed,
 *  the reseed at the cut, nothing armed, the suffix. */
fault::TrialCounts
unfaultedTrials(const snap::ForkGroupSpec &group, std::uint64_t seed)
{
    const workloads::Workload &w =
        workloads::WorkloadRegistry::instance().get(group.app);
    rt::Context ctx(group.sys);
    const auto prefix =
        w.runPrefix(ctx, group.params, w.defaultForkPoint());
    workloads::WorkloadParams params = group.params;
    params.seed = seed;
    ctx.reseedAtFork(seed);
    const auto reseeded = w.reseedResume(*prefix, params);
    ctx.armFaults(FaultConfig{});
    w.runSuffix(ctx, params, reseeded ? *reseeded : *prefix);
    return ctx.faultInjector().trials();
}

/** The reuse predicate is exact: given the unfaulted cell's trial
 *  counts, wouldInject() says a cell fires exactly when its cold-split
 *  replay injects, for every site, rate, seed and overlap tier. */
TEST(WouldInject, MatchesColdSplitInjectionsOverEverySite)
{
    const std::uint64_t seeds[] = {1, 2, 3};
    std::size_t fires = 0, quiet = 0;
    for (const char *app : {"gaussian", "bigxfer"}) {
        for (const tee::OverlapMode tier :
             {tee::OverlapMode::None, tee::OverlapMode::DoubleBuffer,
              tee::OverlapMode::Speculative}) {
            snap::ForkGroupSpec group;
            group.app = app;
            group.sys.cc = true;
            group.sys.channel.overlap = tier;
            std::vector<std::uint64_t> cell_seeds;
            for (const std::uint64_t seed : seeds) {
                for (const Site site : fault::allSites()) {
                    for (const double rate : {0.001, 0.05, 0.5, 1.0}) {
                        snap::ForkCell cell;
                        cell.faults.set(site, rate);
                        group.cells.push_back(cell);
                        cell_seeds.push_back(seed);
                    }
                }
            }
            grid::shareAcrossSeeds(group, cell_seeds);
            const auto cold = snap::runForkGroup(
                group, {snap::ForkPoint::Mode::Auto, 0.0, {}},
                /*no_snapshot=*/true);
            std::map<std::uint64_t, fault::TrialCounts> trials;
            for (const std::uint64_t seed : seeds)
                trials[seed] = unfaultedTrials(group, seed);
            for (std::size_t i = 0; i < group.cells.size(); ++i) {
                const snap::ForkCell &cell = group.cells[i];
                const std::string tag = std::string(app) + "/"
                    + tee::overlapModeName(tier) + " cell "
                    + std::to_string(i);
                ASSERT_TRUE(cold.cells[i].ok)
                    << tag << ": " << cold.cells[i].error;
                const bool fired =
                    injectedCount(*cold.cells[i].result.stats) > 0;
                EXPECT_EQ(fault::wouldInject(cell.faults, *cell.seed,
                                             trials[*cell.seed]),
                          fired)
                    << tag;
                ++(fired ? fires : quiet);
            }
        }
    }
    // Both answers must occur, or the test shows nothing.
    EXPECT_GT(fires, 0u);
    EXPECT_GT(quiet, 0u);
}

// -------------------------------------------------------- campaigns

fault::CampaignSpec
smallCampaign()
{
    fault::CampaignSpec spec;
    spec.app = "atax";
    spec.sites = {Site::ChannelTagMismatch, Site::PcieReplay};
    spec.rates = {1.0};
    spec.seeds = {1, 2};
    return spec;
}

TEST(Campaign, ExpandsBaselineFirstThenSiteMajor)
{
    const auto spec = smallCampaign();
    EXPECT_EQ(spec.cellCount(), 6u);
    const auto cells = fault::expandCampaign(spec);
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_TRUE(cells[0].baseline);
    EXPECT_EQ(cells[0].label(spec), "atax.baseline.s1");
    EXPECT_EQ(cells[1].label(spec),
              "atax.channel.tag_mismatch.r1.s1");
    EXPECT_EQ(cells[2].label(spec), "atax.pcie.replay.r1.s1");
    EXPECT_TRUE(cells[3].baseline);
    EXPECT_EQ(cells[3].seed, 2u);
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(Campaign, RejectsEmptyOrOutOfRangeGrids)
{
    auto spec = smallCampaign();
    spec.sites.clear();
    EXPECT_THROW(runFaultCampaign(spec, 1), FatalError);
    spec = smallCampaign();
    spec.rates = {0.0};
    EXPECT_THROW(runFaultCampaign(spec, 1), FatalError);
    spec = smallCampaign();
    spec.rates = {1.5};
    EXPECT_THROW(runFaultCampaign(spec, 1), FatalError);
    spec = smallCampaign();
    spec.seeds.clear();
    EXPECT_THROW(runFaultCampaign(spec, 1), FatalError);
}

/** The tentpole guarantee, campaign edition: merged outputs are a
 *  pure function of the spec, independent of the worker count. */
TEST(Campaign, OutputsAreByteIdenticalAcrossJobs)
{
    const auto spec = smallCampaign();
    const auto serial = runFaultCampaign(spec, 1);
    const auto parallel = runFaultCampaign(spec, 4);
    ASSERT_EQ(serial.cells.size(), 6u);
    EXPECT_TRUE(serial.allOk());
    EXPECT_TRUE(parallel.allOk());

    std::ostringstream csv1, csv4, json1, json4, stats1, stats4;
    writeCampaignCsv(serial, csv1);
    writeCampaignCsv(parallel, csv4);
    EXPECT_EQ(csv1.str(), csv4.str());
    writeCampaignJson(serial, json1);
    writeCampaignJson(parallel, json4);
    EXPECT_EQ(json1.str(), json4.str());
    writeCampaignStats(serial, stats1);
    writeCampaignStats(parallel, stats4);
    EXPECT_EQ(stats1.str(), stats4.str())
        << "merged stats must be byte-identical across --jobs";
}

TEST(Campaign, OverlapAxisExpandsTierOuterWithTierLabels)
{
    auto spec = smallCampaign();
    spec.overlaps = {tee::OverlapMode::None,
                     tee::OverlapMode::Speculative};
    EXPECT_EQ(spec.cellCount(), 12u);
    const auto cells = fault::expandCampaign(spec);
    ASSERT_EQ(cells.size(), 12u);
    // Tier is the outermost axis; the serial tier keeps the
    // pre-overlap labels byte-stable, pipelined tiers append their
    // name after the seed.
    EXPECT_EQ(cells[0].overlap, tee::OverlapMode::None);
    EXPECT_EQ(cells[0].label(spec), "atax.baseline.s1");
    EXPECT_EQ(cells[5].overlap, tee::OverlapMode::None);
    EXPECT_EQ(cells[6].overlap, tee::OverlapMode::Speculative);
    EXPECT_TRUE(cells[6].baseline);
    EXPECT_EQ(cells[6].label(spec), "atax.baseline.s1.speculative");
    EXPECT_EQ(cells[7].label(spec),
              "atax.channel.tag_mismatch.r1.s1.speculative");
    EXPECT_EQ(cells[9].seed, 2u) << "seed spins inside the tier";
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(Campaign, RejectsEmptyOverlapList)
{
    auto spec = smallCampaign();
    spec.overlaps.clear();
    EXPECT_THROW(runFaultCampaign(spec, 1), FatalError);
}

TEST(Campaign, SlowdownAnchorsToTheSameTierBaseline)
{
    fault::CampaignSpec spec;
    spec.app = "atax";
    spec.sites = {Site::PcieReplay};
    spec.rates = {1.0};
    spec.seeds = {1};
    spec.overlaps = {tee::OverlapMode::None,
                     tee::OverlapMode::Speculative};
    const auto res = runFaultCampaign(spec, 2);
    ASSERT_TRUE(res.allOk());
    ASSERT_EQ(res.cells.size(), 4u);
    // [0]=none baseline, [1]=none faulted, [2]=spec baseline,
    // [3]=spec faulted.  Each faulted cell divides by its own
    // tier's baseline, and the tiers genuinely differ.
    const auto e2e = [&](std::size_t i) {
        return static_cast<double>(res.cells[i].result.end_to_end);
    };
    EXPECT_DOUBLE_EQ(res.cells[1].slowdown, e2e(1) / e2e(0));
    EXPECT_DOUBLE_EQ(res.cells[3].slowdown, e2e(3) / e2e(2));
    EXPECT_NE(e2e(0), e2e(2))
        << "the speculative tier must change the baseline timing";
    EXPECT_DOUBLE_EQ(res.cells[0].slowdown, 1.0);
    EXPECT_DOUBLE_EQ(res.cells[2].slowdown, 1.0);
}

/** Snapshot-tree campaign: a multi-tier, multi-seed grid with a
 *  chained fork point merges byte-identically to the cold-split
 *  control, across worker counts. */
TEST(Campaign, OverlapAxisForkMatchesColdAcrossJobs)
{
    fault::CampaignSpec spec;
    spec.app = "gaussian";
    spec.sites = {Site::PcieReplay};
    spec.rates = {0.5};
    spec.seeds = {1, 2};
    spec.overlaps = {tee::OverlapMode::None,
                     tee::OverlapMode::DoubleBuffer,
                     tee::OverlapMode::Speculative};
    spec.fork_point = {snap::ForkPoint::Mode::Auto, 0.0, {0.95}};

    spec.no_snapshot = false;
    const auto fork = runFaultCampaign(spec, 4);
    spec.no_snapshot = true;
    const auto cold = runFaultCampaign(spec, 1);

    ASSERT_EQ(fork.cells.size(), 12u);
    ASSERT_EQ(cold.cells.size(), 12u);
    EXPECT_EQ(fork.snapshot_hits, 12u)
        << "every cell of every tier forks from the tree";
    EXPECT_EQ(cold.snapshot_hits, 0u);
    EXPECT_GT(fork.peak_resident_bytes, 0u);

    std::ostringstream csv_f, csv_c, json_f, json_c, st_f, st_c;
    writeCampaignCsv(fork, csv_f);
    writeCampaignCsv(cold, csv_c);
    EXPECT_EQ(csv_f.str(), csv_c.str());
    writeCampaignJson(fork, json_f);
    writeCampaignJson(cold, json_c);
    EXPECT_EQ(json_f.str(), json_c.str());
    writeCampaignStats(fork, st_f);
    writeCampaignStats(cold, st_c);
    EXPECT_EQ(st_f.str(), st_c.str())
        << "merged stats must be byte-identical fork vs cold";
}

TEST(Campaign, PublishesSnapshotGauges)
{
    fault::CampaignSpec spec;
    spec.app = "gaussian";
    spec.sites = {Site::PcieReplay};
    spec.rates = {0.5};
    spec.seeds = {1, 2};
    spec.fork_point = {snap::ForkPoint::Mode::Auto, 0.0, {}};
    obs::Registry reg;
    const auto res = runFaultCampaign(spec, 1, &reg);
    ASSERT_TRUE(res.allOk());
    EXPECT_GT(res.snapshot_hits, 0u);
    EXPECT_EQ(static_cast<std::size_t>(
                  reg.gauge("host.sweep.snapshot_hits").value()),
              res.snapshot_hits);
    EXPECT_EQ(
        static_cast<std::size_t>(
            reg.gauge("host.sweep.snapshot_resident_bytes").value()),
        res.peak_resident_bytes);
}

TEST(Campaign, FaultedCellsInjectAndSlowDown)
{
    const auto res = runFaultCampaign(smallCampaign(), 2);
    ASSERT_TRUE(res.allOk());
    for (const auto &cell : res.cells) {
        if (cell.cell.baseline) {
            EXPECT_EQ(cell.injected, 0u);
            EXPECT_DOUBLE_EQ(cell.slowdown, 1.0);
        } else {
            // Rate 1.0 on wired sites: every draw injects, and every
            // recovery stretches the end-to-end time.
            EXPECT_GT(cell.injected, 0u)
                << cell.cell.label(res.spec);
            EXPECT_GT(cell.slowdown, 1.0)
                << cell.cell.label(res.spec);
        }
    }
}

TEST(Campaign, FailedCellKeepsItsRowWithTheError)
{
    fault::CampaignSpec spec;
    spec.app = "atax";
    spec.sites = {Site::SpdmHandshake};
    spec.rates = {1.0};  // every handshake attempt fails: fatal
    spec.seeds = {1};
    const auto res = runFaultCampaign(spec, 1);
    EXPECT_FALSE(res.allOk());
    EXPECT_EQ(res.failures(), 1u);
    std::ostringstream csv;
    writeCampaignCsv(res, csv);
    EXPECT_NE(csv.str().find("failed"), std::string::npos);
    EXPECT_NE(csv.str().find("SPDM"), std::string::npos);
}

} // namespace
} // namespace hcc
