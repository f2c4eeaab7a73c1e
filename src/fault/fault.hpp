/**
 * @file
 * Deterministic fault injection across the CC stack.
 *
 * The paper's pipeline (Sec. VI-A) has real failure modes the base
 * cost model never exercises: an AES-GCM tag mismatch on the bounce
 * path, a failed SPDM handshake, bounce-slot exhaustion, PCIe replay,
 * TDX EPT-violation storms, UVM thrashing.  Each is a *recoverable*
 * event with a latency cost (retry, backoff, re-attestation,
 * stall-and-drain), and the point of this subsystem is to measure
 * that cost: an Injector owns one forked PCG32 stream per fault site,
 * draws a Bernoulli trial wherever the site is wired into the stack,
 * and accounts every recovery as `fault.*` counters plus (on the
 * channel path) trace spans.
 *
 * Determinism contract:
 *  - A site with rate 0 draws nothing, creates no stats and records
 *    no trace events — an all-rates-zero run is byte-identical to a
 *    build without the subsystem.  It still counts its trials.
 *  - Each site forks its own stream from (seed, site index), so
 *    arming one site never perturbs the draw sequence of another.
 *  - Until a run's first injection, nothing it simulates depends on
 *    the rates, so an armed run whose draws all miss is call for
 *    call the unarmed one (wouldInject() decides this up front).
 *  - The Injector lives per Context; parallel campaign cells never
 *    share one, so schedules are independent of worker count.
 */

#ifndef HCC_FAULT_FAULT_HPP
#define HCC_FAULT_FAULT_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/registry.hpp"

namespace hcc::trace { class Tracer; }

namespace hcc::fault {

/** The injectable fault sites, one per wired component. */
enum class Site
{
    ChannelTagMismatch, //!< AES-GCM auth failure on a bounce chunk
    SpdmHandshake,      //!< SPDM session establishment failure
    BounceExhausted,    //!< bounce-buffer slots all busy; drain first
    PcieReplay,         //!< link-layer replay: payload retransmitted
    TdxEptStorm,        //!< EPT-violation storm: extra guest exits
    UvmThrash,          //!< migrated pages faulted right back
    SpecMiss,           //!< speculative IV prediction missed; re-seal
};

inline constexpr int kSiteCount = 7;

/** All sites, in enum order. */
const std::array<Site, kSiteCount> &allSites();

/** Canonical dotted name, e.g. "channel.tag_mismatch". */
const char *siteName(Site site);

/** Parse a dotted site name; nullopt when unknown. */
std::optional<Site> parseSite(const std::string &name);

/*
 * Recovery-model constants.  These live here rather than in
 * calibration.hpp because they are not measured host parameters: they
 * model the recovery *policy* (attempt budgets, backoff schedule) and
 * representative penalty latencies.
 */

/** Transfer-chunk attempts before the channel gives up (>= 1). */
inline constexpr int kMaxTransferAttempts = 3;
/** SPDM handshake attempts before session setup is fatal. */
inline constexpr int kMaxHandshakeAttempts = 3;
/** First retry backoff; doubles per subsequent attempt. */
inline constexpr SimTime kRetryBackoffBase = time::us(50.0);
/** Fixed link-layer penalty per PCIe replay, on top of the resend. */
inline constexpr SimTime kPcieReplayLatency = time::us(10.0);
/** Extra guest<->host round trips charged by one EPT storm. */
inline constexpr int kEptStormExits = 32;

/** Exponential backoff before retry @p attempt (1-based). */
constexpr SimTime
retryBackoff(int attempt)
{
    return kRetryBackoffBase * (SimTime{1} << (attempt - 1));
}

/** Per-site injection rates in [0, 1]; all zero by default. */
struct FaultConfig
{
    std::array<double, kSiteCount> rates{};

    double
    rate(Site site) const
    {
        return rates[static_cast<std::size_t>(site)];
    }

    void
    set(Site site, double rate)
    {
        rates[static_cast<std::size_t>(site)] = rate;
    }

    /** True when any site is armed. */
    bool
    any() const
    {
        for (const double r : rates)
            if (r > 0.0)
                return true;
        return false;
    }
};

/**
 * Parse a fault spec: comma-separated "site=rate" pairs, e.g.
 * "channel.tag_mismatch=0.05,pcie.replay=0.01".  Rates must be in
 * [0, 1].  An empty spec yields the all-zero config.
 */
Result<FaultConfig> parseFaultSpec(const std::string &spec);

/** Bernoulli trials per site, indexed by Site. */
using TrialCounts = std::array<std::uint64_t, kSiteCount>;

/**
 * Whether an Injector armed with @p config and @p seed would inject
 * within @p trials: re-forks the site streams exactly as
 * Injector::arm() does and draws at most `trials[site]` uniforms for
 * each armed site.  Given the trial counts of an unarmed run, this is
 * exactly whether the armed run would differ from it.  Pure.
 */
bool wouldInject(const FaultConfig &config, std::uint64_t seed,
                 const TrialCounts &trials);

/** Hook over the staged (encrypted) bounce-buffer bytes of a chunk. */
using StageHook = std::function<void(std::vector<std::uint8_t> &)>;

/**
 * Seed-driven fault source shared by all wired components of one
 * Context.  Not thread-safe — like the Registry it feeds, one
 * Injector belongs to one simulation cell.
 */
class Injector
{
  public:
    /**
     * @param config per-site rates; unarmed sites never draw.
     * @param seed forked per site, independent of component streams.
     * @param obs optional sink; `fault.<site>.*` counters are created
     *        lazily on first injection so unarmed runs keep their
     *        stats dumps byte-identical.
     */
    explicit Injector(const FaultConfig &config = FaultConfig{},
                      std::uint64_t seed = 1,
                      obs::Registry *obs = nullptr);

    /**
     * Bernoulli trial at @p site's configured rate.  Unarmed sites
     * return false without drawing.  Counts the trial, armed or not,
     * and an injection on success.
     */
    bool shouldInject(Site site);

    /** Account a completed recovery and its added latency. */
    void recordRecovery(Site site, SimTime retry_time);

    /**
     * Account a recovery with a known timeline position; also records
     * an EventKind::Fault span "fault.<site>" when a tracer is
     * attached.
     */
    void recordRecoverySpan(Site site, SimTime start, SimTime end);

    /** Attach the trace sink recovery spans are recorded into. */
    void attachTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Deterministically corrupt one byte of @p data (the modeled
     * effect of a tag-mismatch fault on a staged chunk).  Uses a
     * dedicated stream so it never perturbs site draws.
     */
    void corrupt(std::vector<std::uint8_t> &data);

    /**
     * Install a hook that observes or mutates every staged chunk on
     * the functional transfer path — the public injection point that
     * replaced SecureChannel's test-only tamper parameter.  Integrity
     * tests and fault campaigns share this mechanism.
     */
    void setStageHook(StageHook hook) { stage_hook_ = std::move(hook); }

    const StageHook &stageHook() const { return stage_hook_; }

    bool armed(Site site) const { return state(site).rate > 0.0; }

    std::uint64_t
    injected(Site site) const
    {
        return state(site).injected;
    }

    std::uint64_t
    recovered(Site site) const
    {
        return state(site).recovered;
    }

    SimTime
    retryTime(Site site) const
    {
        return state(site).retry_time;
    }

    const FaultConfig &config() const { return config_; }

    /** Trials per site since the last arm(), armed or not.  Plain
     *  counts: no draw, no stat, not archived. */
    const TrialCounts &trials() const { return trials_; }

    /**
     * Re-arm the injector with a new config and seed, exactly as if
     * it had been constructed with them: all site streams and the
     * corruption stream are re-forked from @p seed, injection and
     * trial counts reset, and the lazy `fault.<site>.*` counter
     * pointers cleared (they are re-resolved on first injection).
     * Used by campaign forking to arm a cell's faults at the fork
     * point so every cell shares one unarmed warmup prefix.
     */
    void arm(const FaultConfig &config, std::uint64_t seed);

    /**
     * Snapshot support: config, per-site rate/stream/counts and the
     * corruption stream.  Cached counter pointers are nulled on load;
     * they re-resolve lazily against the (restored) registry.
     */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        ar.pod(config_.rates);
        for (auto &st : sites_) {
            ar.pod(st.rate);
            st.rng.snapState(ar);
            ar.pod(st.injected);
            ar.pod(st.recovered);
            ar.pod(st.retry_time);
            if constexpr (Ar::kLoading) {
                st.obs_injected = nullptr;
                st.obs_recovered = nullptr;
                st.obs_retry_time_ps = nullptr;
            }
        }
        corrupt_rng_.snapState(ar);
    }

  private:
    struct SiteState
    {
        double rate = 0.0;
        Rng rng{0, 0};
        std::uint64_t injected = 0;
        std::uint64_t recovered = 0;
        SimTime retry_time = 0;
        obs::Counter *obs_injected = nullptr;
        obs::Counter *obs_recovered = nullptr;
        obs::Counter *obs_retry_time_ps = nullptr;
    };

    SiteState &state(Site site) { return sites_[static_cast<std::size_t>(site)]; }
    const SiteState &
    state(Site site) const
    {
        return sites_[static_cast<std::size_t>(site)];
    }

    /** Create the lazy counters for @p site on first use. */
    void ensureCounters(Site site, SiteState &st);

    FaultConfig config_;
    std::array<SiteState, kSiteCount> sites_;
    TrialCounts trials_{};
    Rng corrupt_rng_;
    obs::Registry *obs_ = nullptr;
    trace::Tracer *tracer_ = nullptr;
    StageHook stage_hook_;
};

} // namespace hcc::fault

#endif // HCC_FAULT_FAULT_HPP
