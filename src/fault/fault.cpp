#include "fault/fault.hpp"

#include "common/log.hpp"
#include "common/text.hpp"
#include "trace/tracer.hpp"

namespace hcc::fault {

namespace {

/** Stream salt for the injector's master fork; arbitrary constant. */
constexpr std::uint64_t kFaultStream = 0xfa177;

const char *const kSiteNames[kSiteCount] = {
    "channel.tag_mismatch",
    "spdm.handshake",
    "bounce.exhausted",
    "pcie.replay",
    "tdx.ept_storm",
    "uvm.thrash",
    "spec.miss",
};

} // namespace

const std::array<Site, kSiteCount> &
allSites()
{
    static const std::array<Site, kSiteCount> sites = {
        Site::ChannelTagMismatch, Site::SpdmHandshake,
        Site::BounceExhausted,    Site::PcieReplay,
        Site::TdxEptStorm,        Site::UvmThrash,
        Site::SpecMiss,
    };
    return sites;
}

const char *
siteName(Site site)
{
    return kSiteNames[static_cast<std::size_t>(site)];
}

std::optional<Site>
parseSite(const std::string &name)
{
    for (const Site site : allSites())
        if (name == siteName(site))
            return site;
    return std::nullopt;
}

Result<FaultConfig>
parseFaultSpec(const std::string &spec)
{
    FaultConfig config;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return errorf(ErrorCode::ParseError,
                          "fault spec item '%s' is not site=rate",
                          item.c_str());
        const std::string name = item.substr(0, eq);
        const auto site = parseSite(name);
        if (!site)
            return errorf(ErrorCode::ParseError,
                          "unknown fault site '%s'", name.c_str());
        const auto parsed = parseFinite(item.substr(eq + 1));
        if (!parsed.ok())
            return errorf(ErrorCode::ParseError,
                          "bad fault rate for site '%s': %s",
                          name.c_str(),
                          parsed.status().message().c_str());
        const double rate = *parsed;
        if (rate < 0.0 || rate > 1.0)
            return errorf(ErrorCode::InvalidArgument,
                          "fault rate %g for site '%s' outside [0, 1]",
                          rate, name.c_str());
        config.set(*site, rate);
    }
    return config;
}

Injector::Injector(const FaultConfig &config, std::uint64_t seed,
                   obs::Registry *obs)
    : config_(config), corrupt_rng_(0, 0), obs_(obs)
{
    arm(config, seed);
}

void
Injector::arm(const FaultConfig &config, std::uint64_t seed)
{
    config_ = config;
    Rng master(seed, kFaultStream);
    for (int i = 0; i < kSiteCount; ++i) {
        auto &st = sites_[static_cast<std::size_t>(i)];
        st.rate = config_.rates[static_cast<std::size_t>(i)];
        HCC_ASSERT(st.rate >= 0.0 && st.rate <= 1.0,
                   "fault rate outside [0, 1]");
        // Fork unconditionally so adding a site later never reseeds
        // the streams of existing ones.
        st.rng = master.fork(static_cast<std::uint64_t>(i) + 1);
        st.injected = 0;
        st.recovered = 0;
        st.retry_time = 0;
        st.obs_injected = nullptr;
        st.obs_recovered = nullptr;
        st.obs_retry_time_ps = nullptr;
    }
    corrupt_rng_ = master.fork(0xc0ffee);
}

bool
Injector::shouldInject(Site site)
{
    auto &st = state(site);
    if (st.rate <= 0.0)
        return false;
    // uniform() is in [0, 1): rate 1 always fires, rate 0 never.
    if (st.rng.uniform() >= st.rate)
        return false;
    ++st.injected;
    ensureCounters(site, st);
    if (st.obs_injected)
        st.obs_injected->bump(1);
    return true;
}

void
Injector::recordRecovery(Site site, SimTime retry_time)
{
    auto &st = state(site);
    ++st.recovered;
    st.retry_time += retry_time;
    ensureCounters(site, st);
    if (st.obs_recovered) {
        st.obs_recovered->bump(1);
        st.obs_retry_time_ps->bump(
            static_cast<std::uint64_t>(retry_time));
    }
}

void
Injector::recordRecoverySpan(Site site, SimTime start, SimTime end)
{
    recordRecovery(site, end - start);
    if (tracer_) {
        trace::TraceEvent event;
        event.kind = trace::EventKind::Fault;
        event.start = start;
        event.end = end;
        tracer_->record(event,
                        std::string("fault.") + siteName(site));
    }
}

void
Injector::corrupt(std::vector<std::uint8_t> &data)
{
    if (data.empty())
        return;
    const auto pos = static_cast<std::size_t>(
        corrupt_rng_.next64() % data.size());
    const auto bit = static_cast<std::uint8_t>(
        1u << (corrupt_rng_.next32() & 7u));
    data[pos] ^= bit;
}

void
Injector::ensureCounters(Site site, SiteState &st)
{
    if (!obs_ || st.obs_injected)
        return;
    const std::string prefix = std::string("fault.") + siteName(site);
    st.obs_injected = &obs_->counter(prefix + ".injected");
    st.obs_recovered = &obs_->counter(prefix + ".recovered");
    st.obs_retry_time_ps = &obs_->counter(prefix + ".retry_time_ps");
}

} // namespace hcc::fault
