/**
 * @file
 * The deterministic request-arrival process and the exact percentile
 * helper of the serving simulator.
 */

#include "serve/serve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"

namespace hcc::serve {

namespace {

/** Stream salt of the arrival-trace RNG: the trace is drawn from its
 *  own stream so it never interleaves with simulator draws. */
constexpr std::uint64_t kArrivalStream = 0x53455256'41525231ULL;

/** Product of every burst window covering request fraction @p frac. */
double
burstMultiplier(const ServeSpec &spec, double frac)
{
    double mult = 1.0;
    for (const auto &w : spec.bursts)
        if (frac >= w.begin && frac < w.end)
            mult *= w.multiplier;
    return mult;
}

/** Sample a length in [mean/2, 3*mean/2] with a floor of @p lo. */
int
sampleLen(Rng &rng, int mean, int lo)
{
    const auto min_len =
        static_cast<std::int64_t>(std::max(lo, mean / 2));
    const auto max_len = std::max(
        min_len, static_cast<std::int64_t>(mean) * 3 / 2);
    return static_cast<int>(rng.uniformInt(min_len, max_len));
}

} // namespace

std::vector<Request>
buildArrivalTrace(const ServeSpec &spec, double load)
{
    if (load <= 0.0)
        fatal("serve: offered load must be positive (got %g)", load);
    if (spec.requests <= 0)
        fatal("serve: request count must be positive (got %d)",
              spec.requests);
    if (spec.prompt_len <= 0 || spec.gen_len <= 0)
        fatal("serve: prompt/gen lengths must be positive");
    for (const auto &w : spec.bursts)
        if (!(w.begin >= 0.0 && w.begin < w.end && w.end <= 1.0)
            || w.multiplier <= 0.0)
            fatal("serve: bad burst window %g:%g:%g", w.begin, w.end,
                  w.multiplier);

    Rng rng(spec.seed, kArrivalStream);
    std::vector<Request> trace;
    trace.reserve(static_cast<std::size_t>(spec.requests));
    SimTime t = 0;
    for (int i = 0; i < spec.requests; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(spec.requests);
        const double rate = load * burstMultiplier(spec, frac);
        // Exponential inter-arrival via inverse CDF; log1p(-u) is
        // finite because uniform() < 1.
        const double dt_s = -std::log1p(-rng.uniform()) / rate;
        t += time::sec(dt_s);
        Request r;
        r.id = i;
        r.arrival = t;
        r.prompt_len = sampleLen(rng, spec.prompt_len, 16);
        r.gen_len = sampleLen(rng, spec.gen_len, 4);
        trace.push_back(r);
    }
    return trace;
}

SimTime
percentileNearestRank(const std::vector<SimTime> &sorted, double pct)
{
    if (sorted.empty())
        return 0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

Result<std::vector<BurstWindow>>
parseBurstList(const std::string &csv)
{
    return parseList(csv, [](const std::string &item)
                              -> Result<BurstWindow> {
        std::vector<double> field;
        for (std::size_t begin = 0;;) {
            const std::size_t colon = item.find(':', begin);
            const auto v = parseFinite(
                std::string_view(item).substr(begin, colon - begin));
            if (!v.ok())
                return errorf(ErrorCode::ParseError,
                              "burst window '%s': %s", item.c_str(),
                              v.status().message().c_str());
            field.push_back(*v);
            if (colon == std::string::npos)
                break;
            begin = colon + 1;
        }
        if (field.size() != 3)
            return errorf(ErrorCode::ParseError,
                          "burst window '%s' is not "
                          "begin:end:multiplier",
                          item.c_str());
        const BurstWindow w{field[0], field[1], field[2]};
        if (!(w.begin >= 0.0 && w.begin < w.end && w.end <= 1.0)
            || w.multiplier <= 0.0)
            return errorf(ErrorCode::ParseError,
                          "burst window '%s' out of range "
                          "(0 <= begin < end <= 1, multiplier > 0)",
                          item.c_str());
        return w;
    });
}

} // namespace hcc::serve
