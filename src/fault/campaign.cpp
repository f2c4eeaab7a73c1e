#include "fault/campaign.hpp"

#include <cstdio>
#include <map>
#include <utility>

#include "common/log.hpp"
#include "common/text.hpp"

namespace hcc::fault {

std::size_t
CampaignSpec::cellCount() const
{
    return overlaps.size() * seeds.size()
        * (1 + sites.size() * rates.size());
}

std::string
CampaignCell::label(const CampaignSpec &spec) const
{
    std::string out = spec.app;
    if (baseline) {
        out += ".baseline";
    } else {
        out += ".";
        out += siteName(site);
        out += ".r" + formatG(rate);
    }
    out += ".s" + std::to_string(seed);
    // Single-tier `none` campaigns keep their historical labels.
    if (overlap != tee::OverlapMode::None) {
        out += ".";
        out += tee::overlapModeName(overlap);
    }
    return out;
}

std::vector<CampaignCell>
expandCampaign(const CampaignSpec &spec)
{
    std::vector<CampaignCell> cells;
    cells.reserve(spec.cellCount());
    for (tee::OverlapMode tier : spec.overlaps) {
        for (std::uint64_t seed : spec.seeds) {
            CampaignCell base;
            base.index = cells.size();
            base.baseline = true;
            base.seed = seed;
            base.overlap = tier;
            cells.push_back(base);
            for (Site site : spec.sites) {
                for (double rate : spec.rates) {
                    CampaignCell cell;
                    cell.index = cells.size();
                    cell.site = site;
                    cell.rate = rate;
                    cell.seed = seed;
                    cell.overlap = tier;
                    cells.push_back(cell);
                }
            }
        }
    }
    return cells;
}

CampaignResult
runFaultCampaign(const CampaignSpec &spec, int jobs,
                 obs::Registry *campaign_obs)
{
    if (spec.sites.empty())
        fatal("fault campaign needs at least one site");
    if (spec.rates.empty())
        fatal("fault campaign needs at least one rate");
    if (spec.seeds.empty())
        fatal("fault campaign needs at least one seed");
    if (spec.overlaps.empty())
        fatal("fault campaign needs at least one overlap tier");
    for (double rate : spec.rates)
        if (rate <= 0.0 || rate > 1.0)
            fatal("campaign rate %g out of (0, 1]", rate);

    auto cells = expandCampaign(spec);
    // Finish suite registration on this thread before workers look
    // apps up (same reasoning as runSweep()).
    workloads::WorkloadRegistry::instance();

    auto tierGroup = [&](tee::OverlapMode tier) {
        grid::Group group;
        group.spec.app = spec.app;
        group.spec.sys.cc = true;
        group.spec.sys.channel.crypto_workers = spec.crypto_workers;
        group.spec.sys.channel.tee_io = spec.tee_io;
        group.spec.sys.channel.overlap = tier;
        group.spec.params.uvm = spec.uvm;
        group.spec.params.scale = spec.scale;
        return group;
    };
    auto armCell = [&](grid::Group &group, std::size_t i) {
        snap::ForkCell fork_cell;
        if (!cells[i].baseline)
            fork_cell.faults.set(cells[i].site, cells[i].rate);
        group.spec.cells.push_back(std::move(fork_cell));
        group.rows.push_back(i);
    };

    std::vector<grid::Group> groups;
    if (spec.fork_point.mode != snap::ForkPoint::Mode::None) {
        // Split modes: one snapshot tree per overlap tier.  The
        // tier's whole (seed x site x rate) block forks off one
        // prefix simulated under a seed-independent identity seed;
        // every cell switches the restored state to its own seed at
        // the fork point, then arms its faults (cross-seed prefix
        // sharing).  The cold control (--no-snapshot) replays the
        // identical derivation inside runForkGroup, so grouping must
        // not depend on the snapshot flag.
        const std::size_t per_tier = cells.size() / spec.overlaps.size();
        for (std::size_t t = 0; t < spec.overlaps.size(); ++t) {
            grid::Group group = tierGroup(spec.overlaps[t]);
            std::vector<std::uint64_t> seeds;
            for (std::size_t i = t * per_tier; i < (t + 1) * per_tier;
                 ++i) {
                armCell(group, i);
                seeds.push_back(cells[i].seed);
            }
            grid::shareAcrossSeeds(group.spec, seeds);
            groups.push_back(std::move(group));
        }
    } else {
        // Legacy mode: faults armed at construction and every cell
        // simulated start to finish, so cells share nothing — each
        // is its own pool task.
        for (std::size_t i = 0; i < cells.size(); ++i) {
            grid::Group group = tierGroup(cells[i].overlap);
            group.spec.sys.seed = cells[i].seed;
            group.spec.params.seed = cells[i].seed;
            armCell(group, i);
            groups.push_back(std::move(group));
        }
    }

    CampaignResult result;
    result.spec = spec;
    grid::place(result, std::move(cells));
    grid::runGroups(result, jobs, groups, spec.fork_point,
                    spec.no_snapshot);

    // Post-pool, main-thread: pull the fault counters out of each
    // cell and anchor slowdowns to the same-tier, same-seed baseline.
    std::map<std::pair<int, std::uint64_t>, SimTime> baseline_e2e;
    for (const auto &c : result.cells)
        if (c.ok && c.cell.baseline)
            baseline_e2e[{static_cast<int>(c.cell.overlap),
                          c.cell.seed}] = c.result.end_to_end;
    for (auto &c : result.cells) {
        if (!c.ok)
            continue;
        if (!c.cell.baseline && c.result.stats) {
            const std::string prefix =
                std::string("fault.") + siteName(c.cell.site);
            // Read without creating: rate-zero cells never inject,
            // and their registries must stay untouched for the
            // byte-identity guarantee.
            const auto &reg = *c.result.stats;
            c.injected = reg.counterValue(prefix + ".injected");
            c.recovered = reg.counterValue(prefix + ".recovered");
            c.retry_time_ps = reg.counterValue(prefix + ".retry_time_ps");
        }
        const auto it = baseline_e2e.find(
            {static_cast<int>(c.cell.overlap), c.cell.seed});
        if (it != baseline_e2e.end() && it->second > 0)
            c.slowdown = static_cast<double>(c.result.end_to_end)
                / static_cast<double>(it->second);
    }

    grid::publish(result, campaign_obs);
    return result;
}

namespace {

using grid::number;
using grid::text;

/** The per-cell columns of every campaign output (docs/SWEEP.md). */
const grid::Schema<CampaignResult> &
schema()
{
    static const grid::Schema<CampaignResult> s{
        .label = [](auto &r, auto &c) { return c.cell.label(r.spec); },
        .keys = {
            {"site",
             [](auto &, auto &c) {
                 return text(c.cell.baseline ? "baseline"
                                             : siteName(c.cell.site));
             }},
            {"rate",
             [](auto &, auto &c) { return number(formatG(c.cell.rate)); }},
            {"seed", [](auto &, auto &c) { return number(c.cell.seed); }},
        },
        .metrics = {
            {"end_to_end_ps",
             [](auto &, auto &c) { return number(c.result.end_to_end); }},
            {"slowdown",
             [](auto &, auto &c) {
                 char buf[32];
                 std::snprintf(buf, sizeof(buf), "%.6f", c.slowdown);
                 return number(buf);
             }},
            {"injected", [](auto &, auto &c) { return number(c.injected); }},
            {"recovered",
             [](auto &, auto &c) { return number(c.recovered); }},
            {"retry_time_ps",
             [](auto &, auto &c) { return number(c.retry_time_ps); }},
            {"bottleneck",
             [](auto &, auto &c) {
                 return text(
                     trace::bottleneckName(c.result.critical.bottleneck));
             }},
            {"critical_path_ps",
             [](auto &, auto &c) {
                 return number(c.result.critical.on_path_ps);
             }},
        },
        .stats = [](auto &c) -> const obs::Registry * {
            return c.result.stats.get();
        },
    };
    return s;
}

} // namespace

void
writeCampaignCsv(const CampaignResult &result, std::ostream &os)
{
    grid::writeCsv(schema(), result, os);
}

void
writeCampaignJson(const CampaignResult &result, std::ostream &os)
{
    grid::writeJson(schema(), result, os);
}

void
writeCampaignStats(const CampaignResult &result, std::ostream &os)
{
    grid::writeStats(schema(), result, os);
}

} // namespace hcc::fault
