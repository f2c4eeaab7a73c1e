#include "sweep/sweep.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/log.hpp"
#include "common/text.hpp"

namespace hcc::sweep {

namespace {

/**
 * Cell identity without the seed — the cross-seed fork-group key.
 * Mirrors RunCell::label() minus the ".s<seed>" component
 * (crypto_workers/tee_io are grid-wide constants).
 */
std::string
seedlessKey(const RunCell &cell)
{
    std::string out = cell.app;
    out += cell.cc ? ".cc" : ".base";
    if (cell.uvm)
        out += ".uvm";
    out += ".x" + formatG(cell.scale);
    if (cell.overlap != tee::OverlapMode::None) {
        out += '.';
        out += tee::overlapModeName(cell.overlap);
    }
    return out;
}

/** Whether the fork engine can actually split this cell (the seed
 *  may then be deferred to a reseed-at-fork arm). */
bool
crossSeedEligible(const RunCell &cell)
{
    const workloads::Workload *w =
        workloads::WorkloadRegistry::instance().find(cell.app);
    return w != nullptr && !(cell.uvm && !w->supportsUvm());
}

} // namespace

std::size_t
GridSpec::cellCount() const
{
    return apps.size() * cc_modes.size() * uvm_modes.size()
        * scales.size() * seeds.size() * overlaps.size();
}

std::string
RunCell::label() const
{
    std::string out = app;
    out += cc ? ".cc" : ".base";
    if (uvm)
        out += ".uvm";
    out += ".x" + formatG(scale);
    out += ".s" + std::to_string(seed);
    // The serial tier is elided so pre-overlap labels stay stable.
    if (overlap != tee::OverlapMode::None) {
        out += '.';
        out += tee::overlapModeName(overlap);
    }
    return out;
}

std::vector<RunCell>
expandGrid(const GridSpec &grid)
{
    std::vector<RunCell> cells;
    cells.reserve(grid.cellCount());
    for (const auto &app : grid.apps) {
        for (bool cc : grid.cc_modes) {
            for (bool uvm : grid.uvm_modes) {
                for (double scale : grid.scales) {
                    for (std::uint64_t seed : grid.seeds) {
                        for (tee::OverlapMode overlap :
                             grid.overlaps) {
                            RunCell cell;
                            cell.index = cells.size();
                            cell.app = app;
                            cell.cc = cc;
                            cell.uvm = uvm;
                            cell.scale = scale;
                            cell.seed = seed;
                            cell.overlap = overlap;
                            cell.crypto_workers =
                                grid.crypto_workers;
                            cell.tee_io = grid.tee_io;
                            cells.push_back(std::move(cell));
                        }
                    }
                }
            }
        }
    }
    return cells;
}

SweepResult
runSweep(const GridSpec &grid, int jobs, obs::Registry *sweep_obs)
{
    auto cells = expandGrid(grid);
    // Force the suite registration to finish on this thread before
    // workers look apps up (registration is also mutex-guarded, this
    // just keeps the first lookup off the parallel path).
    workloads::WorkloadRegistry::instance();

    // Prefix-group the grid.  Cells of a registered app that differ
    // only in their seed share one prefix (cross-seed sharing: the
    // prefix runs under a seed-independent identity seed and each
    // cell carries a reseed-at-fork arm); everything else groups by
    // full cell identity, so only exact duplicates share.  The same
    // grouping applies under --no-snapshot — the cold control must
    // replay the identical derivation for the byte-identity gate.
    const bool split_on =
        grid.fork_point.mode != snap::ForkPoint::Mode::None;
    std::vector<grid::Group> groups;
    {
        std::map<std::string, std::size_t> by_key;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::string key =
                split_on && crossSeedEligible(cells[i])
                    ? seedlessKey(cells[i])
                    : cells[i].label();
            const auto [it, fresh] =
                by_key.emplace(key, groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].rows.push_back(i);
        }
    }
    for (grid::Group &group : groups) {
        const RunCell &first = cells[group.rows.front()];
        snap::ForkGroupSpec &spec = group.spec;
        spec.app = first.app;
        spec.sys.cc = first.cc;
        spec.sys.channel.crypto_workers = first.crypto_workers;
        spec.sys.channel.tee_io = first.tee_io;
        spec.sys.channel.overlap = first.overlap;
        spec.params.uvm = first.uvm;
        spec.params.scale = first.scale;
        spec.snapshot_budget_bytes = grid.snapshot_budget_bytes;
        // Sweep cells arm no faults: default ForkCell faults.
        std::vector<std::uint64_t> seeds;
        for (const std::size_t i : group.rows)
            seeds.push_back(cells[i].seed);
        const bool multi_seed = std::any_of(
            seeds.begin(), seeds.end(),
            [&](std::uint64_t s) { return s != first.seed; });
        if (multi_seed) {
            grid::shareAcrossSeeds(spec, seeds);
        } else {
            // Single-seed group (exact duplicates): construct from
            // the cell seed, exactly as before cross-seed sharing
            // existed.
            spec.cells.resize(seeds.size());
            spec.sys.seed = first.seed;
            spec.params.seed = first.seed;
        }
    }

    SweepResult result;
    grid::place(result, std::move(cells));
    grid::runGroups(result, jobs, groups, grid.fork_point,
                    grid.no_snapshot);
    grid::publish(result, sweep_obs);
    return result;
}

std::vector<bool>
parseModeList(const std::string &name)
{
    if (name == "on")
        return {true};
    if (name == "off")
        return {false};
    if (name == "both")
        return {false, true};
    fatal("bad mode '%s' (on|off|both)", name.c_str());
}

std::vector<std::string>
parseAppList(const std::string &csv)
{
    if (trim(csv) == "all")
        return workloads::evaluationApps();
    auto apps = splitList(csv);
    if (apps.empty())
        fatal("empty app list '%s'", csv.c_str());
    return apps;
}

std::vector<double>
parseScaleList(const std::string &csv)
{
    std::vector<double> out;
    for (const auto &item : splitList(csv)) {
        const auto v = parseFinite(item);
        if (!v.ok())
            fatal("bad scale: %s", v.status().message().c_str());
        if (*v <= 0.0)
            fatal("scale must be positive, got '%s'", item.c_str());
        out.push_back(*v);
    }
    if (out.empty())
        fatal("empty scale list '%s'", csv.c_str());
    return out;
}

std::vector<tee::OverlapMode>
parseOverlapList(const std::string &csv)
{
    if (trim(csv) == "all")
        return {tee::OverlapMode::None, tee::OverlapMode::DoubleBuffer,
                tee::OverlapMode::Speculative};
    std::vector<tee::OverlapMode> out;
    for (const auto &item : splitList(csv)) {
        const auto mode = tee::parseOverlapMode(item);
        if (!mode)
            fatal("bad overlap mode '%s' "
                  "(none|double-buffer|speculative|all)",
                  item.c_str());
        out.push_back(*mode);
    }
    if (out.empty())
        fatal("empty overlap list '%s'", csv.c_str());
    return out;
}

std::vector<std::uint64_t>
parseSeedList(const std::string &csv)
{
    std::vector<std::uint64_t> out;
    for (const auto &item : splitList(csv)) {
        try {
            out.push_back(std::stoull(item));
        } catch (...) {
            fatal("bad seed '%s'", item.c_str());
        }
    }
    if (out.empty())
        fatal("empty seed list '%s'", csv.c_str());
    return out;
}

namespace {

/**
 * Throwing parse body: fatal() doubles as the parse-abort mechanism
 * so the shared list parsers (parseModeList, parseScaleList, ...)
 * need no error plumbing.  The public surface converts the throw to
 * a typed Status — callers never see the exception.
 */
GridSpec
parseGridSpecImpl(const std::string &text)
{
    GridSpec grid;
    bool have_apps = false;
    std::istringstream iss(text);
    std::string line;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("grid spec line %d: expected 'key = value', got "
                  "'%s'", lineno, line.c_str());
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key == "apps") {
            grid.apps = parseAppList(value);
            have_apps = true;
        } else if (key == "cc") {
            grid.cc_modes = parseModeList(value);
        } else if (key == "uvm") {
            grid.uvm_modes = parseModeList(value);
        } else if (key == "scales") {
            grid.scales = parseScaleList(value);
        } else if (key == "seeds") {
            grid.seeds = parseSeedList(value);
        } else if (key == "overlap") {
            grid.overlaps = parseOverlapList(value);
        } else if (key == "crypto-workers") {
            int v = 0;
            try {
                v = std::stoi(value);
            } catch (...) {
                fatal("grid spec line %d: bad crypto-workers '%s'",
                      lineno, value.c_str());
            }
            if (v < 1)
                fatal("grid spec line %d: crypto-workers must be "
                      ">= 1", lineno);
            grid.crypto_workers = v;
        } else if (key == "fork-point") {
            const auto fp = snap::parseForkPoint(value);
            if (!fp.ok())
                fatal("grid spec line %d: %s", lineno,
                      fp.status().message().c_str());
            grid.fork_point = *fp;
        } else if (key == "snapshot") {
            if (value == "on")
                grid.no_snapshot = false;
            else if (value == "off")
                grid.no_snapshot = true;
            else
                fatal("grid spec line %d: snapshot must be on|off",
                      lineno);
        } else if (key == "snapshot-budget") {
            long long v = -1;
            try {
                v = std::stoll(value);
            } catch (...) {
                v = -1;
            }
            if (v < 0)
                fatal("grid spec line %d: snapshot-budget must be a "
                      "MiB count >= 0 (0 = unlimited), got '%s'",
                      lineno, value.c_str());
            grid.snapshot_budget_bytes =
                static_cast<std::size_t>(v) << 20;
        } else if (key == "tee-io") {
            if (value == "on")
                grid.tee_io = true;
            else if (value == "off")
                grid.tee_io = false;
            else
                fatal("grid spec line %d: tee-io must be on|off",
                      lineno);
        } else {
            fatal("grid spec line %d: unknown key '%s'", lineno,
                  key.c_str());
        }
    }
    if (!have_apps)
        fatal("grid spec is missing the 'apps' key");
    return grid;
}

} // namespace

Result<GridSpec>
parseGridSpec(const std::string &text)
{
    try {
        return parseGridSpecImpl(text);
    } catch (const FatalError &e) {
        return errorf(ErrorCode::ParseError, "%s", e.what());
    }
}

Result<GridSpec>
loadGridFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return errorf(ErrorCode::IoError,
                      "cannot open grid spec file '%s'", path.c_str());
    std::ostringstream oss;
    oss << in.rdbuf();
    if (in.bad())
        return errorf(ErrorCode::IoError,
                      "failed reading grid spec file '%s'",
                      path.c_str());
    return parseGridSpec(oss.str());
}

namespace {

using grid::flag;
using grid::number;
using grid::text;
using trace::bottleneckName;

const trace::AppMetrics &
metricsOf(const CellResult &c)
{
    return c.result.metrics;
}

/** The per-cell columns of every sweep output (docs/SWEEP.md). */
const grid::Schema<SweepResult> &
schema()
{
    static const grid::Schema<SweepResult> s{
        .label = [](auto &, auto &c) { return c.cell.label(); },
        .keys = {
            {"app", [](auto &, auto &c) { return text(c.cell.app); }},
            {"cc", [](auto &, auto &c) { return flag(c.cell.cc); }},
            {"uvm", [](auto &, auto &c) { return flag(c.cell.uvm); }},
            {"scale",
             [](auto &, auto &c) { return number(formatG(c.cell.scale)); }},
            {"seed", [](auto &, auto &c) { return number(c.cell.seed); }},
        },
        .metrics = {
            {"end_to_end_ps",
             [](auto &, auto &c) { return number(c.result.end_to_end); }},
            {"launches",
             [](auto &, auto &c) { return number(metricsOf(c).launches); }},
            {"kernels",
             [](auto &, auto &c) { return number(metricsOf(c).kernels); }},
            {"sum_klo_ps",
             [](auto &, auto &c) { return number(metricsOf(c).sumKlo()); }},
            {"sum_lqt_ps",
             [](auto &, auto &c) { return number(metricsOf(c).sumLqt()); }},
            {"sum_kqt_ps",
             [](auto &, auto &c) { return number(metricsOf(c).sumKqt()); }},
            {"sum_ket_ps",
             [](auto &, auto &c) { return number(metricsOf(c).sumKet()); }},
            {"copy_h2d_ps",
             [](auto &, auto &c) { return number(metricsOf(c).copy_h2d); }},
            {"copy_d2h_ps",
             [](auto &, auto &c) { return number(metricsOf(c).copy_d2h); }},
            {"copy_d2d_ps",
             [](auto &, auto &c) { return number(metricsOf(c).copy_d2d); }},
            {"tdx_hypercalls",
             [](auto &, auto &c) { return number(c.result.tdx.hypercalls); }},
            {"bottleneck",
             [](auto &, auto &c) {
                 return text(bottleneckName(c.result.critical.bottleneck));
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
writeCellsCsv(const SweepResult &result, std::ostream &os)
{
    grid::writeCsv(schema(), result, os);
}

void
writeCellsJson(const SweepResult &result, std::ostream &os)
{
    grid::writeJson(schema(), result, os);
}

void
writeMergedStats(const SweepResult &result, std::ostream &os)
{
    grid::writeStats(schema(), result, os);
}

} // namespace hcc::sweep
