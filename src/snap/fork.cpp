#include "snap/fork.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "common/log.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "obs/registry.hpp"
#include "snap/snap.hpp"
#include "trace/critpath.hpp"

namespace hcc::snap {

namespace {

/**
 * Everything runWorkload() does after the workload body: throughput
 * gauge, one-pass metrics + critical path, TDX stats.  Every mode
 * collects its cells through it, so a cell's WorkloadResult carries
 * every field a campaign consumes.
 *
 * Cell results are deliberately *light*: the trace is analyzed in
 * place and `result.trace` stays empty.  That keeps a 10k-cell
 * campaign's memory flat, and in fork mode it leaves the tracer's
 * chunk pages and intern table allocated so the next cell's restore
 * is a plain in-place overwrite instead of a reallocation.  The
 * analysis is the light one too: no slack pass, no segment list, and
 * sample sets folded to their totals — no campaign output reads more.
 *
 * The result's registry is a value copy (obs::Registry::clone): in
 * fork mode the group's cells share one live registry that the next
 * cell's restore rewinds, and in every mode the copy drops the gauge
 * sample series no campaign writer prints, keeping only their
 * counts.  Each arm copies its own live registry, so the fork-vs-cold
 * gates still compare real counts (a fork-mode cell that reuses an
 * unfaulted sibling's outcome shares that sibling's copy).
 * @p analyzer (fork mode only) reuses the group's prefix scan so each
 * cell pays for its suffix, not the full trace.
 */
workloads::WorkloadResult
collectCellResult(rt::Context &ctx, const workloads::Workload &w,
                  const workloads::WorkloadParams &params, bool cc,
                  std::chrono::steady_clock::time_point wall_start,
                  trace::ForkAnalyzer *analyzer = nullptr)
{
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - wall_start)
            .count();
    if (wall_s > 0.0 && !ctx.tracer().empty()) {
        ctx.obs()
            .gauge("host.sim.events_per_sec")
            .set(static_cast<std::int64_t>(
                     static_cast<double>(ctx.tracer().size()) / wall_s),
                 -1);
    }

    workloads::WorkloadResult result;
    result.name = w.name();
    result.cc = cc;
    result.uvm = params.uvm;
    // The light result for every arm: campaign writers only read the
    // integer counts, the sample sums and the shares.
    auto crit = analyzer != nullptr
        ? analyzer->analyze(ctx.tracer(), &ctx.obs())
        : trace::analyzeCritical(ctx.tracer(), &ctx.obs(),
                                 /*full=*/false);
    result.metrics = std::move(crit.metrics);
    result.critical = std::move(crit.path);
    trace::publishCriticalPath(result.critical, ctx.obs());
    result.tdx = ctx.tdx().stats();
    result.end_to_end = result.metrics.end_to_end;
    result.stats = ctx.obs().clone();
    return result;
}

/** The group's params with @p cell's seed, if it carries one. */
workloads::WorkloadParams
cellParams(const ForkGroupSpec &group, const ForkCell &cell)
{
    workloads::WorkloadParams params = group.params;
    if (cell.seed)
        params.seed = *cell.seed;
    return params;
}

/** Run @p run for one cell: its FatalError fails the cell alone. */
template <typename Run>
void
runCell(ForkCellOutcome &out, Run &&run)
{
    const auto start = std::chrono::steady_clock::now();
    try {
        out.result = run(start);
        out.ok = true;
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    out.wall_us = elapsedUs(start);
}

/**
 * Legacy mode: the cell's seed (if any) becomes the construction
 * seed, its faults are armed at construction, and the workload runs
 * start to finish on the cell's own Context.
 */
void
runLegacyCell(const ForkGroupSpec &group, const ForkCell &cell,
              ForkCellOutcome &out)
{
    runCell(out, [&](auto start) {
        const workloads::Workload &w =
            workloads::WorkloadRegistry::instance().get(group.app);
        const workloads::WorkloadParams params = cellParams(group, cell);
        if (params.uvm && !w.supportsUvm())
            fatal("workload '%s' has no UVM variant", w.name().c_str());
        rt::SystemConfig sys = group.sys;
        if (cell.seed)
            sys.seed = *cell.seed;
        sys.faults = cell.faults;
        rt::Context ctx(sys);
        {
            obs::ProfileScope profile(&ctx.obs(), "workload_run");
            w.run(ctx, params);
        }
        return collectCellResult(ctx, w, params, sys.cc, start);
    });
}

/**
 * Switch @p ctx and @p resume to @p params.seed at the current cut,
 * exactly the state a fresh Context and prefix under that seed would
 * hold.  @return the resume to continue from (@p reseeded keeps a
 * re-derived resume alive when the workload produced one).
 */
const workloads::Workload::Resume *
reseed(rt::Context &ctx, const workloads::Workload &w,
       const workloads::WorkloadParams &params,
       const workloads::Workload::Resume *resume,
       std::unique_ptr<workloads::Workload::Resume> &reseeded)
{
    ctx.reseedAtFork(params.seed);
    reseeded = w.reseedResume(*resume, params);
    return reseeded ? reseeded.get() : resume;
}

/** Run the segments from the first cut to the last; @p owned keeps
 *  the returned resume alive. */
const workloads::Workload::Resume *
runSegments(rt::Context &ctx, const workloads::Workload &w,
            const workloads::WorkloadParams &params,
            const std::vector<double> &cuts,
            const workloads::Workload::Resume *resume,
            std::unique_ptr<workloads::Workload::Resume> &owned)
{
    for (std::size_t d = 1; d < cuts.size(); ++d) {
        owned = w.runSegment(ctx, params, *resume, cuts[d]);
        resume = owned.get();
    }
    return resume;
}

/** Cold-split mode: own Context, full prefix, reseed and segment
 *  chain, arm, suffix.  The exact derivation fork mode replays.  An
 *  unfaulted cell that succeeds appends its suffix trials to
 *  @p unfaulted_trials. */
void
runColdSplitCell(const workloads::Workload &w,
                 const ForkGroupSpec &group, const ForkCell &cell,
                 const std::vector<double> &cuts, ForkCellOutcome &out,
                 std::vector<fault::TrialCounts> &unfaulted_trials)
{
    runCell(out, [&](auto start) {
        rt::SystemConfig sys = group.sys;
        sys.faults = fault::FaultConfig{};
        rt::Context ctx(sys);
        const workloads::WorkloadParams params = cellParams(group, cell);
        {
            obs::ProfileScope profile(&ctx.obs(), "workload_run");
            const auto prefix = w.runPrefix(ctx, group.params, cuts[0]);
            std::unique_ptr<workloads::Workload::Resume> reseeded, owned;
            const workloads::Workload::Resume *resume = prefix.get();
            if (cell.seed)
                resume = reseed(ctx, w, params, resume, reseeded);
            resume = runSegments(ctx, w, params, cuts, resume, owned);
            ctx.armFaults(cell.faults);
            w.runSuffix(ctx, params, *resume);
        }
        auto result =
            collectCellResult(ctx, w, params, group.sys.cc, start);
        if (!cell.faults.any())
            unfaulted_trials.push_back(ctx.faultInjector().trials());
        return result;
    });
}

void
failAllCells(ForkGroupOutcome &out, const std::string &message)
{
    for (auto &cell : out.cells) {
        cell.ok = false;
        cell.error = message;
    }
}

/** A capture cells restore: the snapshot, the workload's resume
 *  state and the incremental analyzer of the trace up to its cut.
 *  The snapshot carries no "trace" section: every restore of it
 *  happens on the capturing Context, which rewinds its trace to the
 *  capture's mark by truncation. */
struct Capture
{
    Snapshot snap;
    std::unique_ptr<workloads::Workload::Resume> resume;
    trace::ForkAnalyzer analyzer;
};

/** Cell indices grouped by seed: seeds in order of first appearance,
 *  cells in index order. */
std::vector<std::vector<std::size_t>>
cellsBySeed(const std::vector<ForkCell> &cells)
{
    std::vector<std::optional<std::uint64_t>> seeds;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto k = static_cast<std::size_t>(
            std::find(seeds.begin(), seeds.end(), cells[i].seed)
            - seeds.begin());
        if (k == seeds.size()) {
            seeds.push_back(cells[i].seed);
            groups.emplace_back();
        }
        groups[k].push_back(i);
    }
    return groups;
}

/**
 * Fork mode.  One Context runs the prefix once and captures it.  With
 * a single cut every cell restores that capture, reseeds and replays
 * its suffix.  With chained cuts each seed restores the prefix,
 * reseeds and runs the segments to the last cut; that capture serves
 * the seed's cells and is freed before the next seed, so at most two
 * captures are ever resident.
 *
 * Either way a seed's first unfaulted cell replays first, and each
 * other cell of the seed whose faults would not fire within that
 * replay's per-site trial counts takes its outcome instead of
 * replaying: until its first injection a faulted cell runs call for
 * call like the unfaulted one.  A seed with no unfaulted cell, or
 * whose unfaulted cell failed, replays every cell.
 */
void
runForked(const ForkGroupSpec &group, const workloads::Workload &w,
          const std::vector<double> &cuts, ForkGroupOutcome &out)
{
    rt::SystemConfig sys = group.sys;
    sys.faults = fault::FaultConfig{};
    rt::Context ctx(sys);
    Capture prefix;
    try {
        {
            obs::ProfileScope profile(&ctx.obs(), "fork_prefix");
            prefix.resume = w.runPrefix(ctx, group.params, cuts[0]);
        }
        ctx.captureSnapshot(prefix.snap, /*with_trace=*/false);
        prefix.analyzer.capture(ctx.tracer());
    } catch (const FatalError &e) {
        failAllCells(out, e.what());
        return;
    }
    out.snapshot_hits = group.cells.size();
    out.peak_resident_bytes = prefix.snap.totalBytes();

    // Restore `from`, reseed when the cell's seed switches at this
    // cut, arm the cell's faults and replay its suffix.
    const auto replay = [&](Capture &from, std::size_t i,
                            bool reseed_here) {
        const ForkCell &cell = group.cells[i];
        runCell(out.cells[i], [&](auto start) {
            ctx.restoreSnapshot(from.snap);
            const workloads::WorkloadParams params =
                cellParams(group, cell);
            std::unique_ptr<workloads::Workload::Resume> reseeded;
            const workloads::Workload::Resume *resume = from.resume.get();
            if (reseed_here && cell.seed)
                resume = reseed(ctx, w, params, resume, reseeded);
            ctx.armFaults(cell.faults);
            {
                obs::ProfileScope profile(&ctx.obs(), "workload_run");
                w.runSuffix(ctx, params, *resume);
            }
            return collectCellResult(ctx, w, params, sys.cc, start,
                                     &from.analyzer);
        });
    };
    // Replay one seed's cells from `from`, the unfaulted one first.
    const auto replaySeed = [&](Capture &from,
                                const std::vector<std::size_t> &cells,
                                bool reseed_here) {
        const auto base =
            std::find_if(cells.begin(), cells.end(), [&](std::size_t i) {
                return !group.cells[i].faults.any();
            });
        std::optional<fault::TrialCounts> trials;
        std::uint64_t arm_seed = 0;
        if (base != cells.end()) {
            replay(from, *base, reseed_here);
            if (out.cells[*base].ok) {
                trials = ctx.faultInjector().trials();
                out.unfaulted_trials.push_back(*trials);
                // The seed armFaults() used, the same for all of them.
                arm_seed = ctx.config().seed;
            }
        }
        for (const std::size_t i : cells) {
            if (base != cells.end() && i == *base)
                continue;
            if (trials
                && !fault::wouldInject(group.cells[i].faults, arm_seed,
                                       *trials)) {
                const auto start = std::chrono::steady_clock::now();
                out.cells[i] = out.cells[*base];
                out.cells[i].wall_us = elapsedUs(start);
                ++out.reused_cells;
            } else {
                replay(from, i, reseed_here);
            }
        }
    };
    if (cuts.size() == 1) {
        for (const std::vector<std::size_t> &cells :
             cellsBySeed(group.cells))
            replaySeed(prefix, cells, /*reseed_here=*/true);
        return;
    }
    for (const std::vector<std::size_t> &cells :
         cellsBySeed(group.cells)) {
        const ForkCell &first = group.cells[cells.front()];
        Capture seed;
        try {
            ctx.restoreSnapshot(prefix.snap);
            const workloads::WorkloadParams params =
                cellParams(group, first);
            std::unique_ptr<workloads::Workload::Resume> reseeded;
            const workloads::Workload::Resume *resume =
                prefix.resume.get();
            if (first.seed)
                resume = reseed(ctx, w, params, resume, reseeded);
            {
                obs::ProfileScope profile(&ctx.obs(), "fork_prefix");
                runSegments(ctx, w, params, cuts, resume, seed.resume);
            }
            seed.analyzer = prefix.analyzer.clone();
            seed.analyzer.extendCapture(ctx.tracer());
            ctx.captureSnapshot(seed.snap, /*with_trace=*/false);
        } catch (const FatalError &e) {
            for (const std::size_t i : cells)
                out.cells[i].error = e.what();
            continue;
        }
        out.peak_resident_bytes =
            std::max(out.peak_resident_bytes,
                     prefix.snap.totalBytes() + seed.snap.totalBytes());
        replaySeed(seed, cells, /*reseed_here=*/false);
    }
}

} // namespace

double
ForkPoint::resolve(const workloads::Workload &workload) const
{
    if (mode == Mode::None)
        return -1.0;
    const double f = mode == Mode::Auto ? workload.defaultForkPoint()
                                        : fraction;
    return std::clamp(f, 0.0, 1.0);
}

std::vector<double>
ForkPoint::resolvePath(const workloads::Workload &workload) const
{
    std::vector<double> cuts;
    const double first = resolve(workload);
    if (first < 0.0)
        return cuts;
    cuts.push_back(first);
    for (const double c : chain) {
        if (c <= cuts.back()) {
            fatal("fork point path '%s' is not increasing for "
                  "workload '%s' (cut %g after %g)",
                  str().c_str(), workload.name().c_str(), c,
                  cuts.back());
        }
        cuts.push_back(c);
    }
    return cuts;
}

std::string
ForkPoint::str() const
{
    std::string out;
    switch (mode) {
      case Mode::None: out = "none"; break;
      case Mode::Auto: out = "auto"; break;
      case Mode::Fraction: out = formatG(fraction); break;
    }
    for (const double c : chain) {
        out += '/';
        out += formatG(c);
    }
    return out;
}

Result<ForkPoint>
parseForkPoint(const std::string &text)
{
    // Split on '/': the head is the classic single cut, the tail the
    // chained deeper cuts.
    std::vector<std::string> parts;
    std::size_t begin = 0;
    while (true) {
        const std::size_t slash = text.find('/', begin);
        if (slash == std::string::npos) {
            parts.push_back(text.substr(begin));
            break;
        }
        parts.push_back(text.substr(begin, slash - begin));
        begin = slash + 1;
    }

    ForkPoint fp;
    const std::string &head = parts[0];
    if (head == "none") {
        fp.mode = ForkPoint::Mode::None;
    } else if (head == "auto") {
        fp.mode = ForkPoint::Mode::Auto;
    } else {
        const auto parsed = parseFinite(head);
        if (!parsed.ok())
            return errorf(ErrorCode::ParseError,
                          "bad fork point '%s' (none|auto|fraction)",
                          head.c_str());
        const double v = *parsed;
        if (v < 0.0 || v > 1.0)
            return errorf(ErrorCode::ParseError,
                          "fork point fraction %g out of [0, 1]", v);
        fp.mode = ForkPoint::Mode::Fraction;
        fp.fraction = v;
    }

    if (parts.size() == 1)
        return fp;
    if (fp.mode == ForkPoint::Mode::None)
        return errorf(ErrorCode::ParseError,
                      "fork point 'none' cannot chain further cuts "
                      "('%s')",
                      text.c_str());
    double prev = fp.fraction;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &comp = parts[i];
        const auto parsed = parseFinite(comp);
        if (!parsed.ok())
            return errorf(ErrorCode::ParseError,
                          "bad fork point path component '%s' in "
                          "'%s' (fraction)",
                          comp.c_str(), text.c_str());
        const double v = *parsed;
        if (v < 0.0 || v > 1.0)
            return errorf(ErrorCode::ParseError,
                          "fork point fraction %g out of [0, 1]", v);
        // The auto head's cut is only known per workload; its order
        // against chain[0] is checked at resolvePath() time.
        if ((fp.mode == ForkPoint::Mode::Fraction || i > 1)
            && v <= prev)
            return errorf(ErrorCode::ParseError,
                          "fork point path '%s' must be strictly "
                          "increasing (%g after %g)",
                          text.c_str(), v, prev);
        prev = v;
        fp.chain.push_back(v);
    }
    return fp;
}

std::uint64_t
identitySeed(const std::string &app, const rt::SystemConfig &sys,
             const workloads::WorkloadParams &params)
{
    // FNV-1a over the identity fields; the per-cell seed is
    // deliberately absent so every seed of a group hashes alike.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    };
    mix(app.data(), app.size());
    const std::uint8_t cc = sys.cc ? 1 : 0;
    mix(&cc, sizeof(cc));
    const std::uint8_t uvm = params.uvm ? 1 : 0;
    mix(&uvm, sizeof(uvm));
    mix(&params.scale, sizeof(params.scale));
    const std::int32_t overlap =
        static_cast<std::int32_t>(sys.channel.overlap);
    mix(&overlap, sizeof(overlap));
    const std::int32_t workers = sys.channel.crypto_workers;
    mix(&workers, sizeof(workers));
    const std::uint8_t tee_io = sys.channel.tee_io ? 1 : 0;
    mix(&tee_io, sizeof(tee_io));
    return h;
}

ForkGroupOutcome
runForkGroup(const ForkGroupSpec &group, const ForkPoint &fork_point,
             bool no_snapshot)
{
    ForkGroupOutcome out;
    out.cells.resize(group.cells.size());
    if (group.cells.empty())
        return out;

    const workloads::Workload *w =
        workloads::WorkloadRegistry::instance().find(group.app);

    // Unknown app / unsupported UVM fail every cell through the
    // legacy path's own error handling (one message per cell keeps
    // the per-cell reporting contract of the callers).
    const bool splittable =
        w != nullptr && !(group.params.uvm && !w->supportsUvm());
    std::vector<double> cuts;
    if (splittable) {
        try {
            cuts = fork_point.resolvePath(*w);
        } catch (const FatalError &e) {
            failAllCells(out, e.what());
            return out;
        }
    }
    if (cuts.empty()) {
        for (std::size_t i = 0; i < group.cells.size(); ++i)
            runLegacyCell(group, group.cells[i], out.cells[i]);
        return out;
    }

    if (no_snapshot || group.cells.size() == 1) {
        // Cold-split: same arming point as fork mode, no shared
        // state.  Also the right call for singleton groups, where a
        // snapshot would only add capture/restore overhead.
        for (std::size_t i = 0; i < group.cells.size(); ++i)
            runColdSplitCell(*w, group, group.cells[i], cuts,
                             out.cells[i], out.unfaulted_trials);
        return out;
    }

    runForked(group, *w, cuts, out);
    return out;
}

} // namespace hcc::snap
