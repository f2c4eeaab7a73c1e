#include "snap/fork.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>

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
 * gauge, one-pass metrics + critical path, TDX stats.  The split
 * modes replicate it per cell so a forked cell's WorkloadResult
 * matches a cold runWorkload()'s in every field a campaign consumes.
 *
 * Split-mode results are deliberately *light*: the trace is analyzed
 * in place and `result.trace` stays empty (only `--fork-point none`
 * retains per-cell traces).  That keeps a 10k-cell campaign's memory
 * flat, and in fork mode it leaves the tracer's chunk pages and
 * intern table allocated so the next cell's restore is a plain
 * in-place overwrite instead of a reallocation.  The analysis is
 * the light one too: no slack pass, no segment list, and sample sets
 * folded to their totals — no campaign output reads more.
 *
 * The result's registry is a value copy (obs::Registry::clone): in
 * fork mode the group's cells share one live registry that the next
 * cell's restore rewinds, and in both modes the copy drops the gauge
 * sample series no campaign writer prints, keeping only their
 * counts.  Each arm copies its own live registry, so the fork-vs-cold
 * gates still compare real counts.  @p analyzer (fork mode only)
 * reuses the group's prefix scan so each cell pays for its suffix,
 * not the full trace.
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
    // The light result for both arms: campaign writers only read the
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

/**
 * Legacy mode: construction-time arming, full runWorkload().  Reseed
 * arms degrade to a plain construction seed (the last one wins) so a
 * cross-seed group falling back to legacy still runs each cell under
 * its own seed; intermediate Faults arms have no construction-time
 * equivalent and are subsumed by the cell's own fault config.
 */
void
runLegacyCell(const ForkGroupSpec &group, const ForkCell &cell,
              ForkCellOutcome &out)
{
    const auto start = std::chrono::steady_clock::now();
    try {
        rt::SystemConfig sys = group.sys;
        workloads::WorkloadParams params = group.params;
        for (const ForkArm &arm : cell.arms) {
            if (arm.kind == ForkArm::Kind::Reseed) {
                sys.seed = arm.seed;
                params.seed = arm.seed;
            }
        }
        sys.faults = cell.faults;
        out.result = workloads::runWorkload(group.app, sys, params);
        out.ok = true;
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    out.wall_us = elapsedUs(start);
}

/**
 * Apply one arm at the current cut of @p ctx.  Reseed arms switch the
 * Context's seed-derived streams to the cell seed (exactly the state
 * a fresh Context constructed with it would hold) and re-derive the
 * workload-local resume streams; Faults arms re-arm the injector.
 * @return the resume to continue from (@p reseeded keeps a re-derived
 * resume alive when the workload produced one).
 */
const workloads::Workload::Resume *
applyArm(rt::Context &ctx, const workloads::Workload &w,
         const ForkArm &arm, workloads::WorkloadParams &params,
         const workloads::Workload::Resume *resume,
         std::unique_ptr<workloads::Workload::Resume> &reseeded)
{
    if (arm.kind == ForkArm::Kind::Faults) {
        ctx.armFaults(arm.faults);
        return resume;
    }
    ctx.reseedAtFork(arm.seed);
    params.seed = arm.seed;
    if (auto r = w.reseedResume(*resume, params)) {
        reseeded = std::move(r);
        return reseeded.get();
    }
    return resume;
}

/** Cold-split mode: own Context, full prefix + arm/segment chain,
 *  arm, suffix.  The exact derivation fork mode replays. */
void
runColdSplitCell(const workloads::Workload &w,
                 const ForkGroupSpec &group, const ForkCell &cell,
                 const std::vector<double> &cuts, ForkCellOutcome &out)
{
    const auto start = std::chrono::steady_clock::now();
    try {
        rt::SystemConfig sys = group.sys;
        sys.faults = fault::FaultConfig{};
        rt::Context ctx(sys);
        workloads::WorkloadParams params = group.params;
        {
            obs::ProfileScope profile(&ctx.obs(), "workload_run");
            std::unique_ptr<workloads::Workload::Resume> owned =
                w.runPrefix(ctx, params, cuts[0]);
            const workloads::Workload::Resume *resume = owned.get();
            std::unique_ptr<workloads::Workload::Resume> reseeded;
            for (std::size_t d = 1; d < cuts.size(); ++d) {
                if (d - 1 < cell.arms.size())
                    resume = applyArm(ctx, w, cell.arms[d - 1],
                                      params, resume, reseeded);
                auto next = w.runSegment(ctx, params, *resume,
                                         cuts[d]);
                owned = std::move(next);
                resume = owned.get();
            }
            if (cell.arms.size() == cuts.size())
                resume = applyArm(ctx, w, cell.arms.back(), params,
                                  resume, reseeded);
            ctx.armFaults(cell.faults);
            w.runSuffix(ctx, params, *resume);
        }
        out.result =
            collectCellResult(ctx, w, params, group.sys.cc, start);
        out.ok = true;
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    out.wall_us = elapsedUs(start);
}

/** Stable key for grouping cells by arm: equal keys share a node. */
std::string
armKey(const ForkArm &arm)
{
    if (arm.kind == ForkArm::Kind::Reseed)
        return "r:" + std::to_string(arm.seed);
    std::string key = "f";
    char buf[48];
    for (std::size_t i = 0; i < arm.faults.rates.size(); ++i) {
        if (arm.faults.rates[i] == 0.0)
            continue;
        std::snprintf(buf, sizeof(buf), ":%zu=%.17g", i,
                      arm.faults.rates[i]);
        key += buf;
    }
    return key;
}

/**
 * The fork-mode executor: a trie over the cells' arm paths, walked
 * depth-first on one Context.  Each node owns the snapshot, resume
 * state and incremental analyzer of "the run up to cuts[depth] with
 * this arm path applied"; leaves replay their suffix from the
 * deepest node they share.  Snapshots are released when a node's
 * subtree completes and evicted LRU under the byte budget; an
 * evicted node is rematerialized from its nearest resident ancestor
 * (restore, re-arm, re-run the segment), which reproduces identical
 * state, so eviction can never change results.
 */
class TreeRunner
{
  public:
    TreeRunner(const ForkGroupSpec &group,
               const workloads::Workload &w, std::vector<double> cuts,
               const std::string &fork_point_str,
               ForkGroupOutcome &out)
        : group_(group), w_(w), cuts_(std::move(cuts)),
          fork_point_str_(fork_point_str), out_(out),
          budget_(group.snapshot_budget_bytes == 0
                      ? std::numeric_limits<std::size_t>::max()
                      : group.snapshot_budget_bytes)
    {
    }

    void
    run()
    {
        buildTrie();
        rt::SystemConfig sys = group_.sys;
        sys.faults = fault::FaultConfig{};
        ctx_ = std::make_unique<rt::Context>(sys);
        try {
            {
                obs::ProfileScope profile(&ctx_->obs(),
                                          "fork_prefix");
                root_->resume =
                    w_.runPrefix(*ctx_, group_.params, cuts_[0]);
            }
            captureNode(*root_);
            root_->analyzer =
                std::make_unique<trace::ForkAnalyzer>();
            root_->analyzer->capture(ctx_->tracer());
            process(*root_);
        } catch (const FatalError &e) {
            // Prefix (or capture) died: every cell inherits the
            // error.
            for (auto &cell_out : out_.cells) {
                if (!cell_out.ok && cell_out.error.empty())
                    cell_out.error = e.what();
            }
        }
        out_.peak_resident_bytes = peak_;
    }

  private:
    struct TreeNode
    {
        const ForkArm *arm = nullptr; //!< applied entering this node
        TreeNode *parent = nullptr;
        std::size_t depth = 0; //!< state is at cuts_[depth]
        std::string label;     //!< arm path, for snapshot meta
        std::vector<std::string> child_keys;
        std::vector<std::unique_ptr<TreeNode>> children;
        std::vector<std::size_t> leaves; //!< cell indices replaying
                                         //!< their suffix from here
        // Runtime state, valid once materialized:
        workloads::WorkloadParams params;
        std::unique_ptr<Snapshot> snap;
        std::unique_ptr<workloads::Workload::Resume> resume;
        std::unique_ptr<trace::ForkAnalyzer> analyzer;
        std::uint64_t last_use = 0;
    };

    void
    buildTrie()
    {
        root_ = std::make_unique<TreeNode>();
        root_->params = group_.params;
        root_->label = "prefix";
        nodes_.push_back(root_.get());
        for (std::size_t i = 0; i < group_.cells.size(); ++i) {
            const ForkCell &cell = group_.cells[i];
            TreeNode *cur = root_.get();
            for (std::size_t d = 1; d < cuts_.size(); ++d) {
                const ForkArm *arm =
                    d - 1 < cell.arms.size() ? &cell.arms[d - 1]
                                             : nullptr;
                const std::string key = arm ? armKey(*arm) : "";
                const auto it = std::find(cur->child_keys.begin(),
                                          cur->child_keys.end(), key);
                if (it == cur->child_keys.end()) {
                    auto node = std::make_unique<TreeNode>();
                    node->arm = arm;
                    node->parent = cur;
                    node->depth = d;
                    node->label = cur->label + "/"
                        + (key.empty() ? "-" : key);
                    cur->child_keys.push_back(key);
                    nodes_.push_back(node.get());
                    cur->children.push_back(std::move(node));
                    cur = cur->children.back().get();
                } else {
                    cur = cur->children
                              [static_cast<std::size_t>(
                                   it - cur->child_keys.begin())]
                                  .get();
                }
            }
            cur->leaves.push_back(i);
        }
    }

    /** Leaves first, then subtrees; release the node's snapshot once
     *  its whole subtree is done (the refcount reaches zero). */
    void
    process(TreeNode &node)
    {
        for (const std::size_t i : node.leaves)
            runLeaf(node, i);
        for (const auto &child : node.children)
            process(*child);
        if (node.parent != nullptr)
            dropSnapshot(node);
    }

    void
    runLeaf(TreeNode &node, std::size_t index)
    {
        ForkCellOutcome &out = out_.cells[index];
        const auto start = std::chrono::steady_clock::now();
        try {
            ensureResident(node);
            ctx_->restoreSnapshot(*node.snap);
            node.last_use = ++clock_;
            workloads::WorkloadParams params = node.params;
            const ForkCell &cell = group_.cells[index];
            const workloads::Workload::Resume *resume =
                node.resume.get();
            std::unique_ptr<workloads::Workload::Resume> reseeded;
            if (cell.arms.size() == cuts_.size())
                resume = applyArm(*ctx_, w_, cell.arms.back(),
                                  params, resume, reseeded);
            ctx_->armFaults(cell.faults);
            {
                obs::ProfileScope profile(&ctx_->obs(),
                                          "workload_run");
                w_.runSuffix(*ctx_, params, *resume);
            }
            out.result = collectCellResult(*ctx_, w_, params,
                                           group_.sys.cc, start,
                                           node.analyzer.get());
            out.ok = true;
        } catch (const FatalError &e) {
            out.error = e.what();
        }
        out.wall_us = elapsedUs(start);
        out.from_snapshot = true;
        ++out_.snapshot_hits;
    }

    /** Make sure @p node's snapshot is in memory, rebuilding it from
     *  the nearest resident ancestor after an eviction. */
    void
    ensureResident(TreeNode &node)
    {
        if (node.snap) {
            node.last_use = ++clock_;
            return;
        }
        materialize(node);
    }

    /** Restore the parent, apply this node's arm, run its segment
     *  and capture.  Deterministic: a rematerialization reproduces
     *  the original capture bit for bit. */
    void
    materialize(TreeNode &node)
    {
        TreeNode &parent = *node.parent;
        ensureResident(parent);
        ctx_->restoreSnapshot(*parent.snap);
        parent.last_use = ++clock_;
        node.params = parent.params;
        const workloads::Workload::Resume *resume =
            parent.resume.get();
        std::unique_ptr<workloads::Workload::Resume> reseeded;
        if (node.arm != nullptr)
            resume = applyArm(*ctx_, w_, *node.arm, node.params,
                              resume, reseeded);
        {
            obs::ProfileScope profile(&ctx_->obs(), "fork_prefix");
            node.resume = w_.runSegment(*ctx_, node.params, *resume,
                                        cuts_[node.depth]);
        }
        if (!node.analyzer) {
            node.analyzer = std::make_unique<trace::ForkAnalyzer>(
                parent.analyzer->clone());
            node.analyzer->extendCapture(ctx_->tracer());
        }
        captureNode(node);
    }

    void
    captureNode(TreeNode &node)
    {
        node.snap = std::make_unique<Snapshot>();
        ctx_->captureSnapshot(*node.snap);
        node.snap->meta.app = group_.app;
        node.snap->meta.uvm = node.params.uvm;
        node.snap->meta.fork_point = fork_point_str_;
        node.snap->meta.parent =
            node.parent != nullptr ? node.parent->label : "";
        resident_ += node.snap->totalBytes();
        peak_ = std::max(peak_, resident_);
        node.last_use = ++clock_;
        evict(&node);
    }

    void
    dropSnapshot(TreeNode &node)
    {
        if (!node.snap)
            return;
        resident_ -= node.snap->totalBytes();
        node.snap.reset();
    }

    /** LRU eviction down to the budget.  The root is pinned (every
     *  rematerialization path starts from it) and the node just
     *  captured is exempt — if nothing else is evictable the budget
     *  is simply exceeded and the peak gauge records it. */
    void
    evict(const TreeNode *keep)
    {
        while (resident_ > budget_) {
            TreeNode *victim = nullptr;
            for (TreeNode *node : nodes_) {
                if (node == root_.get() || node == keep
                    || !node->snap)
                    continue;
                if (victim == nullptr
                    || node->last_use < victim->last_use)
                    victim = node;
            }
            if (victim == nullptr)
                break;
            dropSnapshot(*victim);
        }
    }

    const ForkGroupSpec &group_;
    const workloads::Workload &w_;
    const std::vector<double> cuts_;
    const std::string fork_point_str_;
    ForkGroupOutcome &out_;
    const std::size_t budget_;
    std::unique_ptr<rt::Context> ctx_;
    std::unique_ptr<TreeNode> root_;
    std::vector<TreeNode *> nodes_;
    std::size_t resident_ = 0;
    std::size_t peak_ = 0;
    std::uint64_t clock_ = 0;
};

void
failAllCells(ForkGroupOutcome &out, const std::string &message)
{
    for (auto &cell : out.cells) {
        cell.ok = false;
        cell.error = message;
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

    const std::size_t arms = group.cells[0].arms.size();
    for (const ForkCell &cell : group.cells) {
        if (cell.arms.size() != arms) {
            failAllCells(out,
                         "fork group cells disagree on arm count");
            return out;
        }
    }
    if (arms > cuts.size()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "fork cells carry %zu arms but the fork point "
                      "has %zu cuts",
                      arms, cuts.size());
        failAllCells(out, buf);
        return out;
    }

    if (no_snapshot || group.cells.size() == 1) {
        // Cold-split: same arming point as fork mode, no shared
        // state.  Also the right call for singleton groups, where a
        // snapshot would only add capture/restore overhead.
        for (std::size_t i = 0; i < group.cells.size(); ++i)
            runColdSplitCell(*w, group, group.cells[i], cuts,
                             out.cells[i]);
        return out;
    }

    TreeRunner runner(group, *w, std::move(cuts), fork_point.str(),
                      out);
    runner.run();
    return out;
}

} // namespace hcc::snap
