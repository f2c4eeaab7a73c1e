/**
 * @file
 * Critical-path engine: shared trace scan, longest-path walk, slack,
 * bottleneck classifier and reporters.  See critpath.hpp for the
 * model; docs/CRITICAL_PATH.md for the edge rules and thresholds.
 */

#include "trace/critpath.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "common/table.hpp"
#include "obs/report.hpp"

namespace hcc::trace {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

std::size_t
idx(PathCategory c)
{
    return static_cast<std::size_t>(c);
}

/**
 * Host-serialized events: the calling thread cannot issue the next
 * API call before these return.  Blocking copies (stream < 0) ride
 * the host; async copies and kernels live on device chains instead.
 */
bool
isHostSerial(const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::Launch:
      case EventKind::GraphLaunch:
      case EventKind::MallocDevice:
      case EventKind::MallocHost:
      case EventKind::MallocManaged:
      case EventKind::Free:
      case EventKind::Sync:
        return true;
      case EventKind::MemcpyH2D:
      case EventKind::MemcpyD2H:
      case EventKind::MemcpyD2D:
        return e.stream < 0;
      case EventKind::Kernel:
      case EventKind::Fault:
        return false;
    }
    return false;
}

bool
isDeviceSide(const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::Kernel:
        return true;
      case EventKind::MemcpyH2D:
      case EventKind::MemcpyD2H:
      case EventKind::MemcpyD2D:
        return e.stream >= 0;
      case EventKind::Launch:
      case EventKind::GraphLaunch:
      case EventKind::MallocDevice:
      case EventKind::MallocHost:
      case EventKind::MallocManaged:
      case EventKind::Free:
      case EventKind::Sync:
      case EventKind::Fault:
        return false;
    }
    return false;
}

bool
isCopy(EventKind k)
{
    return k == EventKind::MemcpyH2D || k == EventKind::MemcpyD2H
           || k == EventKind::MemcpyD2D;
}

/** Managed/prefetch traffic counts as UVM, not link. */
bool
isUvmCopy(const Tracer &t, const TraceEvent &e)
{
    if (e.encrypted_paging)
        return true;
    const auto name = t.name(e);
    return name == "memPrefetch" || name == "memcpy-managed";
}

PathCategory
copyCategory(const Tracer &t, const TraceEvent &e)
{
    if (isUvmCopy(t, e))
        return PathCategory::Uvm;
    if (e.kind == EventKind::MemcpyD2D)
        return PathCategory::Compute; // device-local blit
    return PathCategory::Link;
}

/** Category charged for the on-path slice of an event. */
PathCategory
eventCategory(const Tracer &t, const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::Kernel:
        return PathCategory::Compute;
      case EventKind::MemcpyH2D:
      case EventKind::MemcpyD2H:
      case EventKind::MemcpyD2D:
        return copyCategory(t, e);
      case EventKind::Launch:
      case EventKind::GraphLaunch:
        return PathCategory::Launch;
      case EventKind::MallocDevice:
      case EventKind::MallocHost:
      case EventKind::MallocManaged:
      case EventKind::Free:
        return PathCategory::Alloc;
      case EventKind::Sync:
        return PathCategory::Sync;
      case EventKind::Fault:
        return PathCategory::Fault;
    }
    return PathCategory::Other;
}

/** What a scan keeps beyond the scalar metrics. */
enum class ScanDetail
{
    Metrics, //!< every sample, no path (analyze())
    Light,   //!< binding predecessors; samples folded to totals
    Full,    //!< binding predecessors and every sample
};

/**
 * The candidate edges of a full scan, kept for the CPM slack pass
 * only.  Program-order and correlation candidates gate their target's
 * start; join candidates gate a sync's end.
 */
struct SlackEdges
{
    /** Per event: its program-order candidate (kNone: none). */
    std::vector<std::uint32_t> order;
    /** Per event: a kernel's launch candidate (kNone: none). */
    std::vector<std::uint32_t> corr;
    /** (sync, waited-on device event), ascending sync index. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> joins;
};

/**
 * The single pass shared by analyze(), analyzeCritical() and
 * ForkAnalyzer.  Resumable: scanRange() keeps every piece of loop
 * state in the struct.  A scan resumed past a prefix overwrites only
 * the small `carry` and some `launch_flat` slots; everything else it
 * appends, or writes at event indices past the prefix.  That is what
 * lets the fork engine extend one prefix scan in place per cell and
 * truncate it back afterwards.
 */
struct Scan
{
    explicit Scan(ScanDetail d) : detail(d) {}

    ScanDetail detail;
    /** The state a resumed scan overwrites rather than appends to. */
    struct Carry
    {
        AppMetrics metrics;
        /** Light scans: the left folds from 0.0, in scan order, of
         *  the samples the four sets would hold. */
        struct
        {
            double klo = 0.0, lqt = 0.0, kqt = 0.0, ket = 0.0;
        } folds;
        /** Walk start: latest-ending non-fault event (tie: higher
         *  idx). */
        std::uint32_t tail = kNone;
        SimTime last_nonfault_end = 0;
        std::uint32_t last_host = kNone;
        std::vector<std::uint32_t> last_dev; // per stream id
    };
    Carry carry;
    /** The predecessor the walk binds each event to (kNone: none). */
    std::vector<std::uint32_t> pred;
    /** Fault-recovery spans as scanned. */
    std::vector<std::pair<SimTime, SimTime>> fault_spans;
    /** Their coverage index, built by finalizeScan(). */
    SpanCoverage faults;
    /** Sync windows, for the fault-overlap fixup in finalizeScan. */
    std::vector<std::pair<SimTime, SimTime>> sync_spans;
    // Correlation -> launch index.  Ids are handed out sequentially
    // by the tracer (one per recorded event at most), so a flat
    // array indexed by id covers every in-range correlation without
    // hashing; the map only backs the (never seen in practice) case
    // of an id beyond the event count.
    std::vector<std::uint32_t> launch_flat;
    std::unordered_map<std::uint64_t, std::uint32_t> launch_of;
};

/** (correlation, launch index it mapped to before; kNone: none). */
using LaunchUndo = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

/**
 * Scan events [from, to), resuming from @p s's carry state.  When
 * @p slack_edges is given, every candidate edge is recorded there.
 * When @p undo is given, every correlation -> launch store is logged
 * there first, so the caller can take the scan back.
 */
void
scanRange(Scan &s, const Tracer &tracer, std::size_t from,
          std::size_t to, SlackEdges *slack_edges = nullptr,
          LaunchUndo *undo = nullptr)
{
    AppMetrics &m = s.carry.metrics;
    auto &folds = s.carry.folds;
    const bool light = s.detail == ScanDetail::Light;
    const bool graph = s.detail != ScanDetail::Metrics;
    const auto sample = [&](SampleSet &set, double &fold, double x) {
        if (light)
            fold += x;
        else
            set.add(x);
    };
    const auto ev = tracer.events();
    if (graph) {
        s.pred.resize(to, kNone);
        s.launch_flat.resize(to + 2, kNone);
    }
    if (slack_edges != nullptr) {
        slack_edges->order.resize(to, kNone);
        slack_edges->corr.resize(to, kNone);
    }
    const auto launchLookup =
        [&](std::uint64_t c) -> std::uint32_t {
        if (c < s.launch_flat.size())
            return s.launch_flat[c];
        const auto f = s.launch_of.find(c);
        return f == s.launch_of.end() ? kNone : f->second;
    };
    const auto launchStore = [&](std::uint64_t c, std::uint32_t i) {
        if (undo != nullptr)
            undo->emplace_back(c, launchLookup(c));
        if (c < s.launch_flat.size())
            s.launch_flat[c] = i;
        else
            s.launch_of[c] = i;
    };
    auto &sync_spans = s.sync_spans;
    auto &last_host = s.carry.last_host;
    auto &last_dev = s.carry.last_dev;

    for (std::size_t pos = from; pos < to; ++pos) {
        const auto i = static_cast<std::uint32_t>(pos);
        const TraceEvent &e = ev[pos];
        const auto d = static_cast<double>(e.duration());
        const auto wait = static_cast<double>(e.queue_wait);
        switch (e.kind) {
          case EventKind::Launch:
          case EventKind::GraphLaunch:
            sample(m.klo, folds.klo, d);
            sample(m.lqt, folds.lqt, wait);
            ++m.launches;
            break;
          case EventKind::Kernel:
            sample(m.kqt, folds.kqt, wait);
            sample(m.ket, folds.ket, d);
            ++m.kernels;
            break;
          case EventKind::MemcpyH2D:
            m.copy_h2d += e.duration();
            break;
          case EventKind::MemcpyD2H:
            m.copy_d2h += e.duration();
            break;
          case EventKind::MemcpyD2D:
            m.copy_d2d += e.duration();
            break;
          case EventKind::MallocDevice:
            m.alloc_device += e.duration();
            break;
          case EventKind::MallocHost:
            m.alloc_host += e.duration();
            break;
          case EventKind::MallocManaged:
            m.alloc_managed += e.duration();
            break;
          case EventKind::Free:
            m.free_time += e.duration();
            break;
          case EventKind::Sync:
            m.sync_time += e.duration();
            sync_spans.emplace_back(e.start, e.end);
            break;
          case EventKind::Fault:
            m.fault_time += e.duration();
            ++m.fault_recoveries;
            s.fault_spans.emplace_back(e.start, e.end);
            break;
        }
        if (e.kind != EventKind::Fault
            && (s.carry.tail == kNone
                || e.end >= s.carry.last_nonfault_end)) {
            s.carry.tail = i;
            s.carry.last_nonfault_end = e.end;
        }
        if (!graph)
            continue;

        // Candidate predecessors.  Every candidate has a lower index
        // than its target and ends no later than the target's start
        // (program order, correlation) or its end (sync join), so
        // record order is a topological order, and the walk, which
        // stands at the target's end, can bind to any of them: it
        // takes the latest-ending one (tie: higher index).  That
        // choice is known here, so only it is kept.  Fault spans
        // have no candidates.
        std::uint32_t order = kNone;
        std::uint32_t corr = kNone;
        std::uint32_t best = kNone;
        SimTime best_end = 0;
        const auto consider = [&](std::uint32_t p) {
            if (p == kNone)
                return;
            const SimTime pe = ev[p].end;
            if (best == kNone || pe > best_end
                || (pe == best_end && p > best)) {
                best = p;
                best_end = pe;
            }
        };
        if (isDeviceSide(e)) {
            const auto st = static_cast<std::size_t>(e.stream);
            if (st >= last_dev.size())
                last_dev.resize(st + 1, kNone);
            if (last_dev[st] != kNone
                && ev[last_dev[st]].end <= e.start)
                order = last_dev[st];
            last_dev[st] = i;
            if (e.kind == EventKind::Kernel) {
                const auto f = launchLookup(e.correlation);
                if (f != kNone && ev[f].end <= e.start)
                    corr = f;
            }
        } else if (isHostSerial(e)) {
            if (last_host != kNone
                && ev[last_host].end <= e.start)
                order = last_host;
            if (e.kind == EventKind::Sync) {
                // Join candidates: the sync retires only after the
                // device work it waits on, so these gate e.end, not
                // e.start.
                const auto join = [&](std::uint32_t dv) {
                    if (dv == kNone || ev[dv].end > e.end)
                        return;
                    consider(dv);
                    if (slack_edges != nullptr)
                        slack_edges->joins.emplace_back(i, dv);
                };
                if (e.stream >= 0) {
                    const auto st =
                        static_cast<std::size_t>(e.stream);
                    if (st < last_dev.size())
                        join(last_dev[st]);
                } else {
                    for (const auto dv : last_dev)
                        join(dv);
                }
            }
            last_host = i;
            if (e.kind == EventKind::Launch
                || e.kind == EventKind::GraphLaunch)
                launchStore(e.correlation, i);
        }
        consider(order);
        consider(corr);
        if (slack_edges != nullptr) {
            slack_edges->order[i] = order;
            slack_edges->corr[i] = corr;
        }
        s.pred[i] = best;
    }
}

/** End-of-scan fixups (once, after the last scanRange call). */
void
finalizeScan(Scan &s, const Tracer &tracer)
{
    AppMetrics &m = s.carry.metrics;
    m.end_to_end = tracer.span();

    // Fault-recovery spans overlapping a Sync window would count in
    // both fault_time and sync_time.  The recovery owns that wall
    // time; subtract the overlap from sync.
    s.faults = SpanCoverage(s.fault_spans);
    for (const auto &[a, b] : s.sync_spans)
        m.sync_time -= s.faults.covered(a, b);

    // A light scan's sets become what compactSampleMetrics() makes
    // of the full ones: one sample, the same left fold from 0.0 in
    // the same order, and an empty set stays empty.
    if (s.detail == ScanDetail::Light) {
        if (m.launches > 0) {
            m.klo.add(s.carry.folds.klo);
            m.lqt.add(s.carry.folds.lqt);
        }
        if (m.kernels > 0) {
            m.kqt.add(s.carry.folds.kqt);
            m.ket.add(s.carry.folds.ket);
        }
    }
}

Scan
scanTrace(const Tracer &tracer, ScanDetail detail,
          SlackEdges *slack_edges = nullptr)
{
    Scan s(detail);
    scanRange(s, tracer, 0, tracer.size(), slack_edges);
    finalizeScan(s, tracer);
    return s;
}

/**
 * Crypto vs link busy time for the CC copy split.  Crypto is the CPU
 * seal plus GPU open engines, minus the seal time the pipelined
 * overlap modes hid behind the wire (tee.channel.pipeline.
 * hidden_crypto_ps — overlapped crypto isn't a serial cost, so
 * attributing it to the Crypto share would double-charge the copy).
 * Link is the PCIe occupancy plus the bounce-copy stage, which in
 * the pipelined modes occupies its own timeline on the datapath
 * side.  All counters read 0 when absent, so OverlapMode::None runs
 * see exactly the historical split.
 */
std::pair<std::uint64_t, std::uint64_t>
ccCopySplitBusy(const obs::Registry *obs)
{
    if (obs == nullptr)
        return {0, 0};
    std::uint64_t crypto =
        obs->counterValue("sim.timeline.cc_crypto.busy_ps")
        + obs->counterValue("sim.timeline.cc_gpu_crypto.busy_ps");
    const std::uint64_t hidden =
        obs->counterValue("tee.channel.pipeline.hidden_crypto_ps");
    crypto -= std::min(crypto, hidden);
    const std::uint64_t link =
        obs->counterValue("pcie.link.busy_ps_h2d")
        + obs->counterValue("pcie.link.busy_ps_d2h")
        + obs->counterValue("sim.timeline.cc_stage.busy_ps");
    return {crypto, link};
}

/**
 * The backward binding walk shared by analyzeCritical() and
 * ForkAnalyzer: from @p start_cur, repeatedly bind to the event's
 * predecessor as the scan fixed it.  The walk always stands at the
 * current event's end, and every candidate the scan saw ends no
 * later than that, so no candidate is ever out of reach and the scan's
 * choice is the walk's.  The visited segments and gaps telescope over
 * [firstStart, lastEnd] with no overlap, so the emitted charges sum
 * exactly to the span.
 *
 * Hooks (all charging goes through them):
 *   segment(event, begin, end, raw_cat) — an on-path slice; the hook
 *       charges it (walker never does).  Called even for zero-length
 *       slices: they count as path events.
 *   share(a, b, cat) — a gap or head charge.
 *   handoff(best) -> bool — called after the gap to @p best has been
 *       charged; return true to stop the walk and let the caller
 *       account for everything from @p best down (memoized replay).
 */
template <typename SegmentFn, typename ShareFn, typename HandoffFn>
void
walkCritical(const Tracer &tracer, const Scan &s,
             std::uint32_t start_cur, SegmentFn &&segment,
             ShareFn &&share, HandoffFn &&handoff)
{
    const auto ev = tracer.events();
    std::uint32_t cur = start_cur;
    for (;;) {
        const TraceEvent &e = ev[cur];
        const std::uint32_t best = s.pred[cur];
        if (best == kNone) {
            segment(cur, e.start, e.end, eventCategory(tracer, e));
            // Head: time before the walk's first event (other
            // streams' ramp-up, or fault spans before t0).
            share(tracer.firstStart(), e.start, PathCategory::Other);
            return;
        }
        const SimTime a = ev[best].end;
        segment(cur, std::max(e.start, a), e.end,
                eventCategory(tracer, e));

        // Gap before the event: what the waiting event was blocked
        // on.
        const SimTime b = e.start;
        if (b > a) {
            switch (e.kind) {
              case EventKind::Kernel:
                // KQT: enqueued but not yet dispatched.
                share(a, b, PathCategory::Launch);
                break;
              case EventKind::Launch:
              case EventKind::GraphLaunch: {
                // The measured LQT part of the gap is queue
                // back-pressure; anything beyond it is untraced host
                // work between launches.
                const SimTime lqt = std::min(
                    b - a, std::max<SimTime>(0, e.queue_wait));
                share(b - lqt, b, PathCategory::Launch);
                share(a, b - lqt, PathCategory::Other);
                break;
              }
              case EventKind::Sync:
                share(a, b, PathCategory::Sync);
                break;
              case EventKind::MemcpyH2D:
              case EventKind::MemcpyD2H:
              case EventKind::MemcpyD2D:
                share(a, b, copyCategory(tracer, e));
                break;
              case EventKind::MallocDevice:
              case EventKind::MallocHost:
              case EventKind::MallocManaged:
              case EventKind::Free:
              case EventKind::Fault:
                share(a, b, PathCategory::Other);
                break;
            }
        }
        if (handoff(best))
            return;
        cur = best;
    }
}

/**
 * Books path time into the exact per-category partition.  Recovery
 * spans overlay other events, so the part of a charge they cover
 * belongs to the fault, not the carrier.  Link time splits between
 * crypto and link by the run's busy ratio (see ccCopySplitBusy),
 * exactly, in integer ps.
 */
struct ShareCharger
{
    std::array<SimTime, kPathCategoryCount> &shares;
    const SpanCoverage &faults;
    std::uint64_t crypto_busy = 0;
    std::uint64_t link_busy = 0;

    /** Book @p v ps of @p c; @p sign -1 takes a booking back. */
    void
    book(SimTime v, PathCategory c, SimTime sign = 1) const
    {
        const std::uint64_t den = crypto_busy + link_busy;
        if (c == PathCategory::Link && den > 0) {
            const auto crypto = static_cast<SimTime>(
                static_cast<unsigned __int128>(v) * crypto_busy / den);
            shares[idx(PathCategory::Crypto)] += sign * crypto;
            shares[idx(PathCategory::Link)] += sign * (v - crypto);
        } else {
            shares[idx(c)] += sign * v;
        }
    }

    /** Charge [a, b) to @p c, less what recovery spans cover. */
    void
    operator()(SimTime a, SimTime b, PathCategory c) const
    {
        if (b <= a)
            return;
        const SimTime f =
            c == PathCategory::Fault ? 0 : faults.covered(a, b);
        shares[idx(PathCategory::Fault)] += f;
        book(b - a - f, c);
    }
};

/**
 * The charging tail shared by analyzeCritical() and ForkAnalyzer:
 * charges the recovery tail past the last real event, lets @p walk
 * charge the path through the ShareCharger it is handed, checks that
 * the shares partition end_to_end, and classifies them.
 */
template <typename WalkFn>
void
chargePath(CriticalPath &cp, const Tracer &tracer, const Scan &s,
           const obs::Registry *obs, WalkFn &&walk)
{
    if (s.carry.tail == kNone) {
        // No real event (an empty trace, or only fault spans): all
        // recovery.
        cp.shares[idx(PathCategory::Fault)] = cp.end_to_end;
    } else {
        const auto [crypto_busy, link_busy] = ccCopySplitBusy(obs);
        const ShareCharger charge{cp.shares, s.faults, crypto_busy,
                                  link_busy};
        // Fault spans may outlast the last real event (or precede the
        // first one, handled at the walker's head charge).
        charge(tracer.events()[s.carry.tail].end, tracer.lastEnd(),
               PathCategory::Fault);
        walk(charge);
        SimTime total = 0;
        for (const auto sh : cp.shares)
            total += sh;
        HCC_ASSERT(total == cp.end_to_end,
                   "critical-path shares must partition end_to_end");
    }
    cp.bottleneck = classifyShares(
        cp.shares, cp.end_to_end,
        static_cast<SimTime>(
            obs ? obs->counterValue("gpu.uvm.fault_time_ps") : 0));
}

} // namespace

std::string_view
pathCategoryName(PathCategory category)
{
    switch (category) {
      case PathCategory::Compute: return "compute";
      case PathCategory::Crypto: return "crypto";
      case PathCategory::Link: return "link";
      case PathCategory::Launch: return "launch";
      case PathCategory::Uvm: return "uvm";
      case PathCategory::Sync: return "sync";
      case PathCategory::Alloc: return "alloc";
      case PathCategory::Fault: return "fault";
      case PathCategory::Other: return "other";
    }
    return "other";
}

std::string_view
bottleneckName(Bottleneck bottleneck)
{
    switch (bottleneck) {
      case Bottleneck::ComputeBound: return "compute-bound";
      case Bottleneck::CryptoBound: return "crypto-bound";
      case Bottleneck::LinkBound: return "link-bound";
      case Bottleneck::LaunchBound: return "launch-bound";
      case Bottleneck::UvmThrash: return "uvm-thrash";
      case Bottleneck::FaultBound: return "fault-bound";
    }
    return "compute-bound";
}

AppMetrics
analyze(const Tracer &tracer)
{
    return scanTrace(tracer, ScanDetail::Metrics).carry.metrics;
}

Bottleneck
classifyShares(const std::array<SimTime, kPathCategoryCount> &shares,
               SimTime end_to_end, SimTime uvm_fault_ps)
{
    if (end_to_end <= 0)
        return Bottleneck::ComputeBound;
    // All comparisons are exact integer "share >= N% of end_to_end";
    // SimTime tops out around 10^16 ps (hours), so *100 cannot
    // overflow int64.  Rules fire in priority order.
    const auto atLeast = [&](SimTime part, SimTime percent) {
        return part * 100 >= end_to_end * percent;
    };
    const SimTime crypto = shares[idx(PathCategory::Crypto)];
    const SimTime link = shares[idx(PathCategory::Link)];
    const SimTime uvm = shares[idx(PathCategory::Uvm)];
    if (atLeast(shares[idx(PathCategory::Fault)], 10))
        return Bottleneck::FaultBound;
    if (atLeast(uvm, 20)
        || (atLeast(uvm, 5) && atLeast(uvm_fault_ps, 20)))
        return Bottleneck::UvmThrash;
    if (atLeast(crypto, 15) && crypto >= link)
        return Bottleneck::CryptoBound;
    if (atLeast(link, 15))
        return Bottleneck::LinkBound;
    if (atLeast(shares[idx(PathCategory::Launch)], 30)
        && shares[idx(PathCategory::Launch)]
               > shares[idx(PathCategory::Compute)])
        return Bottleneck::LaunchBound;
    return Bottleneck::ComputeBound;
}

CriticalAnalysis
analyzeCritical(const Tracer &tracer, const obs::Registry *obs,
                bool full)
{
    SlackEdges edges;
    Scan s = scanTrace(tracer,
                       full ? ScanDetail::Full : ScanDetail::Light,
                       full ? &edges : nullptr);
    CriticalAnalysis out;
    out.metrics = std::move(s.carry.metrics);
    CriticalPath &cp = out.path;
    cp.end_to_end = out.metrics.end_to_end;

    // ---- CPM latest-finish pass -> per-event slack ---------------
    // Record order is a topological order (all edge sources have
    // lower indices), so one reverse sweep relaxes every successor
    // before its predecessors are visited.  The binding walk below
    // never reads lf/slack.
    if (full) {
        const auto ev = tracer.events();
        const std::size_t n = ev.size();
        cp.slack.assign(n, 0);
        std::vector<SimTime> lf(n, s.carry.last_nonfault_end);
        std::size_t next = edges.joins.size();
        for (std::uint32_t i = static_cast<std::uint32_t>(n); i-- > 0;) {
            const TraceEvent &e = ev[i];
            if (e.kind == EventKind::Fault)
                continue;
            const SimTime latest_start = lf[i] - e.duration();
            for (const auto p : {edges.order[i], edges.corr[i]}) {
                if (p != kNone)
                    lf[p] = std::min(lf[p], latest_start);
            }
            for (; next > 0 && edges.joins[next - 1].first == i;
                 --next) {
                // Finish-time edge: the waitee may grow by however
                // much the sync's own finish could slip.
                const auto p = edges.joins[next - 1].second;
                lf[p] = std::min(lf[p], ev[p].end + (lf[i] - e.end));
            }
            cp.slack[i] = std::max<SimTime>(0, lf[i] - e.end);
        }
    }

    // ---- backward binding walk -----------------------------------
    chargePath(cp, tracer, s, obs, [&](const ShareCharger &charge) {
        // The trace shows one opaque span per copy; a Link segment is
        // displayed as the larger side of the crypto/link split.
        const PathCategory copy_display =
            charge.crypto_busy > 0
                    && charge.crypto_busy >= charge.link_busy
                ? PathCategory::Crypto
                : PathCategory::Link;
        walkCritical(
            tracer, s, s.carry.tail,
            [&](std::uint32_t e_idx, SimTime a, SimTime b,
                PathCategory raw) {
                if (full)
                    cp.segments.push_back(
                        {e_idx, a, b,
                         raw == PathCategory::Link ? copy_display
                                                   : raw});
                ++cp.on_path_events;
                cp.on_path_ps += b - a;
                charge(a, b, raw);
            },
            charge, [](std::uint32_t) { return false; });
        // The walk visits strictly decreasing indices; flip to
        // ascending time order for exporters.
        std::reverse(cp.segments.begin(), cp.segments.end());
    });
    return out;
}

// ---- ForkAnalyzer ------------------------------------------------

namespace {

/**
 * Memoized replay of the prefix portion of the walk, keyed by the
 * event where the walk crossed into the prefix.  The walk below an
 * entry event is a pure function of the prefix's binding
 * predecessors (pred[i] depends only on events below i), so it is
 * recorded once; only the charges
 * depend on the cell (fault overlap, crypto/link split) and are
 * reapplied from the records.
 */
struct PrefixWalk
{
    /** One recorded share charge (post gap-split, pre fault/link). */
    struct Rec
    {
        SimTime a = 0;
        SimTime b = 0;
        PathCategory cat = PathCategory::Other;
    };
    SimTime on_path = 0;       //!< sum of on-path slice lengths
    std::size_t events = 0;    //!< number of slices (incl. empty)
    /** Per-category sums of every non-Link record — the fast path
     *  when no cell fault span reaches back into the prefix. */
    std::array<SimTime, kPathCategoryCount> sums{};
    /** Link records always replay: the crypto/link busy split uses
     *  the cell's final counters. */
    std::vector<Rec> link;
    /** Every record, ascending in time (the walk emits them
     *  tail-to-head; build reverses once).  The records partition
     *  [firstStart, entry end] contiguously, so ends are sorted and
     *  fault overlap localizes to a binary-searchable index range. */
    std::vector<Rec> all;
};

} // namespace

struct ForkAnalyzer::Impl
{
    std::size_t n_prefix = 0;
    /** The prefix scan, light and unfinalized.  analyze() extends
     *  it over a cell's suffix in place and rewind() truncates it
     *  back. */
    Scan base{ScanDetail::Light};
    /** What rewind() restores: base's carry and the sizes of its
     *  append-only arrays, as captured. */
    struct Mark
    {
        Scan::Carry carry;
        std::size_t launch_flat = 0;
        std::size_t fault_spans = 0;
        std::size_t sync_spans = 0;
    } mark;
    /** The suffix's correlation -> launch stores, for rewind(). */
    LaunchUndo undo;
    std::unordered_map<std::uint32_t, PrefixWalk> walks;

    /** Mark base as the capture (after capture() and every
     *  extendCapture()). */
    void
    seal()
    {
        mark = {base.carry, base.launch_flat.size(),
                base.fault_spans.size(), base.sync_spans.size()};
    }

    /** Take a cell's suffix scan back out of base.  Every vector
     *  shrinks or is copied into capacity it already has. */
    void
    rewind()
    {
        Scan &s = base;
        // Suffix launches take fresh correlation ids, so most stores
        // land past the captured launch_flat and go with the resize;
        // the log restores the rest, the map included, exactly.
        for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
            const auto [c, before] = *it;
            if (c < s.launch_flat.size())
                s.launch_flat[c] = before;
            else if (before == kNone)
                s.launch_of.erase(c);
            else
                s.launch_of[c] = before;
        }
        undo.clear();
        s.carry = mark.carry;
        s.pred.resize(n_prefix);
        s.launch_flat.resize(mark.launch_flat);
        s.fault_spans.resize(mark.fault_spans);
        s.sync_spans.resize(mark.sync_spans);
        s.faults = SpanCoverage{};
    }

    const PrefixWalk &
    walkFrom(const Tracer &tracer, std::uint32_t entry)
    {
        auto it = walks.find(entry);
        if (it != walks.end())
            return it->second;
        PrefixWalk w;
        const auto record = [&](SimTime a, SimTime b,
                                PathCategory cat) {
            if (b <= a)
                return;
            w.all.push_back({a, b, cat});
            if (cat == PathCategory::Link)
                w.link.push_back({a, b, cat});
            else
                w.sums[idx(cat)] += b - a;
        };
        // Prefix events and their predecessors are identical in
        // every cell's tracer, so recording against whichever cell
        // asked first is sound.  A suffix extension of base adds
        // nothing the walk can read: it descends below @p entry only.
        walkCritical(
            tracer, base, entry,
            [&](std::uint32_t, SimTime a, SimTime b,
                PathCategory raw) {
                ++w.events;
                w.on_path += b - a;
                record(a, b, raw);
            },
            record, [](std::uint32_t) { return false; });
        std::reverse(w.all.begin(), w.all.end());
        return walks.emplace(entry, std::move(w)).first->second;
    }
};

ForkAnalyzer::ForkAnalyzer() = default;
ForkAnalyzer::~ForkAnalyzer() = default;
ForkAnalyzer::ForkAnalyzer(ForkAnalyzer &&) noexcept = default;
ForkAnalyzer &
ForkAnalyzer::operator=(ForkAnalyzer &&) noexcept = default;

bool
ForkAnalyzer::captured() const
{
    return impl_ != nullptr;
}

ForkAnalyzer
ForkAnalyzer::clone() const
{
    HCC_ASSERT(impl_ != nullptr,
               "ForkAnalyzer cloned before capture");
    ForkAnalyzer out;
    out.impl_ = std::make_unique<Impl>(*impl_);
    return out;
}

void
ForkAnalyzer::extendCapture(const Tracer &tracer)
{
    HCC_ASSERT(impl_ != nullptr,
               "ForkAnalyzer extended before capture");
    HCC_ASSERT(tracer.size() >= impl_->n_prefix,
               "fork trace shorter than its captured prefix");
    scanRange(impl_->base, tracer, impl_->n_prefix, tracer.size());
    impl_->n_prefix = tracer.size();
    impl_->seal();
}

void
ForkAnalyzer::capture(const Tracer &prefix_tracer)
{
    impl_ = std::make_unique<Impl>();
    impl_->n_prefix = prefix_tracer.size();
    // Unfinalized on purpose: the fault index and the sync-overlap
    // fixup are built once per cell over the complete span sets,
    // exactly like the one-shot scan would.
    scanRange(impl_->base, prefix_tracer, 0, impl_->n_prefix);
    impl_->seal();
}

CriticalAnalysis
ForkAnalyzer::analyze(const Tracer &tracer, const obs::Registry *obs)
{
    HCC_ASSERT(impl_ != nullptr, "ForkAnalyzer used before capture");
    Impl &im = *impl_;
    const std::size_t n = tracer.size();
    HCC_ASSERT(n >= im.n_prefix,
               "fork trace shorter than its captured prefix");

    // Extend the captured scan over the suffix in place.  The guard
    // rewinds it on every exit path, so a cell that throws cannot
    // leak its suffix into the next cell's prefix.
    struct Rewind
    {
        Impl &im;
        ~Rewind() { im.rewind(); }
    } const rewind{im};
    Scan &s = im.base;
    scanRange(s, tracer, im.n_prefix, n, nullptr, &im.undo);
    finalizeScan(s, tracer);

    // Light metrics: the suffix continued the prefix's sample folds,
    // so they are the additions, in the order, of a cold light scan.
    CriticalAnalysis out;
    out.metrics = s.carry.metrics;
    CriticalPath &cp = out.path;
    cp.end_to_end = out.metrics.end_to_end;
    chargePath(cp, tracer, s, obs, [&](const ShareCharger &charge) {
        const auto applyPrefix = [&](std::uint32_t entry) {
            const PrefixWalk &w = im.walkFrom(tracer, entry);
            cp.on_path_ps += w.on_path;
            cp.on_path_events += w.events;
            // Charge every record as if no fault span touched it:
            // plain per-category sums, plus the cell-ratio
            // crypto/link split of each Link record (the per-record
            // floor division must be replayed — it does not
            // distribute over the sum).
            for (std::size_t c = 0; c < kPathCategoryCount; ++c)
                cp.shares[c] += w.sums[c];
            for (const auto &r : w.link)
                charge.book(r.b - r.a, PathCategory::Link);
            // Fault spans are armed at the fork point, so they reach
            // back into the walk's interval only through in-flight
            // device events (the entry event's slice can end deep in
            // the suffix).  From the first record that ends after the
            // first fault to the last fault's end, take each record's
            // fault-free booking back and charge it as the live walk
            // would.
            const auto &runs = s.faults.runs();
            if (runs.empty())
                return;
            auto it = std::upper_bound(
                w.all.begin(), w.all.end(), runs.front().first,
                [](SimTime v, const PrefixWalk::Rec &r) {
                    return v < r.b;
                });
            for (; it != w.all.end() && it->a < runs.back().second;
                 ++it) {
                charge.book(it->b - it->a, it->cat, -1);
                charge(it->a, it->b, it->cat);
            }
        };

        if (s.carry.tail < im.n_prefix) {
            // Degenerate suffix (fraction 1.0): the whole walk is the
            // memoized prefix replay.
            applyPrefix(s.carry.tail);
            return;
        }
        walkCritical(
            tracer, s, s.carry.tail,
            [&](std::uint32_t, SimTime a, SimTime b,
                PathCategory raw) {
                ++cp.on_path_events;
                cp.on_path_ps += b - a;
                charge(a, b, raw);
            },
            charge,
            [&](std::uint32_t best) {
                if (best >= im.n_prefix)
                    return false;
                applyPrefix(best);
                return true;
            });
    });
    return out;
}

void
publishCriticalPath(const CriticalPath &path, obs::Registry &registry)
{
    registry.counter("critpath.end_to_end_ps")
        .add(static_cast<std::uint64_t>(path.end_to_end));
    registry.counter("critpath.on_path_ps")
        .add(static_cast<std::uint64_t>(path.on_path_ps));
    registry.counter("critpath.events_on_path")
        .add(path.on_path_events);
    registry.counter("critpath.bottleneck_code")
        .add(static_cast<std::uint64_t>(path.bottleneck));
    for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
        const auto cat = static_cast<PathCategory>(c);
        registry
            .counter("critpath.share."
                     + std::string(pathCategoryName(cat)) + "_ps")
            .add(static_cast<std::uint64_t>(path.shares[c]));
    }
}

std::string
criticalPathJson(const CriticalPath &path)
{
    std::ostringstream os;
    os << "{\"bottleneck\": \"" << bottleneckName(path.bottleneck)
       << "\", \"end_to_end_ps\": " << path.end_to_end
       << ", \"on_path_ps\": " << path.on_path_ps
       << ", \"events_on_path\": " << path.on_path_events
       << ", \"shares\": {";
    for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
        if (c != 0)
            os << ", ";
        os << '"'
           << pathCategoryName(static_cast<PathCategory>(c))
           << "_ps\": " << path.shares[c];
    }
    os << "}}";
    return os.str();
}

std::string
criticalPathJsonMember(const CriticalPath &path)
{
    return obs::ReportWriter::member("critical_path",
                                     criticalPathJson(path));
}

namespace {

std::string
sharePct(SimTime part, SimTime whole)
{
    if (whole <= 0)
        return TextTable::pct(0.0);
    return TextTable::pct(100.0 * static_cast<double>(part)
                          / static_cast<double>(whole));
}

} // namespace

std::string
criticalReport(const CriticalPath &path, const Tracer &tracer,
               int top_n)
{
    const auto ev = tracer.events();
    std::ostringstream os;

    TextTable sum("critical path");
    sum.header({"metric", "value"});
    sum.row({"end-to-end", formatTime(path.end_to_end)});
    sum.row({"on-path (in events)",
             formatTime(path.on_path_ps) + "  ("
                 + sharePct(path.on_path_ps, path.end_to_end) + ")"});
    sum.row({"path segments",
             std::to_string(path.segments.size())});
    sum.row({"bottleneck",
             std::string(bottleneckName(path.bottleneck))});
    sum.print(os);
    os << "\n";

    TextTable shares("critical-path shares");
    shares.header({"category", "time", "share"});
    for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
        if (path.shares[c] == 0)
            continue;
        shares.row({std::string(pathCategoryName(
                        static_cast<PathCategory>(c))),
                    formatTime(path.shares[c]),
                    sharePct(path.shares[c], path.end_to_end)});
    }
    if (shares.rowCount() == 0)
        shares.row({"compute", formatTime(0), sharePct(0, 1)});
    shares.print(os);
    os << "\n";

    // Top on-path contributors, grouped by (kind, label).
    struct Contrib
    {
        SimTime ps = 0;
        std::size_t count = 0;
    };
    std::map<std::pair<EventKind, LabelId>, Contrib> by_label;
    for (const auto &seg : path.segments) {
        const TraceEvent &e = ev[seg.event];
        auto &c = by_label[{e.kind, e.label}];
        c.ps += seg.duration();
        ++c.count;
    }
    std::vector<std::pair<std::pair<EventKind, LabelId>, Contrib>>
        ranked(by_label.begin(), by_label.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.ps != b.second.ps)
                      return a.second.ps > b.second.ps;
                  return a.first < b.first;
              });
    TextTable top("top on-path contributors");
    top.header({"kind", "label", "segments", "time", "share"});
    const auto limit = static_cast<std::size_t>(std::max(top_n, 1));
    for (std::size_t r = 0; r < ranked.size() && r < limit; ++r) {
        const auto &[key, c] = ranked[r];
        std::string label(tracer.labelName(key.second));
        if (label.empty())
            label = "-";
        top.row({std::string(eventKindName(key.first)), label,
                 std::to_string(c.count), formatTime(c.ps),
                 sharePct(c.ps, path.end_to_end)});
    }
    top.print(os);
    os << "\n";

    // Largest slack among device-side work: these are the overlap
    // candidates a PipeLLM-style mitigation could hide.
    std::vector<std::uint32_t> idle;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(path.slack.size()); ++i) {
        const TraceEvent &e = ev[i];
        if (path.slack[i] > 0
            && (e.kind == EventKind::Kernel || isCopy(e.kind)))
            idle.push_back(i);
    }
    std::sort(idle.begin(), idle.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (path.slack[a] != path.slack[b])
                      return path.slack[a] > path.slack[b];
                  return a < b;
              });
    if (idle.size() > limit)
        idle.resize(limit);
    TextTable slack("largest slack (overlap candidates)");
    slack.header({"kind", "label", "start", "duration", "slack"});
    for (const auto i : idle) {
        const TraceEvent &e = ev[i];
        std::string label(tracer.name(e));
        if (label.empty())
            label = "-";
        slack.row({std::string(eventKindName(e.kind)), label,
                   formatTime(e.start), formatTime(e.duration()),
                   formatTime(path.slack[i])});
    }
    if (slack.rowCount() > 0) {
        slack.print(os);
        os << "\n";
    }
    return os.str();
}

void
writeCriticalJson(const CriticalPath &path, const Tracer &tracer,
                  std::ostream &os)
{
    const auto ev = tracer.events();
    os << "{\n  \"hccsim_critical_version\": 1,\n  "
       << criticalPathJsonMember(path) << ",\n  \"segments\": [";
    bool first = true;
    for (const auto &seg : path.segments) {
        const TraceEvent &e = ev[seg.event];
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"event\": " << seg.event << ", \"kind\": \""
           << eventKindName(e.kind) << "\", \"label\": \""
           << tracer.name(e) << "\", \"category\": \""
           << pathCategoryName(seg.category)
           << "\", \"begin_ps\": " << seg.begin
           << ", \"end_ps\": " << seg.end << ", \"slack_ps\": "
           << (seg.event < path.slack.size()
                   ? path.slack[seg.event]
                   : 0)
           << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace hcc::trace
