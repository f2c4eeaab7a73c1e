/**
 * @file
 * Trace-derived critical-path analysis and bottleneck classifier.
 *
 * The Fig. 3 decomposition (analysis.hpp) is additive: it sums KLO,
 * queue waits, copies and kernel time without asking which of them
 * actually *gated* the end-to-end span once streams overlap.  This
 * layer answers that question from the recorded trace alone:
 *
 *  1. One binding predecessor per event, fixed in a single pass over
 *     the chunk-paged EventView.  An event's candidates are
 *       - its per-stream program-order predecessor (kernels/async
 *         copies serialize on their stream),
 *       - for a Kernel, its Launch via the `correlation` id
 *         (GraphLaunch fans out to every node kernel),
 *       - for a Sync, the device work it joins (a synchronize cannot
 *         retire before the device work it waits on),
 *       - timestamp-implied host serialization (the host API chain:
 *         launches, allocs, frees, syncs and blocking copies).
 *     Its predecessor is the latest-ending candidate (ties break to
 *     the higher event index, so the walk is deterministic).  Fault
 *     recovery spans are annotations *inside* other events and get
 *     no predecessor; their time is re-attributed by overlap instead.
 *
 *  2. A longest-path walk: starting from the event that ends last,
 *     repeatedly bind to the event's predecessor.  Every candidate
 *     ends no later than the event does, so the predecessor the walk
 *     binds to is the one the scan fixed.  The walk telescopes the
 *     full [firstStart, lastEnd] span into integer-picosecond
 *     segments, so the per-category shares sum *exactly* to
 *     `end_to_end`.
 *
 *  3. CPM-style slack per event (how much an event could grow
 *     without moving the end of the run) for overlap what-ifs.  Only
 *     this pass needs the candidate edges; the full analysis keeps
 *     them for it, and nothing else does.
 *
 *  4. A deterministic rule-based classifier mapping the shares to a
 *     bottleneck label (crypto-bound, link-bound, launch-bound,
 *     uvm-thrash, fault-bound, compute-bound).  Thresholds are
 *     documented in docs/CRITICAL_PATH.md.
 *
 * analyze() (analysis.hpp) is implemented on the same single
 * traversal, so every sweep cell gets metrics + critical path for
 * one pass over its events.
 */

#ifndef HCC_TRACE_CRITPATH_HPP
#define HCC_TRACE_CRITPATH_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "obs/registry.hpp"
#include "trace/analysis.hpp"
#include "trace/tracer.hpp"

namespace hcc::trace {

/** Where one picosecond of the critical path is spent. */
enum class PathCategory
{
    Compute,  //!< kernel execution (and plain device-local blits)
    Crypto,   //!< AES-GCM share of CC copy time (busy-ratio split)
    Link,     //!< PCIe wire + staging share of copy time
    Launch,   //!< launch operations, LQT gaps and dispatch waits
    Uvm,      //!< managed paging: prefetch/writeback/encrypted paging
    Sync,     //!< synchronize API tails on the path
    Alloc,    //!< device/host/managed allocation and free calls
    Fault,    //!< injected-fault recovery spans overlapping the path
    Other,    //!< untraced host time between API calls
};

constexpr std::size_t kPathCategoryCount = 9;

/** Lower-case category name ("compute", "crypto", ...). */
std::string_view pathCategoryName(PathCategory category);

/** Deterministic bottleneck labels (codes are stable, see docs). */
enum class Bottleneck
{
    ComputeBound = 0,
    CryptoBound = 1,
    LinkBound = 2,
    LaunchBound = 3,
    UvmThrash = 4,
    FaultBound = 5,
};

/** Label as reported ("compute-bound", "uvm-thrash", ...). */
std::string_view bottleneckName(Bottleneck bottleneck);

/** One on-path slice of a traced event. */
struct PathSegment
{
    /** Event index into Tracer::events(). */
    std::uint32_t event = 0;
    /** The slice of the event that lies on the path. */
    SimTime begin = 0;
    SimTime end = 0;
    /** Display category (crypto/link copies carry the larger side). */
    PathCategory category = PathCategory::Other;

    SimTime duration() const { return end - begin; }
};

/** The critical path of one run. */
struct CriticalPath
{
    /** lastEnd - firstStart of the trace (= AppMetrics.end_to_end). */
    SimTime end_to_end = 0;
    /** Path time spent inside traced events (gaps excluded). */
    SimTime on_path_ps = 0;
    /** Exact partition of end_to_end by category (sums to it). */
    std::array<SimTime, kPathCategoryCount> shares{};
    Bottleneck bottleneck = Bottleneck::ComputeBound;
    /** Number of on-path slices.  Equals segments.size() in a full
     *  result; light results count without building the list. */
    std::size_t on_path_events = 0;
    /** On-path slices, ascending in time and event index.  Empty in
     *  a light result (serve and campaign cells never export them). */
    std::vector<PathSegment> segments;
    /** Per-event slack (ps an event can grow without moving the
     *  end), indexed like Tracer::events().  Empty in a light
     *  result. */
    std::vector<SimTime> slack;

    SimTime share(PathCategory c) const
    {
        return shares[static_cast<std::size_t>(c)];
    }
};

/** Metrics and critical path from one traversal of the trace. */
struct CriticalAnalysis
{
    AppMetrics metrics;
    CriticalPath path;
};

/**
 * Run the shared single pass: Fig. 3 metrics plus the critical path.
 * @param obs when given, the run's registry supplies the crypto/link
 *        busy ratio used to split CC copy time and the UVM fault
 *        signal for the classifier; counters are only read, never
 *        created.
 * @param full the full result, for reports and exports: every metric
 *        sample, the on-path `segments` and the per-event `slack`
 *        (the CPM latest-finish pass).  false gives the light result
 *        bulk callers (serve and campaign cells) consume: the same
 *        end_to_end, shares, on_path_ps, on_path_events and
 *        bottleneck, with `segments` and `slack` left empty and each
 *        metrics sample set folded during the scan to its total
 *        exactly as compactSampleMetrics() would leave it (bit for
 *        bit; an empty set stays empty).  The light scan keeps one
 *        predecessor index per event and nothing per sample.
 */
CriticalAnalysis analyzeCritical(const Tracer &tracer,
                                 const obs::Registry *obs = nullptr,
                                 bool full = true);

/**
 * Incremental re-analysis for the snapshot fork engine.
 *
 * A fork group runs one shared prefix and replays N per-cell
 * suffixes on top of it; analyzeCritical() would rescan the full
 * trace for every cell even though the prefix events never change.
 * capture() scans the prefix once, light, and keeps the scan state
 * (metrics accumulators and sample folds, binding predecessors,
 * correlation map).  analyze() extends that state in place over the
 * appended suffix events only, walks the path backward until it
 * crosses into the prefix, where a memoized replay of the prefix
 * walk (keyed by entry event, built on first use) supplies the
 * remaining shares, and then truncates the state back to the
 * capture.  Its host cost is therefore proportional to the suffix,
 * not to the prefix.  The result is bit-identical to the light
 * analyzeCritical() (full = false) — campaign cells only consume the
 * sums, shares, bottleneck and the published critpath.* counters.
 *
 * Per-cell fault spans and crypto/link busy ratios are applied live,
 * so faulted cells that perturb the suffix (or even overlap cached
 * prefix slices) stay exact.  Not thread-safe: use one instance per
 * fork group, on the group's worker.
 */
class ForkAnalyzer
{
  public:
    ForkAnalyzer();
    ~ForkAnalyzer();
    ForkAnalyzer(ForkAnalyzer &&) noexcept;
    ForkAnalyzer &operator=(ForkAnalyzer &&) noexcept;

    /** Scan the fork-point prefix (the tracer as captured). */
    void capture(const Tracer &prefix_tracer);
    bool captured() const;

    /**
     * Snapshot-tree support: a deep copy carrying the captured
     * prefix scan and the memoized prefix walks.  A chained fork's
     * per-seed capture clones the prefix's analyzer and
     * extendCapture()s it over the seed's segments, so incremental
     * critical-path analysis never rescans the shared prefix.
     */
    ForkAnalyzer clone() const;

    /**
     * Grow the captured prefix over events appended since capture()
     * (the chained segment just run on the restored Context).
     * Memoized prefix walks stay valid: the old prefix events are
     * unchanged and walks only descend toward lower indices.
     */
    void extendCapture(const Tracer &tracer);

    /**
     * Analyze a trace that extends the captured prefix.  @p tracer
     * must contain the prefix events unchanged (the restore-in-place
     * snapshot engine guarantees this).  The capture is the same
     * after the call as before it, also when the call throws.
     */
    CriticalAnalysis analyze(const Tracer &tracer,
                             const obs::Registry *obs);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The classifier alone (exposed for tests): maps exact shares to a
 * label.  @p uvm_fault_ps is the registry's gpu.uvm.fault_time_ps
 * (demand faults inside kernels leave no trace events).
 */
Bottleneck
classifyShares(const std::array<SimTime, kPathCategoryCount> &shares,
               SimTime end_to_end, SimTime uvm_fault_ps = 0);

/** Publish the path as critpath.* counters in @p registry. */
void publishCriticalPath(const CriticalPath &path,
                         obs::Registry &registry);

/** The path as a one-line JSON object (deterministic field order). */
std::string criticalPathJson(const CriticalPath &path);

/** `"critical_path": {...}` member text for stats dumps. */
std::string criticalPathJsonMember(const CriticalPath &path);

/**
 * Human report: summary, per-category shares, top-N on-path
 * contributors and top-N slack carriers (overlap candidates).
 */
std::string criticalReport(const CriticalPath &path,
                           const Tracer &tracer, int top_n);

/** Full machine-readable dump for `hccsim critical --critical-out`. */
void writeCriticalJson(const CriticalPath &path, const Tracer &tracer,
                       std::ostream &os);

} // namespace hcc::trace

#endif // HCC_TRACE_CRITPATH_HPP
