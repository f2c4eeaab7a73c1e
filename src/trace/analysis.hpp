/**
 * @file
 * Trace analysis: extracts the paper's metrics from a Tracer.
 *
 * Definitions follow Sec. V / Fig. 3:
 *   KLO — duration of a host-side launch operation,
 *   LQT — wait before the next consecutive launch can start,
 *   KQT — wait between kernel enqueue and execution start,
 *   KET — kernel execution duration,
 *   T_mem — memcpy time, T_other — alloc/free/sync.
 */

#ifndef HCC_TRACE_ANALYSIS_HPP
#define HCC_TRACE_ANALYSIS_HPP

#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "trace/tracer.hpp"

namespace hcc::trace {

/** Per-application summary of the paper's metrics. */
struct AppMetrics
{
    // Launch-side (part B).
    SampleSet klo;   //!< per-launch overheads
    SampleSet lqt;   //!< per-gap launch queuing times
    // Kernel-side (part C).
    SampleSet kqt;   //!< per-kernel queuing times
    SampleSet ket;   //!< per-kernel execution times
    // Memory (parts A and D).
    SimTime copy_h2d = 0;
    SimTime copy_d2h = 0;
    SimTime copy_d2d = 0;
    SimTime alloc_device = 0;
    SimTime alloc_host = 0;
    SimTime alloc_managed = 0;
    SimTime free_time = 0;
    SimTime sync_time = 0;
    /** Injected-fault recovery time (hcc::fault spans). */
    SimTime fault_time = 0;
    /** End-to-end span of the trace. */
    SimTime end_to_end = 0;
    int launches = 0;
    int kernels = 0;
    int fault_recoveries = 0;

    SimTime copyTotal() const { return copy_h2d + copy_d2h + copy_d2d; }
    SimTime sumKlo() const { return static_cast<SimTime>(klo.sum()); }
    SimTime sumLqt() const { return static_cast<SimTime>(lqt.sum()); }
    SimTime sumKqt() const { return static_cast<SimTime>(kqt.sum()); }
    SimTime sumKet() const { return static_cast<SimTime>(ket.sum()); }
};

/** Extract the per-app metrics from a trace. */
AppMetrics analyze(const Tracer &tracer);

/**
 * Collapse each per-launch/per-kernel sample set to a single sample
 * carrying its insertion-order total.  sumKlo()/sumLqt()/sumKqt()/
 * sumKet() are unchanged bit for bit (the total is the same
 * left-to-right accumulation sum() would have produced); counts,
 * means and percentiles over the individual samples are lost.
 *
 * This is the contract of the light critical-path result
 * (analyzeCritical with full = false), which serve and campaign
 * cells consume: it folds each set to this form during its scan, so
 * no sample is stored, and tests hold it to this function.
 */
void compactSampleMetrics(AppMetrics &metrics);

/**
 * The union of a span family, indexed for overlap queries.
 *
 * Built once: the spans are sorted and merged into disjoint runs
 * (empty and inverted spans cover nothing and are dropped), with the
 * running covered length before each run.  covered() then costs two
 * binary searches and is exact in integer picoseconds, so n overlap
 * queries against one family cost O(n log n) in all.  The Fig. 3
 * alpha/beta terms and the critical path's fault re-attribution are
 * both answered here.
 */
class SpanCoverage
{
  public:
    using Span = std::pair<SimTime, SimTime>;

    SpanCoverage() = default;
    explicit SpanCoverage(std::vector<Span> spans);

    /** Time of [a, b) covered by the union (0 when b <= a). */
    SimTime
    covered(SimTime a, SimTime b) const
    {
        return b > a && !runs_.empty()
            ? coveredBefore(b) - coveredBefore(a) : 0;
    }
    /** Total time covered by the union. */
    SimTime total() const { return prefix_.back(); }
    /** The merged runs: ascending, disjoint and non-touching. */
    const std::vector<Span> &runs() const { return runs_; }

  private:
    /** Covered time before @p t. */
    SimTime coveredBefore(SimTime t) const;

    std::vector<Span> runs_;
    /** prefix_[i]: covered length of runs_[0, i). */
    std::vector<SimTime> prefix_ = {0};
};

/** An (x = start us, y = duration us) point for Fig. 10 scatters. */
struct EventPoint
{
    double start_us = 0.0;
    double duration_us = 0.0;
};

/**
 * Fig. 10 scatter series for one event kind, with the longest
 * @p drop_longest events removed for display (paper's method).
 */
std::vector<EventPoint> eventScatter(const Tracer &tracer,
                                     EventKind kind,
                                     std::size_t drop_longest = 1);

/**
 * Kernel-to-Launch Ratio (Observation 6): sum(KET) over
 * sum(KLO + LQT).  Returns +inf-like large value when the
 * denominator is zero.
 */
double kernelToLaunchRatio(const AppMetrics &m);

} // namespace hcc::trace

#endif // HCC_TRACE_ANALYSIS_HPP
