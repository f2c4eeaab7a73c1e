/**
 * @file
 * The Session interface: one workload instance driven step by step.
 *
 * The campaign fork engine advances workloads incrementally: it
 * replays suffixes from snapshots and runs the segments between
 * chained cuts.  Session puts the per-workload
 * split-phase trios (llmServePrefix/Segment/Finish,
 * cnnTrainPrefix/...) behind one step-cursor API, and
 * SessionWorkload adapts any Session-shaped workload onto the
 * registry's fraction-based split-phase protocol (workload.hpp).
 * The continuous-batching scheduler (serve/scheduler.cpp) uses
 * neither: it keeps its own per-request state and prices each
 * iteration with ml::llmStepModel.
 *
 * Lifecycle:  open() issues the setup prefix (allocations, input
 * transfers, warm-up/prefill); advance(to) issues steady-state steps
 * [cursor, to); finish() issues any remaining steps plus the result
 * computation and frees.  open -> advance* -> finish on one Context
 * issues the identical API call sequence regardless of how the steps
 * are grouped.  clone() copies the session state (a value: buffer
 * handles and cursors, not live resources), which is what makes a
 * Session usable as an immutable fork-point Resume — a seed's
 * segments clone it before advancing, so the original keeps
 * describing the cut.
 */

#ifndef HCC_WORKLOADS_SESSION_HPP
#define HCC_WORKLOADS_SESSION_HPP

#include <memory>

#include "workloads/workload.hpp"

namespace hcc::workloads {

/** One incrementally-advanced workload instance. */
class Session
{
  public:
    virtual ~Session() = default;

    /** Steady-state steps between open() and completion. */
    virtual int totalSteps() const = 0;

    /** Steps already advanced (0 right after open()). */
    virtual int cursor() const = 0;

    /** Setup prefix: allocations, ingress, warm-up/prefill. */
    virtual void open(rt::Context &ctx) = 0;

    /** Advance to step @p to_step (no-op when already there). */
    virtual void advance(rt::Context &ctx, int to_step) = 0;

    /** Remaining steps, result computation and frees. */
    virtual void finish(rt::Context &ctx) = 0;

    /** Value copy of the session state (see file comment). */
    virtual std::unique_ptr<Session> clone() const = 0;
};

/**
 * Registry adapter: implements the Workload split-phase protocol on
 * top of makeSession(), so a workload written as a Session satisfies
 * the identical-call-sequence contract by construction.
 */
class SessionWorkload : public Workload
{
  public:
    /** Build a fresh (unopened) session for @p params. */
    virtual std::unique_ptr<Session>
    makeSession(const WorkloadParams &params) const = 0;

    /** The step a fraction-based cut lands on: the same rounding for
     *  every engine, so chained cuts tile without gaps. */
    static int stepAtFraction(double fraction, int total_steps);

    std::unique_ptr<Resume>
    runPrefix(rt::Context &ctx, const WorkloadParams &params,
              double fraction) const override;

    void runSuffix(rt::Context &ctx, const WorkloadParams &params,
                   const Resume &resume) const override;

    std::unique_ptr<Resume>
    runSegment(rt::Context &ctx, const WorkloadParams &params,
               const Resume &from, double to_fraction) const override;

  private:
    struct SessionResume final : Resume
    {
        std::unique_ptr<Session> session;
    };

    static const Session &sessionOf(const Resume &resume);
};

} // namespace hcc::workloads

#endif // HCC_WORKLOADS_SESSION_HPP
