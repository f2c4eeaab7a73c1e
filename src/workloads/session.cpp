#include "workloads/session.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace hcc::workloads {

int
SessionWorkload::stepAtFraction(double fraction, int total_steps)
{
    const double f = std::clamp(fraction, 0.0, 1.0);
    return static_cast<int>(static_cast<double>(total_steps) * f);
}

std::unique_ptr<Workload::Resume>
SessionWorkload::runPrefix(rt::Context &ctx,
                           const WorkloadParams &params,
                           double fraction) const
{
    auto session = makeSession(params);
    session->open(ctx);
    session->advance(
        ctx, stepAtFraction(fraction, session->totalSteps()));
    auto resume = std::make_unique<SessionResume>();
    resume->session = std::move(session);
    return resume;
}

void
SessionWorkload::runSuffix(rt::Context &ctx,
                           const WorkloadParams &params,
                           const Resume &resume) const
{
    (void)params;
    // Clone: the Resume stays immutable so every cell forked from
    // the same snapshot can replay the same suffix.
    auto session = sessionOf(resume).clone();
    session->finish(ctx);
}

std::unique_ptr<Workload::Resume>
SessionWorkload::runSegment(rt::Context &ctx,
                            const WorkloadParams &params,
                            const Resume &from,
                            double to_fraction) const
{
    (void)params;
    auto session = sessionOf(from).clone();
    session->advance(
        ctx, stepAtFraction(to_fraction, session->totalSteps()));
    auto next = std::make_unique<SessionResume>();
    next->session = std::move(session);
    return next;
}

const Session &
SessionWorkload::sessionOf(const Resume &resume)
{
    const auto *r = dynamic_cast<const SessionResume *>(&resume);
    if (!r || !r->session)
        fatal("session workload got a foreign resume state");
    return *r->session;
}

} // namespace hcc::workloads
