#include "perfmodel/model.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "trace/analysis.hpp"

namespace hcc::perfmodel {

double
Decomposition::relativeError() const
{
    if (end_to_end == 0)
        return 0.0;
    return std::abs(static_cast<double>(predicted - end_to_end))
        / static_cast<double>(end_to_end);
}

std::string
Decomposition::report() const
{
    std::ostringstream oss;
    char err[32];
    std::snprintf(err, sizeof(err), "%.2f%%",
                  relativeError() * 100.0);
    oss << "T_mem (A, raw)       " << formatTime(t_mem)
        << "  alpha = " << alpha << "\n"
        << "sum(KLO+LQT) (B)     " << formatTime(t_launch) << "\n"
        << "sum(KET+KQT) (C,raw) " << formatTime(t_kernel)
        << "  mean beta = " << beta_mean << "\n"
        << "T_other (D)          " << formatTime(t_other) << "\n"
        << "P (measured)         " << formatTime(end_to_end) << "\n"
        << "P (model)            " << formatTime(predicted)
        << "  (err " << err << ")\n"
        << "residual             " << formatTime(residual) << "\n";
    return oss.str();
}

Decomposition
decompose(const trace::Tracer &tracer)
{
    using trace::EventKind;
    Decomposition d;
    d.end_to_end = tracer.span();

    // Collect the interval families.
    std::vector<std::pair<SimTime, SimTime>> mem_spans;
    std::vector<std::pair<SimTime, SimTime>> launch_spans;
    std::vector<std::pair<SimTime, SimTime>> kernel_spans;
    std::vector<std::pair<SimTime, SimTime>> sync_spans;

    for (const auto &e : tracer.events()) {
        switch (e.kind) {
          case EventKind::MemcpyH2D:
          case EventKind::MemcpyD2H:
          case EventKind::MemcpyD2D:
            mem_spans.emplace_back(e.start, e.end);
            d.t_mem += e.duration();
            break;
          case EventKind::Launch:
          case EventKind::GraphLaunch:
            // The LQT precedes the launch operation itself.
            launch_spans.emplace_back(e.start - e.queue_wait, e.end);
            d.t_launch += e.duration() + e.queue_wait;
            break;
          case EventKind::Kernel:
            // Part C interval: queue wait + execution.
            kernel_spans.emplace_back(e.start - e.queue_wait, e.end);
            d.t_kernel += e.duration() + e.queue_wait;
            break;
          case EventKind::MallocDevice:
          case EventKind::MallocHost:
          case EventKind::MallocManaged:
          case EventKind::Free:
            d.t_other += e.duration();
            break;
          case EventKind::Sync:
            sync_spans.emplace_back(e.start, e.end);
            break;
          case EventKind::Fault:
            // Recovery spans overlap the transfers they retried;
            // their cost is already inside the memcpy durations.
            break;
        }
    }

    // Each overlap family is indexed once, so every query below is
    // two binary searches and the decomposition is O(n log n).
    std::vector<std::pair<SimTime, SimTime>> bc_spans = launch_spans;
    bc_spans.insert(bc_spans.end(), kernel_spans.begin(),
                    kernel_spans.end());
    const trace::SpanCoverage launch_or_kernel(std::move(bc_spans));
    const trace::SpanCoverage launches(std::move(launch_spans));
    const trace::SpanCoverage kernels(kernel_spans);

    // alpha: fraction of memcpy time overlapped with launch or
    // kernel activity.
    SimTime mem_overlapped = 0;
    for (const auto &[s, e] : mem_spans)
        mem_overlapped += launch_or_kernel.covered(s, e);
    d.alpha = d.t_mem > 0
        ? static_cast<double>(mem_overlapped)
              / static_cast<double>(d.t_mem)
        : 0.0;

    // beta_i: fraction of each kernel's (KQT+KET) hidden under
    // launch activity (Fig. 3: K1's beta of 1 means part C is fully
    // covered by part B).
    SimTime kernel_visible = 0;
    double beta_sum = 0.0;
    for (const auto &[s, e] : kernel_spans) {
        const SimTime hidden = launches.covered(s, e);
        const SimTime dur = e - s;
        kernel_visible += dur - hidden;
        beta_sum += dur > 0
            ? static_cast<double>(hidden) / static_cast<double>(dur)
            : 0.0;
    }
    d.beta_mean = kernel_spans.empty()
        ? 0.0 : beta_sum / static_cast<double>(kernel_spans.size());

    // Sync time overlapped with kernel execution is already counted
    // in part C; only the residue lands in T_other.
    for (const auto &[s, e] : sync_spans)
        d.t_other += (e - s) - kernels.covered(s, e);

    const auto non_overlapped_mem = static_cast<SimTime>(
        (1.0 - d.alpha) * static_cast<double>(d.t_mem));
    d.predicted = non_overlapped_mem + d.t_launch + kernel_visible
        + d.t_other;
    d.residual = d.end_to_end - d.predicted;
    return d;
}

} // namespace hcc::perfmodel
