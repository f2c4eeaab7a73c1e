#include "trace/analysis.hpp"

#include <algorithm>
#include <limits>

namespace hcc::trace {

// analyze() lives in critpath.cpp: the Fig. 3 metrics and the
// critical path share one pass over the events (see critpath.hpp).

void
compactSampleMetrics(AppMetrics &metrics)
{
    const auto compact = [](SampleSet &set) {
        if (set.empty())
            return;
        const double total = set.sum();
        SampleSet one;
        one.add(total);
        set = std::move(one);
    };
    compact(metrics.klo);
    compact(metrics.lqt);
    compact(metrics.kqt);
    compact(metrics.ket);
}

SpanCoverage::SpanCoverage(std::vector<Span> spans)
{
    std::erase_if(spans, [](const Span &sp) {
        return sp.second <= sp.first;
    });
    std::sort(spans.begin(), spans.end());
    // Merge in place; the runs reuse the input's buffer.
    std::size_t n = 0;
    for (const auto &sp : spans) {
        if (n > 0 && sp.first <= spans[n - 1].second)
            spans[n - 1].second = std::max(spans[n - 1].second,
                                           sp.second);
        else
            spans[n++] = sp;
    }
    spans.resize(n);
    runs_ = std::move(spans);
    prefix_.reserve(n + 1);
    for (const auto &[a, b] : runs_)
        prefix_.push_back(prefix_.back() + (b - a));
}

SimTime
SpanCoverage::coveredBefore(SimTime t) const
{
    // Runs before the first one that ends after t lie wholly below t;
    // that run contributes its part below t, later runs nothing.
    const auto it = std::upper_bound(
        runs_.begin(), runs_.end(), t,
        [](SimTime v, const Span &r) { return v < r.second; });
    const SimTime below =
        prefix_[static_cast<std::size_t>(it - runs_.begin())];
    return it != runs_.end() && it->first < t
        ? below + (t - it->first) : below;
}

std::vector<EventPoint>
eventScatter(const Tracer &tracer, EventKind kind,
             std::size_t drop_longest)
{
    auto events = tracer.ofKind(kind);
    if (drop_longest > 0 && drop_longest < events.size()) {
        std::sort(events.begin(), events.end(),
                  [](const TraceEvent &a, const TraceEvent &b) {
                      return a.duration() > b.duration();
                  });
        events.erase(events.begin(),
                     events.begin()
                         + static_cast<std::ptrdiff_t>(drop_longest));
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.start < b.start;
              });
    std::vector<EventPoint> pts;
    pts.reserve(events.size());
    for (const auto &e : events) {
        pts.push_back({time::toUs(e.start),
                       time::toUs(e.duration())});
    }
    return pts;
}

double
kernelToLaunchRatio(const AppMetrics &m)
{
    const double denom =
        static_cast<double>(m.sumKlo() + m.sumLqt());
    if (denom <= 0.0)
        return std::numeric_limits<double>::max();
    return static_cast<double>(m.sumKet()) / denom;
}

} // namespace hcc::trace
