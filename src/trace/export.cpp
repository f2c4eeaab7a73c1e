#include "trace/export.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/text.hpp"

namespace hcc::trace {

namespace {

bool
isHostSide(EventKind kind)
{
    switch (kind) {
      case EventKind::Launch:
      case EventKind::GraphLaunch:
      case EventKind::MallocDevice:
      case EventKind::MallocHost:
      case EventKind::MallocManaged:
      case EventKind::Free:
      case EventKind::Sync:
        return true;
      default:
        return false;
    }
}

/**
 * Render every sampled gauge of @p obs as Perfetto counter events.
 * Samples are re-sorted by timestamp per gauge: components record
 * them in call order, which need not be monotonic in simulated time.
 */
void
emitCounterTracks(const obs::Registry &obs, std::ostream &os,
                  bool &first)
{
    for (const auto &[name, entry] : obs.entries()) {
        if (entry.kind != obs::Registry::Kind::Gauge)
            continue;
        const obs::Gauge &gauge = *entry.gauge;
        if (gauge.samples().empty())
            continue;
        auto samples = gauge.samples();
        std::stable_sort(samples.begin(), samples.end(),
                         [](const obs::Gauge::Sample &a,
                            const obs::Gauge::Sample &b) {
                             return a.ts < b.ts;
                         });
        for (const auto &sample : samples) {
            if (!first)
                os << ",\n";
            first = false;
            os << "  {\"name\": \"" << jsonEscape(name) << "\", "
               << "\"ph\": \"C\", "
               << "\"ts\": " << time::toUs(sample.ts) << ", "
               << "\"pid\": 3, "
               << "\"args\": {\"value\": " << sample.value << "}}";
        }
    }
}

} // namespace

void
exportChromeTrace(const Tracer &tracer, std::ostream &os,
                  const obs::Registry *obs,
                  const CriticalPath *critical)
{
    os << "[\n";
    bool first = true;
    // Segment events come out of the walk in ascending event-index
    // order, so one cursor tracks membership during the event loop.
    std::size_t seg_cursor = 0;
    const std::size_t seg_count =
        critical ? critical->segments.size() : 0;
    std::size_t i = 0;
    for (const auto &e : tracer.events()) {
        if (!first)
            os << ",\n";
        first = false;
        const bool host = isHostSide(e.kind);
        const int pid = host ? 1 : 2;
        const int tid = host ? 0 : (e.stream < 0 ? 0 : e.stream);
        os << "  {\"name\": \"" << jsonEscape(tracer.name(e)) << "\", "
           << "\"cat\": \"" << eventKindName(e.kind) << "\", "
           << "\"ph\": \"X\", "
           << "\"ts\": " << time::toUs(e.start) << ", "
           << "\"dur\": " << time::toUs(e.duration()) << ", "
           << "\"pid\": " << pid << ", \"tid\": " << tid << ", "
           << "\"args\": {\"bytes\": " << e.bytes
           << ", \"queue_wait_us\": " << time::toUs(e.queue_wait)
           << ", \"queue_wait_ps\": " << e.queue_wait
           << ", \"correlation\": " << e.correlation;
        if (e.kind == EventKind::Kernel)
            os << ", \"kqt_ps\": " << e.queue_wait;
        else if (e.kind == EventKind::Launch
                 || e.kind == EventKind::GraphLaunch)
            os << ", \"lqt_ps\": " << e.queue_wait;
        if (critical) {
            bool on_path = false;
            while (seg_cursor < seg_count
                   && critical->segments[seg_cursor].event < i)
                ++seg_cursor;
            if (seg_cursor < seg_count
                && critical->segments[seg_cursor].event == i)
                on_path = true;
            os << ", \"on_critical_path\": "
               << (on_path ? "true" : "false");
            if (i < critical->slack.size())
                os << ", \"slack_ps\": " << critical->slack[i];
        }
        os << ", \"encrypted_paging\": "
           << (e.encrypted_paging ? "true" : "false") << "}}";
        ++i;
    }
    if (critical) {
        // Flow arrows linking consecutive on-path spans: a "s"tart
        // binds to the slice enclosing its ts, the matching
        // "f"inish (bp "e") binds to the next on-path slice.
        const auto ev = tracer.events();
        for (std::size_t k = 1; k < seg_count; ++k) {
            const auto &a = critical->segments[k - 1];
            const auto &b = critical->segments[k];
            const TraceEvent &ea = ev[a.event];
            const TraceEvent &eb = ev[b.event];
            const bool ha = isHostSide(ea.kind);
            const bool hb = isHostSide(eb.kind);
            if (!first)
                os << ",\n";
            first = false;
            os << "  {\"name\": \"critical_path\", "
               << "\"cat\": \"critpath\", \"ph\": \"s\", \"id\": "
               << k << ", \"ts\": " << time::toUs(ea.start)
               << ", \"pid\": " << (ha ? 1 : 2) << ", \"tid\": "
               << (ha ? 0 : (ea.stream < 0 ? 0 : ea.stream))
               << "},\n";
            os << "  {\"name\": \"critical_path\", "
               << "\"cat\": \"critpath\", \"ph\": \"f\", "
               << "\"bp\": \"e\", \"id\": " << k << ", \"ts\": "
               << time::toUs(eb.start) << ", \"pid\": "
               << (hb ? 1 : 2) << ", \"tid\": "
               << (hb ? 0 : (eb.stream < 0 ? 0 : eb.stream))
               << "}";
        }
    }
    if (obs)
        emitCounterTracks(*obs, os, first);
    os << "\n]\n";
}

std::string
chromeTraceJson(const Tracer &tracer, const obs::Registry *obs,
                const CriticalPath *critical)
{
    std::ostringstream oss;
    exportChromeTrace(tracer, oss, obs, critical);
    return oss.str();
}

void
exportCsv(const Tracer &tracer, std::ostream &os)
{
    os << "kind,name,start_us,end_us,duration_us,stream,"
          "correlation,bytes,queue_wait_us,encrypted_paging\n";
    for (const auto &e : tracer.events()) {
        os << eventKindName(e.kind) << ','
           << csvField(tracer.name(e)) << ','
           << time::toUs(e.start) << ',' << time::toUs(e.end) << ','
           << time::toUs(e.duration()) << ',' << e.stream << ','
           << e.correlation << ',' << e.bytes << ','
           << time::toUs(e.queue_wait) << ','
           << (e.encrypted_paging ? 1 : 0) << '\n';
    }
}

} // namespace hcc::trace
