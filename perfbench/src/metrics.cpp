#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <utility>

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> metrics = {
        {"ops_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},
    };
    return metrics;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    // Span self times are "<span name>_ms" per traced op.
    static const std::vector<MetricSpec> metrics = {
        {"cli.self_ms", "ms"},
        {"runtime.context_ms", "ms"},
        {"workloads.run_ms", "ms"},
        {"trace.critical_ms", "ms"},
        {"perfmodel.decompose_ms", "ms"},
        {"trace.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"serve.arrivals_ms", "ms"},
        {"serve.cell_base_ms", "ms"},
        {"serve.cell_cc_ms", "ms"},
        {"serve.write_ms", "ms"},
        {"runtime.api.launches", "count"},
        {"gpu.uvm.fault_batches", "count"},
        {"serve.preempted", "count"},
        {"serve.prefills", "count"},
        {"serve.preempt_ratio", "ratio"},
        {"serve.launches_per_s", "1/s"},
        {"fault.expand_ms", "ms"},
        {"fault.campaign_ms", "ms"},
        {"snap.prefix_ms", "ms"},
        {"fault.suffix_ms", "ms"},
        {"fault.cell_overhead_ms", "ms"},
        {"fault.write_csv_ms", "ms"},
        {"fault.cells", "count"},
        {"fault.cells_failed", "count"},
        {"fault.injected", "count"},
        {"fault.recovered", "count"},
        {"snap.hits", "count"},
        {"snap.hit_ratio", "ratio"},
        {"snap.peak_resident_mib", "MiB"},
        {"snap.capture_ms", "ms"},
        {"snap.restore_ms", "ms"},
        {"snap.load_ms", "ms"},
        {"snap.bytes", "bytes"},
        {"obs.write_stats_ms", "ms"},
        {"obs.stats_mb", "MB"},
        {"proc.minor_faults", "count"},
        {"proc.sys_share", "ratio"},
        {"proc.setup_minor_faults", "count"},
        {"bench.ops", "count"},
        {"bench.op_p50_ms", "ms"},
        {"bench.op_tail_ms", "ms"},
        {"bench.op_tail_pct", "%"},
        {"bench.untraced_ops_per_s", "1/s"},
        {"bench.traced_ops_per_s", "1/s"},
        {"bench.trace_overhead_ops_per_s", "1/s"},
    };
    return metrics;
}

namespace {

bool
alnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.'
            || c == '-';
    });
}

std::size_t
nearestRankIndex(std::size_t n, double pct)
{
    // The tolerance keeps binary rounding of pct (99.9 is not exact)
    // from pushing an exact product up one rank.
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

double
nearestRank(const std::vector<double> &sorted, double pct)
{
    return sorted[nearestRankIndex(sorted.size(), pct) - 1];
}

std::optional<double>
tailPercentile(std::size_t n, std::size_t min_beyond)
{
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n > 0 && n - nearestRankIndex(n, pct) >= min_beyond)
            return pct;
    }
    return std::nullopt;
}

double
fastOpsPerS(std::vector<double> op_ms, double share)
{
    if (op_ms.empty())
        return 0.0;
    const std::size_t k = nearestRankIndex(op_ms.size(), 100.0 * share);
    std::partial_sort(op_ms.begin(), op_ms.begin() + k, op_ms.end());
    const double sum = std::accumulate(op_ms.begin(), op_ms.begin() + k, 0.0);
    return sum > 0 ? static_cast<double>(k) * 1e3 / sum : 0.0;
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const double lo = std::max(s.start_us, p.start_us);
        const double hi = std::min(s.end_us, p.end_us);
        if (hi > lo)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {lo, hi});
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = 0.0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[i] = spans[i].end_us - spans[i].start_us - covered;
    }
    return self;
}

double
prefixOncePerTierUs(const std::vector<PrefixSample> &cells)
{
    std::map<std::size_t, std::set<double>> distinct;
    for (const PrefixSample &c : cells) {
        if (c.count == 0)
            continue;
        auto &values = distinct[c.tier];
        values.insert(c.min);
        if (c.count >= 2)
            values.insert(c.max);
        if (c.count >= 3)
            values.insert(c.sum - c.min - c.max);
    }
    double total = 0.0;
    for (const auto &[tier, values] : distinct)
        for (const double v : values)
            total += v;
    return total;
}

std::string
resultJson(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf
            + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
