/**
 * @file
 * Serve-sweep driver and column schema: expand the spec into cells,
 * run each in isolation on the grid kernel, and declare the SLO
 * columns its CSV / JSON / stats writers render.
 */

#include "serve/serve.hpp"

#include <ostream>

#include "common/log.hpp"
#include "common/text.hpp"

namespace hcc::serve {

std::size_t
ServeSpec::cellCount() const
{
    return loads.size() * cc_modes.size() * overlaps.size();
}

std::string
ServeCell::label() const
{
    std::string out = "l";
    out += formatG(load);
    out += cc ? ".cc" : ".base";
    if (overlap != tee::OverlapMode::None) {
        out += '.';
        out += tee::overlapModeName(overlap);
    }
    return out;
}

std::vector<ServeCell>
expandServeCells(const ServeSpec &spec)
{
    if (spec.loads.empty())
        fatal("serve: no offered loads given");
    if (spec.cc_modes.empty())
        fatal("serve: no cc modes given");
    if (spec.overlaps.empty())
        fatal("serve: no overlap tiers given");
    std::vector<ServeCell> cells;
    cells.reserve(spec.cellCount());
    for (double load : spec.loads)
        for (bool cc : spec.cc_modes)
            for (tee::OverlapMode overlap : spec.overlaps) {
                ServeCell cell;
                cell.index = cells.size();
                cell.load = load;
                cell.cc = cc;
                cell.overlap = overlap;
                cells.push_back(cell);
            }
    return cells;
}

ServeResult
runServe(const ServeSpec &spec, int jobs)
{
    ServeResult result;
    result.spec = spec;
    grid::place(result, expandServeCells(spec));
    grid::runRows(result, jobs, [&](ServeCellResult &row) {
        row.point = runServeCell(spec, row.cell);
    });
    return result;
}

namespace {

using grid::number;
using grid::text;

/** The per-cell columns of every serve output (docs/SWEEP.md); the
 *  merged stats embed the JSON rows as "serve_curve". */
const grid::Schema<ServeResult> &
schema()
{
    static const grid::Schema<ServeResult> s{
        .label = [](auto &, auto &c) { return c.cell.label(); },
        .keys = {
            {"load",
             [](auto &, auto &c) { return number(formatG(c.cell.load)); }},
            {"cc", [](auto &, auto &c) { return grid::flag(c.cell.cc); }},
            {"overlap",
             [](auto &, auto &c) {
                 return text(tee::overlapModeName(c.cell.overlap));
             }},
        },
        .status = false,
        .metrics = {
            {"requests",
             [](auto &, auto &c) { return number(c.point.requests); }},
            {"completed",
             [](auto &, auto &c) { return number(c.point.completed); }},
            {"preempted",
             [](auto &, auto &c) { return number(c.point.preempted); }},
            {"prefills",
             [](auto &, auto &c) { return number(c.point.prefills); }},
            {"tokens", [](auto &, auto &c) { return number(c.point.tokens); }},
            {"makespan_ps",
             [](auto &, auto &c) { return number(c.point.makespan); }},
            {"offered_tok_s",
             [](auto &, auto &c) {
                 return number(formatShortest(c.point.offered_tok_s));
             }},
            {"goodput_tok_s",
             [](auto &, auto &c) {
                 return number(formatShortest(c.point.goodput_tok_s));
             }},
            {"ttft_p50_ps",
             [](auto &, auto &c) { return number(c.point.ttft_p50); }},
            {"ttft_p95_ps",
             [](auto &, auto &c) { return number(c.point.ttft_p95); }},
            {"ttft_p99_ps",
             [](auto &, auto &c) { return number(c.point.ttft_p99); }},
            {"tpot_p50_ps",
             [](auto &, auto &c) { return number(c.point.tpot_p50); }},
            {"tpot_p95_ps",
             [](auto &, auto &c) { return number(c.point.tpot_p95); }},
            {"tpot_p99_ps",
             [](auto &, auto &c) { return number(c.point.tpot_p99); }},
            {"kv_fault_batches",
             [](auto &, auto &c) { return number(c.point.kv_fault_batches); }},
            {"kv_migrated_bytes",
             [](auto &, auto &c) {
                 return number(c.point.kv_migrated_bytes);
             }},
            {"bottleneck",
             [](auto &, auto &c) {
                 return text(trace::bottleneckName(c.point.bottleneck));
             }},
            {"critical_path_ps",
             [](auto &, auto &c) { return number(c.point.critical_path_ps); }},
        },
        .stats = [](auto &c) -> const obs::Registry * {
            return c.point.stats.get();
        },
        .rows_member = "serve_curve",
    };
    return s;
}

} // namespace

void
writeServeCsv(const ServeResult &result, std::ostream &os)
{
    grid::writeCsv(schema(), result, os);
}

void
writeServeJson(const ServeResult &result, std::ostream &os)
{
    grid::writeJson(schema(), result, os);
}

void
writeServeStats(const ServeResult &result, std::ostream &os)
{
    grid::writeStats(schema(), result, os);
}

} // namespace hcc::serve
