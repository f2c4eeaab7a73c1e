/**
 * @file
 * The grid kernel behind `hccsim sweep`, `faults` and `serve`.  Each
 * of those commands expands its own cells (its axis declaration) and
 * supplies the per-cell work; the kernel owns everything after that:
 *
 *  - running cells on the work-stealing pool, one task per cell
 *    (runRows) or per snapshot fork group (runGroups), with a cell's
 *    FatalError captured into its row and every cell timed;
 *  - moving fork-group outcomes back into input order;
 *  - the outcome fields every grid shares (Row, Outcome);
 *  - one column-schema writer (Schema) that renders the per-cell CSV,
 *    the per-cell JSON array and the "cell<i>.<label>." merged stats
 *    document.
 *
 * Rows land at their input index whatever the worker count, and the
 * writers read only simulated values, so every output is
 * byte-identical across `--jobs`.
 */

#ifndef HCC_GRID_GRID_HPP
#define HCC_GRID_GRID_HPP

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/stats_io.hpp"
#include "snap/fork.hpp"

namespace hcc::grid {

/** The fields every cell row carries; commands add their payload. */
template <typename Cell>
struct Row
{
    Cell cell;
    /** False when the cell threw FatalError. */
    bool ok = false;
    /** The FatalError message when !ok. */
    std::string error;
    /** Host wall-clock the cell took, us (not deterministic). */
    double wall_us = 0.0;
};

/** The fields every grid result carries; rows in input order. */
template <typename RowT>
struct Outcome
{
    using row_type = RowT;

    std::vector<RowT> cells;
    /** Worker threads the grid ran with. */
    int jobs = 1;
    /** Host wall-clock of the whole grid, us. */
    double wall_us = 0.0;
    /** Pool execution counters (steals, busy time, ...). */
    ThreadPool::Stats pool;
    /** Cells replayed from an in-memory snapshot. */
    std::size_t snapshot_hits = 0;
    /** Of those, cells that took an unfaulted sibling's outcome
     *  instead of replaying (snap::ForkGroupOutcome::reused_cells). */
    std::size_t reused_cells = 0;
    /** High-water mark of resident snapshot bytes over all fork
     *  groups (also published as host.sweep.snapshot_resident_bytes). */
    std::size_t peak_resident_bytes = 0;
    /** Every fork group's snap::ForkGroupOutcome::unfaulted_trials. */
    std::vector<fault::TrialCounts> unfaulted_trials;

    std::size_t
    failures() const
    {
        return static_cast<std::size_t>(
            std::count_if(cells.begin(), cells.end(),
                          [](const RowT &r) { return !r.ok; }));
    }
    bool allOk() const { return failures() == 0; }
};

/** One row per expanded cell, in input order. */
template <typename Result, typename Cell>
void
place(Result &result, std::vector<Cell> cells)
{
    result.cells.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        result.cells[i].cell = std::move(cells[i]);
}

/** runIndexed(@p n, @p jobs, @p task), recording the worker count,
 *  pool counters and wall clock in @p result. */
template <typename Result, typename Task>
void
runTimed(Result &result, int jobs, std::size_t n, Task &&task)
{
    const auto start = std::chrono::steady_clock::now();
    result.jobs = std::max(jobs, 1);
    result.pool = runIndexed(n, result.jobs, task);
    result.wall_us = elapsedUs(start);
}

/**
 * Run every row of @p result as its own pool task on @p jobs workers
 * (<= 1 = inline).  @p work fills one row's payload; a FatalError it
 * throws fails that row alone.
 */
template <typename Result, typename Work>
void
runRows(Result &result, int jobs, Work &&work)
{
    runTimed(result, jobs, result.cells.size(), [&](std::size_t i) {
        auto &row = result.cells[i];
        const auto start = std::chrono::steady_clock::now();
        try {
            work(row);
            row.ok = true;
        } catch (const FatalError &e) {
            row.error = e.what();
        }
        row.wall_us = elapsedUs(start);
    });
}

/** A snapshot fork group plus the input-order rows of its cells. */
struct Group
{
    snap::ForkGroupSpec spec;
    std::vector<std::size_t> rows;
};

/**
 * Cross-seed prefix sharing: construct @p group from the
 * seed-independent identitySeed() and give each cell its own seed
 * (@p seeds[j] for cell j), which it switches to at the first cut,
 * so one simulated prefix serves every seed.  Cells already in
 * @p group keep their faults; the list is sized to @p seeds.
 */
void shareAcrossSeeds(snap::ForkGroupSpec &group,
                      const std::vector<std::uint64_t> &seeds);

/**
 * Run @p groups through snap::runForkGroup, one pool task per group,
 * and move every cell outcome into its row of @p result (ok, error,
 * wall clock and the WorkloadResult payload).
 */
template <typename Result>
void
runGroups(Result &result, int jobs, const std::vector<Group> &groups,
          const snap::ForkPoint &fork_point, bool no_snapshot)
{
    std::vector<snap::ForkGroupOutcome> outcomes(groups.size());
    runTimed(result, jobs, groups.size(), [&](std::size_t g) {
        outcomes[g] =
            snap::runForkGroup(groups[g].spec, fork_point, no_snapshot);
    });
    for (std::size_t g = 0; g < groups.size(); ++g) {
        result.snapshot_hits += outcomes[g].snapshot_hits;
        result.reused_cells += outcomes[g].reused_cells;
        result.peak_resident_bytes =
            std::max(result.peak_resident_bytes,
                     outcomes[g].peak_resident_bytes);
        result.unfaulted_trials.insert(
            result.unfaulted_trials.end(),
            outcomes[g].unfaulted_trials.begin(),
            outcomes[g].unfaulted_trials.end());
        for (std::size_t j = 0; j < groups[g].rows.size(); ++j) {
            auto &row = result.cells[groups[g].rows[j]];
            auto &cell = outcomes[g].cells[j];
            row.ok = cell.ok;
            row.error = std::move(cell.error);
            row.result = std::move(cell.result);
            row.wall_us = cell.wall_us;
        }
    }
}

/**
 * Publish a finished grid into @p reg (may be null): the
 * deterministic sweep.cells / sweep.failures counters, and host.*
 * wall-clock, pool and snapshot telemetry that deterministic dumps
 * exclude.  Call on the caller's thread after the pool has joined:
 * gauges and distributions are not thread-safe by design.
 */
template <typename Result>
void
publish(const Result &result, obs::Registry *reg)
{
    if (reg == nullptr)
        return;
    reg->counter("sweep.cells").add(result.cells.size());
    reg->counter("sweep.failures").add(result.failures());
    auto &cell_wall = reg->distribution("host.sweep.cell_wall_us");
    for (const auto &row : result.cells)
        cell_wall.add(row.wall_us);
    reg->distribution("host.sweep.wall_us").add(result.wall_us);
    reg->counter("host.sweep.pool.executed").add(result.pool.executed);
    reg->counter("host.sweep.pool.steals").add(result.pool.stolen);
    reg->gauge("host.sweep.jobs").set(result.jobs);
    reg->gauge("host.sweep.pool.utilization_pct")
        .set(static_cast<std::int64_t>(
            result.pool.utilization(result.wall_us) * 100.0));
    if (result.wall_us > 0.0) {
        reg->gauge("host.sweep.cells_per_sec")
            .set(static_cast<std::int64_t>(
                static_cast<double>(result.cells.size())
                / (result.wall_us / 1e6)));
    }
    reg->gauge("host.sweep.snapshot_hits")
        .set(static_cast<std::int64_t>(result.snapshot_hits));
    reg->gauge("host.sweep.snapshot_resident_bytes")
        .set(static_cast<std::int64_t>(result.peak_resident_bytes));
}

// ------------------------------------------------ the column schema

/** One rendered value: a number literal, a string (CSV-quoted or
 *  JSON-escaped) or a flag (1/0 in CSV, true/false in JSON). */
struct Field
{
    enum class Kind { Number, Text, Flag };
    Kind kind = Kind::Number;
    std::string text;
    bool flag = false;
};

template <std::integral T>
Field
number(T v)
{
    return {Field::Kind::Number, std::to_string(v)};
}
/** A pre-formatted number (e.g. formatG, "%.6f"). */
Field number(std::string literal);
Field text(std::string_view s);
Field flag(bool on);

/** Append @p f as a CSV field / JSON value. */
void appendCsv(std::string &out, const Field &f);
void appendJson(std::string &out, const Field &f);

/**
 * A grid's output columns, as data.  Every row starts with its
 * `index` and `label`.  CSV: those, the keys, an optional `status`
 * column (ok|failed), the metrics, then `error`; failed rows leave
 * every metric field empty.  JSON: index, label, the keys, `"ok"`,
 * then the metrics on ok rows or `"error"` on failed ones.  Merged
 * stats: one "cell<i>.<label>." section per ok row, optionally
 * preceded by the JSON rows as a top-level member.
 */
template <typename Result>
struct Schema
{
    using RowT = typename Result::row_type;
    using Get = Field (*)(const Result &, const RowT &);

    struct Column
    {
        const char *name;
        Get get;
    };

    /** The cell's stable id (the `label` column, and the stats
     *  section names). */
    std::string (*label)(const Result &, const RowT &) = nullptr;
    /** The cell's axis values; rendered on every row. */
    std::vector<Column> keys;
    /** CSV only: the `status` column after the keys. */
    bool status = true;
    /** Measured values; rendered on ok rows only. */
    std::vector<Column> metrics;
    /** An ok row's stats registry. */
    const obs::Registry *(*stats)(const RowT &) = nullptr;
    /** Merged stats only: embed the JSON rows under this top-level
     *  member (null: none). */
    const char *rows_member = nullptr;
};

/** Per-cell CSV: header plus one line per row, input order. */
template <typename Result>
void
writeCsv(const Schema<Result> &schema, const Result &result,
         std::ostream &os)
{
    std::string line = "index,label,";
    for (const auto &col : schema.keys)
        (line += col.name) += ',';
    if (schema.status)
        line += "status,";
    for (const auto &col : schema.metrics)
        (line += col.name) += ',';
    line += "error\n";
    os << line;
    for (const auto &row : result.cells) {
        line = std::to_string(row.cell.index) + ',';
        appendCsv(line, text(schema.label(result, row)));
        line += ',';
        for (const auto &col : schema.keys) {
            appendCsv(line, col.get(result, row));
            line += ',';
        }
        if (schema.status)
            line += row.ok ? "ok," : "failed,";
        for (const auto &col : schema.metrics) {
            if (row.ok)
                appendCsv(line, col.get(result, row));
            line += ',';
        }
        appendCsv(line, text(row.error));
        line += '\n';
        os << line;
    }
}

/** One row as a JSON object. */
template <typename Result>
std::string
jsonRow(const Schema<Result> &schema, const Result &result,
        const typename Result::row_type &row)
{
    std::string out =
        "{\"index\": " + std::to_string(row.cell.index) + ", \"label\": ";
    appendJson(out, text(schema.label(result, row)));
    const auto member = [&out](const char *name) {
        (out += ", \"") += name;
        out += "\": ";
    };
    for (const auto &col : schema.keys) {
        member(col.name);
        appendJson(out, col.get(result, row));
    }
    member("ok");
    out += row.ok ? "true" : "false";
    if (row.ok) {
        for (const auto &col : schema.metrics) {
            member(col.name);
            appendJson(out, col.get(result, row));
        }
    } else {
        member("error");
        appendJson(out, text(row.error));
    }
    out += '}';
    return out;
}

/** Per-cell JSON array, one row per line, input order. */
template <typename Result>
void
writeJson(const Schema<Result> &schema, const Result &result,
          std::ostream &os)
{
    os << "[\n";
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        os << (i == 0 ? "  " : ",\n  ")
           << jsonRow(schema, result, result.cells[i]);
    os << "\n]\n";
}

/** Merged stats: every ok row's registry as a "cell<i>.<label>."
 *  section, readable by `hccsim stats-diff`. */
template <typename Result>
void
writeStats(const Schema<Result> &schema, const Result &result,
           std::ostream &os)
{
    obs::StatsSections sections;
    std::string rows = "[";
    for (const auto &row : result.cells) {
        if (schema.rows_member != nullptr) {
            if (rows.size() > 1)
                rows += ", ";
            rows += jsonRow(schema, result, row);
        }
        if (row.ok)
            sections.emplace_back("cell" + std::to_string(row.cell.index)
                                      + "." + schema.label(result, row)
                                      + ".",
                                  schema.stats(row));
    }
    const std::string member = schema.rows_member == nullptr
        ? std::string()
        : std::string("\"") + schema.rows_member + "\": " + rows + "]";
    obs::writeStatsJson(os, sections, false, member);
}

} // namespace hcc::grid

#endif // HCC_GRID_GRID_HPP
