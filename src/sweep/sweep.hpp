/**
 * @file
 * Parallel sweep engine: execute a declarative run-grid (app list x
 * CC modes x UVM modes x scales x seeds) with one fully isolated
 * simulation per grid cell on a work-stealing thread pool, and merge
 * the results into deterministic, input-order output.
 *
 * Every figure in the paper is such a grid, and every cell is an
 * independent simulation: per-cell rt::Context, obs::Registry, RNG
 * and tracer, no shared mutable state.  That isolation is what makes
 * the merged CSV / stats JSON byte-identical regardless of the
 * worker count — scheduling order can change, results cannot.
 *
 * A cell that throws hcc::FatalError (unknown app, no UVM variant,
 * bad spec) fails that cell alone: the error is captured in its
 * CellResult and the rest of the grid keeps running.
 */

#ifndef HCC_SWEEP_SWEEP_HPP
#define HCC_SWEEP_SWEEP_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "obs/registry.hpp"
#include "snap/fork.hpp"
#include "tee/secure_channel.hpp"
#include "workloads/workload.hpp"

namespace hcc::sweep {

/**
 * Declarative run-grid.  Cells are expanded in input order: apps
 * (outer) x cc_modes x uvm_modes x scales x seeds x overlaps
 * (inner); that order is the merge order of every output.
 */
struct GridSpec
{
    /** Workload names; expanded in the given order. */
    std::vector<std::string> apps;
    /** CC modes to run each app under. */
    std::vector<bool> cc_modes = {false, true};
    /** UVM modes to run each app under. */
    std::vector<bool> uvm_modes = {false};
    /** Problem-size multipliers. */
    std::vector<double> scales = {1.0};
    /** RNG seeds. */
    std::vector<std::uint64_t> seeds = {42};
    /** Channel overlap tiers to run each cell under. */
    std::vector<tee::OverlapMode> overlaps = {tee::OverlapMode::None};
    /** Parallel encryption workers in the CC transfer path. */
    int crypto_workers = 1;
    /** Model the hypothetical TEE-IO hardware path. */
    bool tee_io = false;
    /**
     * Prefix/suffix cut for the fork engine (snap/fork.hpp).  Cells
     * of a registered app that differ only in their seed share one
     * prefix: the group simulates it once under a seed-independent
     * identity seed and each cell reseeds to its own seed at the
     * fork point (cross-seed prefix sharing); chained fork points
     * ("auto/0.95") deepen the share into a snapshot tree.  Every
     * other axis changes the schedule from the first event, so those
     * cells group only with exact duplicates, as before.  Sweep
     * cells arm no faults, so fork and cold-split produce identical
     * output; `none` disables the split entirely (and restores the
     * pre-fork per-seed derivation).
     */
    snap::ForkPoint fork_point = {snap::ForkPoint::Mode::Auto, 0.0, {}};
    /** Run duplicate cells cold instead of snapshot-forking them. */
    bool no_snapshot = false;
    /**
     * Ceiling on resident in-memory snapshot bytes per fork group
     * (0 = unlimited); over it the engine LRU-evicts interior tree
     * snapshots and deterministically rebuilds them on demand.
     */
    std::size_t snapshot_budget_bytes =
        snap::kDefaultSnapshotBudgetBytes;

    /** Number of cells the grid expands to. */
    std::size_t cellCount() const;
};

/** One expanded grid cell (a single simulation to run). */
struct RunCell
{
    /** Input-order position in the expanded grid. */
    std::size_t index = 0;
    std::string app;
    bool cc = false;
    bool uvm = false;
    double scale = 1.0;
    std::uint64_t seed = 42;
    tee::OverlapMode overlap = tee::OverlapMode::None;
    int crypto_workers = 1;
    bool tee_io = false;

    /** Stable human/machine id, e.g. "2mm.cc.uvm.x2.s7"; an overlap
     *  tier other than `none` appends its name, e.g.
     *  "2mm.cc.x1.s42.speculative". */
    std::string label() const;
};

/** Outcome of one cell. */
struct CellResult : grid::Row<RunCell>
{
    /** The run's result (metrics, critical path, stats; the trace
     *  only under `--fork-point none`); valid iff ok. */
    workloads::WorkloadResult result;
};

/** Outcome of a whole sweep, cells in input order.  snapshot_hits
 *  counts every cell of a duplicate-identity group (the prefix runs
 *  once per group and all its cells, including the first, restore
 *  and replay). */
using SweepResult = grid::Outcome<CellResult>;

/** Expand @p grid into cells in deterministic input order. */
std::vector<RunCell> expandGrid(const GridSpec &grid);

/**
 * Run every cell of @p grid on @p jobs workers (<= 1 = inline).
 * Per-cell wall-clock and pool utilization are published into
 * @p sweep_obs (may be null) under "sweep.*" (deterministic
 * counters) and "host.sweep.*" (wall-clock, excluded from
 * deterministic dumps).
 */
SweepResult runSweep(const GridSpec &grid, int jobs,
                     obs::Registry *sweep_obs = nullptr);

/**
 * Parse a sweep grid spec.  Line-oriented `key = value` pairs, '#'
 * comments; keys: apps (comma list or "all"), cc (on|off|both),
 * uvm (on|off|both), scales (comma list), seeds (comma list),
 * overlap (comma list of none|double-buffer|speculative),
 * crypto-workers (int), tee-io (on|off), fork-point
 * (none|auto|fraction, optionally '/'-chained), snapshot (on|off),
 * snapshot-budget (resident snapshot ceiling in MiB, 0 = unlimited).
 * @return the grid, or a ParseError status with a line-numbered
 *         message on unknown keys or bad values.
 */
Result<GridSpec> parseGridSpec(const std::string &text);

/** Parse "on"/"off"/"both" into a mode list.  @throws FatalError. */
std::vector<bool> parseModeList(const std::string &name);

/**
 * Parse a comma-separated app list; "all" expands to the paper's
 * evaluation app list.  @throws FatalError on an empty list.
 */
std::vector<std::string> parseAppList(const std::string &csv);

/** Parse a comma list of positive scales.  @throws FatalError. */
std::vector<double> parseScaleList(const std::string &csv);

/** Parse a comma list of seeds.  @throws FatalError. */
std::vector<std::uint64_t> parseSeedList(const std::string &csv);

/**
 * Parse a comma list of overlap tiers
 * (none|double-buffer|speculative), or "all" for every tier in
 * enum order.  @throws FatalError.
 */
std::vector<tee::OverlapMode> parseOverlapList(const std::string &csv);

/** Load and parse a grid spec file (IoError when unreadable). */
Result<GridSpec> loadGridFile(const std::string &path);

/** Per-cell CSV (docs/SWEEP.md "Outputs"): one row per cell in
 *  input order, simulated metrics only. */
void writeCellsCsv(const SweepResult &result, std::ostream &os);

/** Per-cell JSON array, same rows as the CSV. */
void writeCellsJson(const SweepResult &result, std::ostream &os);

/** Merged stats dump: every successful cell's registry as a
 *  "cell<index>.<label>." section, readable by `hccsim stats-diff`
 *  (host.* wall-clock stats excluded). */
void writeMergedStats(const SweepResult &result, std::ostream &os);

} // namespace hcc::sweep

#endif // HCC_SWEEP_SWEEP_HPP
