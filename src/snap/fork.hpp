/**
 * @file
 * Fork/replay engine: run a group of campaign cells that share a
 * common warmup prefix by simulating the prefix once, capturing an
 * in-memory Snapshot, and replaying only the per-cell suffix.
 *
 * The engine understands three execution modes per group:
 *
 *  - *fork* (the fast path): one Context runs the prefix, the engine
 *    captures it, and every cell restores the snapshot, arms its
 *    fault config and runs the suffix.  A chained fork point adds a
 *    second level: each seed of the group runs the segments from the
 *    first cut to the last once, and that seed's cells replay from
 *    its capture, so a nested 10k-cell grid simulates each seed's
 *    share once.  Each seed replays its first unfaulted cell first;
 *    a cell whose armed sites would not fire within that replay's
 *    trial counts (fault::wouldInject) takes its outcome instead of
 *    replaying, because its run would be the unfaulted one.
 *  - *cold-split* (`--no-snapshot`): every cell gets its own fresh
 *    Context, runs the full prefix (and segment chain) itself,
 *    arms at the final cut and runs the suffix.  Semantically
 *    identical to fork mode — this pair is the byte-identity gate CI
 *    enforces with `cmp`, and it checks every reused cell against a
 *    full replay.
 *  - *legacy* (`--fork-point none`): the pre-fork behaviour —
 *    faults are armed at Context construction and the workload runs
 *    start to finish on the cell's own Context.
 *
 * Mode note: fork and cold-split arm faults *at the fork point*, so
 * fault processes only act on the suffix; legacy arms at
 * construction, so warmup activity (including the SPDM handshake)
 * can fault too.  Fault campaigns therefore produce different —
 * equally valid — outputs under `none` vs the split modes; the
 * split modes always match each other exactly.
 *
 * Cross-seed prefix sharing: a group whose cells carry their own
 * seeds is constructed from a seed-independent identity seed
 * (identitySeed()), runs one prefix for *all* seeds, and switches
 * every seed-derived stream to the cell seed at the first cut
 * (Context::reseedAtFork + Workload::reseedResume).  The cold-split
 * control replays the exact same derivation, so byte-identity is
 * preserved by construction.
 */

#ifndef HCC_SNAP_FORK_HPP
#define HCC_SNAP_FORK_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fault/fault.hpp"
#include "runtime/context.hpp"
#include "workloads/workload.hpp"

namespace hcc::snap {

/**
 * Where a campaign places the prefix/suffix cut.  A fork point is a
 * *path*: the first component is the classic single cut, optional
 * '/'-chained components declare deeper cuts for snapshot trees
 * ("0.5/0.8" = share [0,0.5) across the whole group, [0.5,0.8)
 * across cells with the same seed, replay [0.8,1] per cell).  Only
 * the first and the last cut place a capture: "0.5/0.8/0.9" runs
 * like "0.5/0.9".
 */
struct ForkPoint
{
    enum class Mode {
        /** No split: construction-time arming, full run(). */
        None,
        /** Use the workload's fork_after marker. */
        Auto,
        /** Explicit launch fraction in [0, 1]. */
        Fraction,
    };

    Mode mode = Mode::None;
    /** Launch fraction when mode == Fraction. */
    double fraction = 0.0;
    /** Chained cuts after the first, strictly increasing in (0, 1]. */
    std::vector<double> chain;

    /**
     * The effective first-cut fraction for @p workload: negative for
     * `none`, otherwise the fraction of launches the shared prefix
     * covers.
     */
    double resolve(const workloads::Workload &workload) const;

    /**
     * All cuts of the path (first + chain) for @p workload; empty
     * when splitting does not apply.  Fatal when an `auto` first cut
     * resolves at or past the first chained cut — the path would not
     * be increasing, and silently reordering it would change what the
     * user asked for.
     */
    std::vector<double>
    resolvePath(const workloads::Workload &workload) const;

    /** Spec string ("none", "auto", "0.5/0.8") for logs/metadata. */
    std::string str() const;
};

/** Parse "none" | "auto" | fraction, optionally '/'-chained with
 *  strictly increasing fractions ("auto/0.95", "0.5/0.8/0.9"). */
Result<ForkPoint> parseForkPoint(const std::string &text);

/**
 * One cell of a fork group: what may differ between cells branched
 * from the same prefix.  A set `seed` switches every seed-derived
 * stream to it at the first cut, exactly as a fresh Context
 * constructed with it would derive them; `faults` is armed at the
 * last cut (rate-zero for baseline / sweep cells).
 */
struct ForkCell
{
    fault::FaultConfig faults;
    std::optional<std::uint64_t> seed;
};

/** A group of cells sharing one simulation prefix. */
struct ForkGroupSpec
{
    /** Workload to run (must be registered). */
    std::string app;
    /**
     * System config for every cell.  `sys.faults` is only honoured
     * in legacy mode; the split modes construct unfaulted and arm
     * each cell's ForkCell::faults at the fork point.  Groups whose
     * cells carry seeds should construct from identitySeed() so the
     * shared prefix is seed-independent.
     */
    rt::SystemConfig sys;
    workloads::WorkloadParams params;
    std::vector<ForkCell> cells;
};

/** Outcome of one cell of a group. */
struct ForkCellOutcome
{
    bool ok = false;
    /** FatalError message when !ok. */
    std::string error;
    workloads::WorkloadResult result;
    /** Host wall-clock of this cell (suffix only in fork mode; the
     *  copy alone for a cell that reused a sibling's outcome). */
    double wall_us = 0.0;
};

/** Outcome of a whole group, cells in input order. */
struct ForkGroupOutcome
{
    std::vector<ForkCellOutcome> cells;
    /** Cells served by snapshot restore instead of a cold prefix. */
    std::size_t snapshot_hits = 0;
    /** Fork-mode cells that took an unfaulted sibling's outcome (its
     *  registry shared, not cloned) instead of replaying. */
    std::size_t reused_cells = 0;
    /** High-water mark of resident snapshot bytes (fork mode): the
     *  prefix capture plus at most one seed's capture. */
    std::size_t peak_resident_bytes = 0;
    /** Split modes: the per-site fault trials of each unfaulted cell
     *  that ran its suffix, counted from the last cut (in fork mode
     *  only each seed's replayed one; the others would repeat it).
     *  Legacy mode leaves it empty: its trials include the warmup. */
    std::vector<fault::TrialCounts> unfaulted_trials;
};

/**
 * Deterministic construction seed for a cross-seed fork group: a
 * pure function of the workload identity (app, cc/uvm mode, scale,
 * channel knobs) that deliberately ignores the per-cell seeds, so
 * one simulated prefix serves every seed in the group.  The cold
 * control must construct from the same value for byte-identity.
 */
std::uint64_t identitySeed(const std::string &app,
                           const rt::SystemConfig &sys,
                           const workloads::WorkloadParams &params);

/**
 * Run every cell of @p group.  A FatalError in the shared prefix
 * fails all cells, one in a seed's segments fails that seed's cells,
 * and one in a cell's suffix fails that cell alone (the next cell
 * re-restores a snapshot, which rewinds any partial state).  Outputs
 * are a pure function of the spec, fork point and snapshot flag —
 * never of wall-clock or the caller's threading.
 *
 * @param no_snapshot  force cold-split mode even when a usable fork
 *                     point resolves (the CI identity gate).
 */
ForkGroupOutcome runForkGroup(const ForkGroupSpec &group,
                              const ForkPoint &fork_point,
                              bool no_snapshot);

} // namespace hcc::snap

#endif // HCC_SNAP_FORK_HPP
