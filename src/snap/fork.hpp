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
 *    fault config and runs the suffix.  With chained fork points and
 *    per-cell arms the prefix generalizes to a *snapshot tree*: cells
 *    sharing an arm path (e.g. the same reseed) share every interior
 *    node, so a nested 10k-cell grid re-simulates each tree edge once.
 *  - *cold-split* (`--no-snapshot`): every cell gets its own fresh
 *    Context, runs the full prefix (and arm/segment chain) itself,
 *    arms at the final cut and runs the suffix.  Semantically
 *    identical to fork mode — this pair is the byte-identity gate CI
 *    enforces with `cmp`.
 *  - *legacy* (`--fork-point none`): the pre-fork behaviour —
 *    faults are armed at Context construction and the workload runs
 *    start to finish via runWorkload().
 *
 * Mode note: fork and cold-split arm faults *at the fork point*, so
 * fault processes only act on the suffix; legacy arms at
 * construction, so warmup activity (including the SPDM handshake)
 * can fault too.  Fault campaigns therefore produce different —
 * equally valid — outputs under `none` vs the split modes; the
 * split modes always match each other exactly.
 *
 * Cross-seed prefix sharing: a group whose cells carry Reseed arms is
 * constructed from a seed-independent identity seed (identitySeed()),
 * runs one prefix for *all* seeds, and switches every seed-derived
 * stream to the cell seed at the fork point (Context::reseedAtFork +
 * Workload::reseedResume).  The cold-split control replays the exact
 * same derivation, so byte-identity is preserved by construction.
 */

#ifndef HCC_SNAP_FORK_HPP
#define HCC_SNAP_FORK_HPP

#include <cstddef>
#include <cstdint>
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
 * across cells with the same first arm, replay [0.8,1] per cell).
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
 * One interior branch of a snapshot tree: the state change a cell
 * applies at an intermediate cut.  Cells with equal arm prefixes
 * share the simulation up to the corresponding cut.
 */
struct ForkArm
{
    enum class Kind {
        /** Switch every seed-derived stream to `seed` exactly as a
         *  fresh Context constructed with it would derive them. */
        Reseed,
        /** Re-arm the injector with `faults` mid-run. */
        Faults,
    };

    Kind kind = Kind::Reseed;
    std::uint64_t seed = 0;
    fault::FaultConfig faults;
};

/**
 * One cell of a fork group: everything that may differ between cells
 * branched from the same prefix — the arm path taken through the
 * snapshot tree plus the fault config armed at the final cut
 * (rate-zero for baseline / sweep cells).
 *
 * `arms[k]` is applied at cut k+1's segment start; every cell of a
 * group must carry the same number of arms, and that number may
 * exceed the cut count by at most one (the last arm then applies at
 * the final cut, right before the per-cell fault arming).
 */
struct ForkCell
{
    fault::FaultConfig faults;
    std::vector<ForkArm> arms;
};

/** Default ceiling on resident in-memory snapshot bytes per group. */
inline constexpr std::size_t kDefaultSnapshotBudgetBytes =
    std::size_t{512} << 20;

/** A group of cells sharing one simulation prefix. */
struct ForkGroupSpec
{
    /** Workload to run (must be registered). */
    std::string app;
    /**
     * System config for every cell.  `sys.faults` is only honoured
     * in legacy mode; the split modes construct unfaulted and arm
     * each cell's ForkCell::faults at the fork point.  Groups with
     * Reseed arms should construct from identitySeed() so the shared
     * prefix is seed-independent.
     */
    rt::SystemConfig sys;
    workloads::WorkloadParams params;
    std::vector<ForkCell> cells;
    /**
     * Ceiling on simultaneously resident snapshot bytes (0 = no
     * limit).  Over budget the engine evicts the least-recently-used
     * interior snapshot (never the root) and deterministically
     * rematerializes it from its nearest resident ancestor when a
     * later cell needs it — outputs never change, only wall clock.
     */
    std::size_t snapshot_budget_bytes = kDefaultSnapshotBudgetBytes;
};

/** Outcome of one cell of a group. */
struct ForkCellOutcome
{
    bool ok = false;
    /** FatalError message when !ok. */
    std::string error;
    workloads::WorkloadResult result;
    /** Host wall-clock of this cell (suffix only in fork mode). */
    double wall_us = 0.0;
    /** True when the cell replayed from the in-memory snapshot. */
    bool from_snapshot = false;
};

/** Outcome of a whole group, cells in input order. */
struct ForkGroupOutcome
{
    std::vector<ForkCellOutcome> cells;
    /** Cells served by snapshot restore instead of a cold prefix. */
    std::size_t snapshot_hits = 0;
    /** High-water mark of resident snapshot bytes (fork mode). */
    std::size_t peak_resident_bytes = 0;
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
 * fails all cells; a FatalError in one cell's suffix (or in the
 * materialization of a tree node it needs) fails that cell alone
 * (the next cell re-restores a snapshot, which rewinds any partial
 * state).  Outputs are a pure function of the spec, fork point and
 * snapshot flag — never of wall-clock, the caller's threading or the
 * snapshot budget.
 *
 * @param no_snapshot  force cold-split mode even when a usable fork
 *                     point resolves (the CI identity gate).
 */
ForkGroupOutcome runForkGroup(const ForkGroupSpec &group,
                              const ForkPoint &fork_point,
                              bool no_snapshot);

} // namespace hcc::snap

#endif // HCC_SNAP_FORK_HPP
