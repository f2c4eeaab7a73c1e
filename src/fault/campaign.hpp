/**
 * @file
 * Fault-injection campaigns: run one workload across a (site, rate,
 * seed) grid and measure how each injected failure mode stretches the
 * end-to-end time relative to an unfaulted baseline of the same seed.
 *
 * A campaign expands to one rate-zero *baseline* cell per (overlap
 * tier, seed) plus one cell per (site, rate) pair under it, in
 * deterministic input order.  Cells run through the same grid
 * kernel as `hccsim sweep` (grid/grid.hpp); each cell owns its
 * Context / Registry / Injector, so outputs are byte-identical
 * regardless of the job count.  After the pool joins,
 * each cell's `fault.*` counters are read back out of its stats
 * registry and its slowdown is computed against the same-tier,
 * same-seed baseline.
 *
 * With a non-`none` fork point the cells of one tier form a single
 * snapshot tree: the prefix is simulated once under a
 * seed-independent identity seed, each seed reseeds at the fork
 * point (cross-seed prefix sharing), and each (site, rate) leaf arms
 * its faults on the restored state — so a 10k-cell campaign pays for
 * one prefix per tier instead of one per cell.
 */

#ifndef HCC_FAULT_CAMPAIGN_HPP
#define HCC_FAULT_CAMPAIGN_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "grid/grid.hpp"
#include "obs/registry.hpp"
#include "snap/fork.hpp"
#include "tee/secure_channel.hpp"
#include "workloads/workload.hpp"

namespace hcc::fault {

/** What to run: one app, one shape, a sites x rates x seeds grid. */
struct CampaignSpec
{
    /** Workload name (see `hccsim list`). */
    std::string app = "cnn";
    /** Run the UVM variant of the app. */
    bool uvm = false;
    /** Problem-size multiplier. */
    double scale = 1.0;
    /** Crypto worker threads inside each cell's SecureChannel. */
    int crypto_workers = 1;
    /** Model TEE-I/O (TDISP) instead of bounce-buffer CC. */
    bool tee_io = false;
    /** Channel overlap tiers to exercise; each tier gets its own
     *  baseline + grid block (the spec.miss site only fires in
     *  Speculative mode). */
    std::vector<tee::OverlapMode> overlaps = {tee::OverlapMode::None};
    /** Fault sites to exercise (empty is invalid; the CLI defaults
     *  to allSites()). */
    std::vector<Site> sites;
    /** Per-site injection probabilities to exercise, each in (0,1].
     *  Zero rates are redundant: every seed already gets a baseline
     *  cell. */
    std::vector<double> rates;
    /** Master seeds; each gets its own baseline cell. */
    std::vector<std::uint64_t> seeds;

    /**
     * Where to cut each cell into a shared prefix and a per-cell
     * suffix (snap/fork.hpp).  All cells of one seed share their
     * entire unfaulted schedule, so any non-`none` fork point lets
     * the engine simulate that prefix once per seed and replay only
     * suffixes.  `none` (the default) keeps the original semantics:
     * faults armed at Context construction, every cell simulated in
     * full — note the *arming point* is part of the semantics, so
     * `none` and the split modes are different experiments (see
     * docs/SNAPSHOT.md).
     */
    snap::ForkPoint fork_point;
    /** Run split cells cold instead of snapshot-forking them (the
     *  byte-identity control arm; same outputs, no speedup). */
    bool no_snapshot = false;
    /**
     * Ceiling on resident in-memory snapshot bytes per fork group
     * (0 = unlimited); over it the engine LRU-evicts interior tree
     * snapshots and deterministically rebuilds them on demand.
     */
    std::size_t snapshot_budget_bytes =
        snap::kDefaultSnapshotBudgetBytes;

    /** Per tier: baseline cells + grid cells. */
    std::size_t cellCount() const;
};

/** One run of the campaign grid. */
struct CampaignCell
{
    std::size_t index = 0;
    /** Unfaulted reference run (site/rate are meaningless). */
    bool baseline = false;
    Site site = Site::ChannelTagMismatch;
    double rate = 0.0;
    std::uint64_t seed = 1;
    /** Channel overlap tier this cell runs under. */
    tee::OverlapMode overlap = tee::OverlapMode::None;

    /** "cnn.baseline.s1" / "cnn.channel.tag_mismatch.r0.01.s1"; an
     *  overlap tier other than `none` appends its name, e.g.
     *  "cnn.baseline.s1.speculative". */
    std::string label(const CampaignSpec &spec) const;
};

/** Outcome of one cell. */
struct CampaignCellResult : grid::Row<CampaignCell>
{
    workloads::WorkloadResult result;

    // Read back from the cell's "fault.<site>.*" counters (zero for
    // baseline cells, whose injector never creates them).
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t retry_time_ps = 0;

    /** end_to_end / same-seed baseline end_to_end (0 when the
     *  baseline failed or this cell failed). */
    double slowdown = 0.0;
};

/** Everything `hccsim faults` reports.  snapshot_hits is 0 in
 *  legacy and cold-split modes. */
struct CampaignResult : grid::Outcome<CampaignCellResult>
{
    CampaignSpec spec;
};

/** Deterministic cell order: per overlap tier, per seed, baseline
 *  first, then site-major x rate-minor in spec order. */
std::vector<CampaignCell> expandCampaign(const CampaignSpec &spec);

/**
 * Run the whole campaign across @p jobs workers.  Per-cell
 * FatalErrors become failed cells, not process death.  Output is a
 * pure function of @p spec — independent of @p jobs.  Host-side
 * campaign telemetry (peak resident snapshot bytes) is published
 * into @p campaign_obs (may be null) under "host.sweep.*", excluded
 * from deterministic dumps.
 */
CampaignResult runFaultCampaign(const CampaignSpec &spec, int jobs,
                                obs::Registry *campaign_obs = nullptr);

/** One row per cell (docs/SWEEP.md "Outputs"; failed cells keep
 *  their row with empty measurement fields). */
void writeCampaignCsv(const CampaignResult &result, std::ostream &os);

/** Same rows as the CSV, as a JSON array. */
void writeCampaignJson(const CampaignResult &result, std::ostream &os);

/** Merged per-cell stats dump ("cell<i>.<label>." sections), for
 *  stats-diff gating of campaign baselines. */
void writeCampaignStats(const CampaignResult &result, std::ostream &os);

} // namespace hcc::fault

#endif // HCC_FAULT_CAMPAIGN_HPP
