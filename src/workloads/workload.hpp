/**
 * @file
 * Workload framework: named applications that drive the runtime API
 * with the launch/copy patterns of the paper's benchmark suites
 * (Rodinia, Polybench, UVMBench, GraphBIG, Tigr).
 *
 * Workloads are registered in a global registry at static-init time;
 * benches and tests look them up by name and run them under base and
 * CC configurations to regenerate the figures.
 */

#ifndef HCC_WORKLOADS_WORKLOAD_HPP
#define HCC_WORKLOADS_WORKLOAD_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "runtime/context.hpp"
#include "tee/tdx.hpp"
#include "trace/analysis.hpp"
#include "trace/critpath.hpp"
#include "trace/tracer.hpp"

namespace hcc::workloads {

/** Per-run parameters. */
struct WorkloadParams
{
    /** Problem-size multiplier applied to buffers and KETs. */
    double scale = 1.0;
    /** Run the UVM (cudaMallocManaged) variant. */
    bool uvm = false;
    /** Seed for KET jitter (same seed => same kernel durations in
     *  base and CC runs, so ratios are clean). */
    std::uint64_t seed = 42;
};

/** Everything a bench needs from one run. */
struct WorkloadResult
{
    std::string name;
    bool cc = false;
    bool uvm = false;
    trace::Tracer trace;
    trace::AppMetrics metrics;
    /** Critical path + bottleneck label (critpath.hpp). */
    trace::CriticalPath critical;
    tee::TdxStats tdx;
    SimTime end_to_end = 0;
    /** The run's stats registry (shared out of the dead Context). */
    std::shared_ptr<obs::Registry> stats;
};

/**
 * Abstract workload.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short app name as the paper uses it ("2dconv", "sc", ...). */
    virtual std::string name() const = 0;
    /** Originating suite ("polybench", "rodinia", "graphbig", ...). */
    virtual std::string suite() const = 0;
    /** Whether a managed-memory variant exists. */
    virtual bool supportsUvm() const = 0;
    /** Issue the app's API calls against @p ctx: the split below
     *  cut at 0 (setup and no launch), then the whole suffix. */
    void
    run(rt::Context &ctx, const WorkloadParams &params) const
    {
        runSuffix(ctx, params, *runPrefix(ctx, params, 0.0));
    }

    // ------------------------------------------ split-phase running
    //
    // Every workload can run as a *prefix* (allocations, input
    // transfers and the first warm launches) followed by a *suffix*
    // (the remaining launches, final sync, output transfers and
    // frees), with the hard contract that
    //
    //     { auto r = runPrefix(ctx, p, f); runSuffix(ctx, p, *r); }
    //
    // issues the *identical* API call sequence for every fraction f
    // in [0, 1], and so the same one as run().  The campaign fork
    // engine (snap/fork.hpp) runs the prefix once per cell group,
    // snapshots the Context, and replays only the suffix per cell.
    // The Resume object carries the workload-local state crossing the
    // cut (buffer handles, the KET jitter stream position); it is
    // immutable after runPrefix so one instance can serve every cell
    // forked from the same snapshot.

    /** Opaque workload state handed from runPrefix to runSuffix. */
    struct Resume
    {
        virtual ~Resume() = default;
    };

    /**
     * The workload's fork_after marker: the fraction of launches a
     * `--fork-point auto` prefix covers.  High for launch-dominated
     * apps (long shareable warmup).
     */
    virtual double defaultForkPoint() const { return 0.9; }

    /** Run setup plus the first floor(total_launches * fraction)
     *  launches. */
    virtual std::unique_ptr<Resume>
    runPrefix(rt::Context &ctx, const WorkloadParams &params,
              double fraction) const = 0;

    /** Run everything run() does after the prefix cut. */
    virtual void runSuffix(rt::Context &ctx,
                           const WorkloadParams &params,
                           const Resume &resume) const = 0;

    /**
     * Chained-fork support: advance @p from (the state at some cut)
     * to the state at @p to_fraction, issuing exactly the launches
     * run() issues between the two cuts.  The returned Resume is a
     * new object; @p from is untouched, so the prefix's resume can
     * serve every seed of a fork group.  The composition invariant
     * extends the split-phase contract: for any increasing cut path
     * f0 < f1 < ... < 1, prefix(f0) + segment(f1) + ... + suffix
     * issues the identical API call sequence as run().
     */
    virtual std::unique_ptr<Resume>
    runSegment(rt::Context &ctx, const WorkloadParams &params,
               const Resume &from, double to_fraction) const = 0;

    /**
     * Cross-seed fork support: re-derive the workload-local
     * stochastic state of @p resume (e.g. the KET jitter stream) for
     * @p params.seed, exactly as runPrefix under that seed would
     * have derived it.  Deterministic position state (buffer
     * handles, launch cursor) is copied unchanged.  Returns nullptr
     * when the workload keeps no seed-derived state of its own — the
     * caller then continues with @p resume as-is.  Called by the
     * fork engine right after rt::Context::reseedAtFork().
     */
    virtual std::unique_ptr<Resume>
    reseedResume(const Resume &resume,
                 const WorkloadParams &params) const;
};

/**
 * Global name -> workload registry.
 */
class WorkloadRegistry
{
  public:
    static WorkloadRegistry &instance();

    /** Register a workload (fatal on duplicate name). */
    void add(std::unique_ptr<Workload> workload);

    /** Find by name; nullptr when missing. */
    const Workload *find(const std::string &name) const;

    /** Find by name; fatal when missing. */
    const Workload &get(const std::string &name) const;

    /** All workloads in registration order. */
    std::vector<const Workload *> all() const;

    /** All workloads of one suite. */
    std::vector<const Workload *> ofSuite(const std::string &suite)
        const;

  private:
    WorkloadRegistry() = default;
    std::vector<std::unique_ptr<Workload>> workloads_;
};

/** Run @p workload under @p config and collect metrics. */
WorkloadResult runWorkload(const Workload &workload,
                           const rt::SystemConfig &config,
                           const WorkloadParams &params
                               = WorkloadParams{});

/** Convenience: run by registry name. */
WorkloadResult runWorkload(const std::string &name,
                           const rt::SystemConfig &config,
                           const WorkloadParams &params
                               = WorkloadParams{});

/**
 * The canonical evaluation app list (Figs. 5-11), in presentation
 * order.
 */
const std::vector<std::string> &evaluationApps();

/** The UVM-capable subset used in Fig. 9's UVM bars. */
const std::vector<std::string> &uvmApps();

} // namespace hcc::workloads

#endif // HCC_WORKLOADS_WORKLOAD_HPP
